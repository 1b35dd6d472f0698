"""Execution flags shared by both CLIs, threaded through the environment.

The sweep layer reads its run-time settings from ``REPRO_*`` environment
variables, so every nested sweep of an invocation — figure sweeps, a
campaign's sampling rounds and its analysis experiments alike — sees the
same values.  The figure runner and the ``campaign`` subcommand therefore
declare ``--progress``, ``--trace`` and ``--task-timeout`` through
:func:`add_execution_flags`, validate them (and the variables they shadow)
up front with :func:`execution_env`, and apply the result with
:func:`environment` for the duration of one run.
"""

from __future__ import annotations

import argparse
import os
from collections.abc import Iterator, Mapping
from contextlib import contextmanager

from repro.experiments.parallel import TIMEOUT_ENV_VAR, resolve_task_timeout
from repro.obs import TRACE_ENV_VAR
from repro.obs.progress import PROGRESS_ENV_VAR, progress_enabled

__all__ = ["add_execution_flags", "environment", "execution_env"]


def add_execution_flags(parser: argparse.ArgumentParser) -> None:
    """Declare ``--progress``, ``--trace`` and ``--task-timeout`` on ``parser``."""
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print one stderr line per completed sweep chunk (points done/total "
        f"and elapsed time; same as {PROGRESS_ENV_VAR}=1)",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const="1",
        default=None,
        metavar="DIR",
        help="record a span trace of the run: every sweep, dispatch and pool "
        "task spools its span tree under DIR (default ./trace; same as "
        f"{TRACE_ENV_VAR}=DIR); render with 'cprecycle-experiments "
        "trace-report DIR'. Tracing never changes results",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="abandon and re-dispatch a sweep task running longer than this "
        f"many seconds (pool mode only; default: {TIMEOUT_ENV_VAR} or no limit)",
    )


def execution_env(args: argparse.Namespace) -> dict[str, str]:
    """The environment overrides the execution flags in ``args`` ask for.

    A flag shadows its variable, so a variable is validated only when it is
    the value the run will consume.  Malformed values raise ``ValueError``
    naming their source.
    """
    resolve_task_timeout(args.task_timeout)
    overrides: dict[str, str] = {}
    if args.progress:
        overrides[PROGRESS_ENV_VAR] = "1"
    else:
        progress_enabled()
    if args.trace is not None:
        overrides[TRACE_ENV_VAR] = args.trace
    if args.task_timeout is not None:
        overrides[TIMEOUT_ENV_VAR] = str(args.task_timeout)
    return overrides


@contextmanager
def environment(overrides: Mapping[str, str]) -> Iterator[None]:
    """Set ``overrides`` in ``os.environ`` for the block, then restore.

    Restoring keeps an in-process caller's later work from silently running
    with this invocation's workers, cache or trace directory.
    """
    saved = {key: os.environ.get(key) for key in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
