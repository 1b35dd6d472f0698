"""The ``campaign`` runner subcommand.

Invoked as ``cprecycle-experiments campaign ...``::

    cprecycle-experiments campaign --spec my-campaign.json
    cprecycle-experiments campaign --spec my-campaign.json --resume
    cprecycle-experiments campaign --spec my-campaign.json --resume --report csv

``--spec`` names the :class:`repro.api.CampaignSpec` JSON file; the
workspace (``--out``, default ``campaigns/<name>``) receives the manifest,
the shared point cache, per-experiment artifacts and ``summary.json``.
``--resume`` continues an interrupted (or finished — then it only reloads
and reports) campaign; ``--report`` picks the stdout rendering.  A finished
campaign's summary can thus be re-rendered at any time without resimulating
a single packet.
"""

from __future__ import annotations

import argparse
import os
from pathlib import Path

from repro.api.campaign import CampaignSpec
from repro.api.specs import SpecError
from repro.campaigns.report import (
    format_summary_csv,
    format_summary_json,
    format_summary_markdown,
)
from repro.campaigns.scheduler import run_campaign
from repro.experiments.parallel import (
    RETRIES_ENV_VAR,
    TIMEOUT_ENV_VAR,
    FailurePolicy,
    resolve_workers,
)
from repro.experiments.sweeps import PROGRESS_ENV_VAR, progress_enabled
from repro.obs import TRACE_ENV_VAR

__all__ = ["main"]

_REPORTERS = {
    "markdown": format_summary_markdown,
    "csv": format_summary_csv,
    "json": format_summary_json,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``campaign`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="cprecycle-experiments campaign",
        description="Run a set of experiments as one adaptively-sampled campaign",
    )
    parser.add_argument(
        "--spec",
        type=Path,
        required=True,
        metavar="FILE",
        help="campaign spec JSON file (see repro.api.CampaignSpec / examples/campaign.py)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="DIR",
        help="campaign workspace: manifest, point cache, per-experiment artifacts "
        "and summary.json (default: campaigns/<campaign name>)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue a previously interrupted campaign from its manifest "
        "(bit-identical final counts); required to re-enter a used workspace",
    )
    parser.add_argument(
        "--report",
        choices=sorted(_REPORTERS),
        default="markdown",
        help="stdout rendering of the campaign summary (default: markdown)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="process-pool width for sweep points (overrides the campaign spec "
        "and REPRO_WORKERS)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print one stderr line per completed sweep chunk (same as REPRO_PROGRESS=1)",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const="1",
        default=None,
        metavar="DIR",
        help="record a span trace of the campaign: rounds, cells, sweeps and "
        f"pool tasks spool under DIR (default ./trace; same as {TRACE_ENV_VAR}=DIR); "
        "render with 'cprecycle-experiments trace-report DIR'",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="re-execute a failed or timed-out sweep task up to N times with "
        f"exponential backoff (default: {RETRIES_ENV_VAR} or "
        f"{FailurePolicy().max_retries}); retried work is bit-identical by "
        "construction",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="abandon and re-dispatch a sweep task running longer than this "
        f"many seconds (pool mode only; default: {TIMEOUT_ENV_VAR} or no limit)",
    )
    args = parser.parse_args(argv)

    try:
        resolve_workers(args.workers)
        policy = FailurePolicy.from_env(args.max_retries, args.task_timeout)
        if not args.progress:
            progress_enabled()
    except ValueError as error:
        parser.error(str(error))

    try:
        spec = CampaignSpec.from_json(args.spec.read_text())
    except OSError as error:
        parser.error(f"cannot read campaign spec {args.spec}: {error}")
    except SpecError as error:
        parser.error(f"invalid campaign spec {args.spec}: {error}")

    workspace = args.out if args.out is not None else Path("campaigns") / spec.name
    # Thread the execution knobs through the environment (like the figure
    # runner does) so the campaign's analysis experiments — which resolve
    # their failure policy from the environment — honour them too; restore
    # the previous values on exit.
    overrides: dict[str, str] = {}
    if args.progress:
        overrides[PROGRESS_ENV_VAR] = "1"
    if args.trace is not None:
        overrides[TRACE_ENV_VAR] = args.trace
    if args.max_retries is not None:
        overrides[RETRIES_ENV_VAR] = str(args.max_retries)
    if args.task_timeout is not None:
        overrides[TIMEOUT_ENV_VAR] = str(args.task_timeout)
    saved = {key: os.environ.get(key) for key in overrides}
    os.environ.update(overrides)
    try:
        run = run_campaign(
            spec,
            workspace,
            resume=args.resume,
            n_workers=args.workers,
            policy=policy,
        )
    except (SpecError, ValueError) as error:
        parser.error(str(error))
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value

    print(_REPORTERS[args.report](run.summary))
    return 0
