"""Progress reporting (``REPRO_PROGRESS``), routed through the obs layer.

One stderr line per completed sweep chunk, plus — when tracing is active —
one ``progress.chunk`` instant event per line, so ``--progress`` and
``--trace`` compose: the trace records exactly when each chunk of which
sweep completed.

Parsing is strict, matching ``REPRO_WORKERS``: a value
that is neither truthy (``1``/``true``/``yes``/``on``) nor falsy
(``0``/``false``/``no``/``off``/empty) raises naming the variable, instead
of silently disabling progress (the historical behaviour for e.g.
``REPRO_PROGRESS=2``).
"""

from __future__ import annotations

import os
import sys
import time
from typing import Any

from repro.obs import tracer

__all__ = ["PROGRESS_ENV_VAR", "ProgressReporter", "progress_enabled"]

#: Environment variable enabling per-chunk progress lines on stderr.
PROGRESS_ENV_VAR = "REPRO_PROGRESS"
_TRUTHY = frozenset({"1", "true", "yes", "on"})
_FALSY = frozenset({"0", "false", "no", "off"})


def progress_enabled() -> bool:
    """Opt-in progress reporting, selected by ``REPRO_PROGRESS`` (or
    ``--progress`` on the CLIs, which sets the variable).

    Unrecognised values raise a ``ValueError`` naming the variable, so a
    typo fails fast instead of silently running without progress.
    """
    raw = os.environ.get(PROGRESS_ENV_VAR, "").strip().lower()
    if not raw or raw in _FALSY:
        return False
    if raw in _TRUTHY:
        return True
    raise ValueError(
        f"{PROGRESS_ENV_VAR} must be a boolean flag "
        f"(1/true/yes/on or 0/false/no/off), got {raw!r}"
    )


class ProgressReporter:
    """One stderr line per completed chunk: points done/total, elapsed time.

    Mirrors every line into the active trace as a ``progress.chunk`` event
    (a no-op None-check when tracing is off).
    """

    def __init__(self, fn: Any, total: int, cached: int) -> None:
        self.label = getattr(fn, "__qualname__", getattr(fn, "__name__", "task"))
        self.total = total
        self.done = cached
        self.started = time.monotonic()
        if cached:
            self.emit(0)

    def emit(self, newly_done: int) -> None:
        self.done += newly_done
        elapsed = time.monotonic() - self.started
        tracer.event(
            "progress.chunk", label=self.label, done=self.done, total=self.total
        )
        print(
            f"[sweep] {self.label}: {self.done}/{self.total} points "
            f"({elapsed:.1f}s elapsed)",
            file=sys.stderr,
            flush=True,
        )
