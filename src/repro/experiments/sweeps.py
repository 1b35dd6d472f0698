"""Shared sweep-execution layer for the experiment harness.

Every experiment decomposes into independently-executable *sweep points*:
packet-success-rate grid cells for the PSR figures, per-SIR analysis tasks
for Figs. 4/6, Monte-Carlo building realizations (and, in simulated mode,
per-AP-pair link scenarios — see :mod:`repro.network.links`) for Fig. 13
and per-standard rows for Table 1.  :func:`execute_points` is the single
execution funnel all of them go through:

* points dispatch via :func:`repro.experiments.parallel.parallel_map` —
  serial by default, across a process pool when ``n_workers`` (or
  ``REPRO_WORKERS``) is greater than one;
* when the ``REPRO_RESULT_CACHE`` environment variable names a directory,
  completed point outcomes are persisted there (keyed by a stable content
  hash of the task, see :mod:`repro.experiments.store`) so a re-run with the
  same configuration skips finished points and an interrupted run resumes.

A packet-success-rate point is a :class:`SweepPoint`: a declarative
:class:`repro.api.specs.ScenarioSpec` plus the receiver set as
:class:`repro.api.specs.ReceiverSpec` entries.  Specs are frozen
dataclasses of primitives, so points are picklable by construction (no
``functools.partial`` gymnastics) and hash stably across processes for the
point cache.  Task functions must return JSON-serialisable outcomes so a
cached outcome is bit-identical to a fresh one, and all randomness must
derive from seeds carried inside the task, making every outcome independent
of which worker (or run) executes it.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro import obs
from repro.experiments.link import packet_success_rate
from repro.experiments.parallel import parallel_map_chunked
from repro.experiments.store import CACHE_ENV_VAR, PointCache, stable_key
from repro.obs.progress import ProgressReporter, progress_enabled

if TYPE_CHECKING:  # imported lazily at runtime to avoid an import cycle
    from repro.api.specs import ReceiverSpec, ScenarioSpec

__all__ = [
    "execute_points",
    "sir_axis",
    "SweepPoint",
    "run_sweep_point",
    "run_sweep_point_counts",
]


def sir_axis(low_db: float, high_db: float, n_points: int) -> list[float]:
    """Evenly spaced SIR values from low to high (inclusive)."""
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    return [round(float(value), 2) for value in np.linspace(low_db, high_db, n_points)]


# --------------------------------------------------------------------------- #
# Generic point execution (pool + persistent point cache)                     #
# --------------------------------------------------------------------------- #
def _point_cache_for(fn: Callable[..., Any]) -> PointCache | None:
    """Point cache for ``fn``'s sweep, or ``None`` when caching is off."""
    cache_dir = os.environ.get(CACHE_ENV_VAR, "").strip()
    if not cache_dir:
        return None
    label = f"{getattr(fn, '__module__', 'task')}.{getattr(fn, '__qualname__', 'fn')}"
    return PointCache(Path(cache_dir) / (label.replace(".", "-") + ".json"))


def execute_points(
    fn: Callable[[Any], Any],
    tasks: Iterable[Any],
    n_workers: int | None = None,
) -> list[Any]:
    """Run every sweep task through the shared execution layer.

    Outcomes preserve task order whatever the execution order was.  With a
    cache directory configured (``REPRO_RESULT_CACHE``), previously completed
    points are returned from the cache and newly computed ones are flushed to
    it chunk-by-chunk (reusing one process pool across chunks), so
    interrupting an expensive sweep loses at most one chunk of work.  With
    ``REPRO_PROGRESS`` set, each completed chunk prints one stderr line
    (points done/total, elapsed seconds); cached points count as done
    immediately.

    The supervised executor retries failed points and, under
    ``REPRO_TASK_TIMEOUT``, re-dispatches hung ones (see
    :mod:`repro.experiments.parallel`).  Because every task derives its
    randomness from seeds it carries, any retried or re-dispatched point
    returns an outcome bit-identical to an undisturbed run's.

    Under ``REPRO_TRACE`` the whole call is one traced section — cache
    lookup, pool dispatch and result merge each get a span, and the
    supervised executor adds per-task serialize/submit/compute events (see
    :mod:`repro.obs`).  Tracing never changes an outcome: spans only time
    existing statements.
    """
    tasks = list(tasks)
    label = getattr(fn, "__qualname__", getattr(fn, "__name__", "task"))
    with obs.tracing("sweep.execute_points", label=label, n_tasks=len(tasks)):
        return _execute(fn, tasks, n_workers)


def _execute(
    fn: Callable[[Any], Any],
    tasks: list[Any],
    n_workers: int | None,
) -> list[Any]:
    cache = _point_cache_for(fn)
    reporter = (
        ProgressReporter(fn, total=len(tasks), cached=0)
        if cache is None and progress_enabled() and tasks
        else None
    )
    if cache is None:
        def report(start: int, chunk_results: list[Any]) -> None:
            if reporter is not None:
                reporter.emit(len(chunk_results))

        # One chunk when nobody is watching (single flush, least overhead);
        # pool-sized chunks when progress is on so lines arrive steadily.
        chunk_size = None if reporter is not None else max(len(tasks), 1)
        return parallel_map_chunked(
            fn,
            tasks,
            n_workers=n_workers,
            chunk_size=chunk_size,
            on_chunk=report,
        )

    with obs.span("sweep.cache_lookup", n_tasks=len(tasks)):
        keys = [stable_key(task) for task in tasks]
        outcomes: dict[int, Any] = {
            index: cache.get(key) for index, key in enumerate(keys) if key in cache
        }
        pending = [index for index in range(len(tasks)) if index not in outcomes]
        obs.add(cache_hits=len(outcomes), cache_misses=len(pending))
    if progress_enabled() and tasks:
        reporter = ProgressReporter(fn, total=len(tasks), cached=len(outcomes))

    def flush(start: int, chunk_results: list[Any]) -> None:
        with obs.span("sweep.flush", n_results=len(chunk_results)):
            chunk = pending[start : start + len(chunk_results)]
            cache.update({keys[i]: outcome for i, outcome in zip(chunk, chunk_results)})
            outcomes.update(dict(zip(chunk, chunk_results)))
        if reporter is not None:
            reporter.emit(len(chunk_results))

    parallel_map_chunked(fn, [tasks[i] for i in pending], n_workers=n_workers, on_chunk=flush)
    with obs.span("sweep.merge", n_tasks=len(tasks)):
        return [outcomes[index] for index in range(len(tasks))]


# --------------------------------------------------------------------------- #
# Packet-success-rate sweep points                                            #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SweepPoint:
    """One independently-executable packet-success-rate sweep point.

    ``scenario`` is a declarative :class:`repro.api.specs.ScenarioSpec`;
    the receiver set travels as :class:`repro.api.specs.ReceiverSpec`
    entries resolved through the receiver registry at execution time.  Both
    are frozen dataclasses of primitives, so the point pickles into pool
    workers and content-hashes identically in every process.

    ``first_packet`` is the global index of the point's first packet
    (packet ``i`` draws from the child RNG stream of ``first_packet + i``).
    The adaptive campaign scheduler grows a point's budget in rounds by
    issuing consecutive ``[first_packet, first_packet + n_packets)`` windows
    of the same scenario; their counts merge losslessly into the one-long-run
    result (see :class:`repro.experiments.link.LinkResult`).
    """

    scenario: "ScenarioSpec"
    receivers: tuple["ReceiverSpec", ...]
    n_packets: int
    seed: int
    first_packet: int = 0


def _simulate_point(point: SweepPoint) -> dict:
    from repro.api.registry import build_receiver

    scenario = point.scenario.build()
    receivers = {
        spec.name: build_receiver(spec, scenario.allocation) for spec in point.receivers
    }
    return packet_success_rate(
        scenario,
        receivers,
        point.n_packets,
        seed=point.seed,
        first_packet=point.first_packet,
    )


def run_sweep_point(point: SweepPoint) -> dict[str, float]:
    """Simulate one sweep point and return success percentages per receiver.

    Module-level so that it pickles into pool workers; all randomness derives
    from ``point.seed``, making the result independent of which worker (or
    order) executes it.
    """
    stats = _simulate_point(point)
    return {name: stat.success_percent for name, stat in stats.items()}


def run_sweep_point_counts(point: SweepPoint) -> dict[str, list[int]]:
    """Simulate one sweep point and return exact ``[n_success, n_packets]``
    counts per receiver.

    The campaign scheduler's task function: unlike :func:`run_sweep_point`
    it keeps the integer counts (JSON-exact, so point-cache round-trips are
    bit-identical) so consecutive rounds of the same point merge losslessly
    instead of averaging percentages.
    """
    stats = _simulate_point(point)
    return {name: [stat.n_success, stat.n_packets] for name, stat in stats.items()}
