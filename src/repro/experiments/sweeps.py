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

Packet-success-rate points run as *sibling groups*.  Points of one
:func:`execute_points` call that share the seed and packet window and
differ only in SNR, interferer SIRs and receivers draw identical packets,
because packet ``i`` derives from the same child RNG stream in each.  After
the point-cache lookup, :func:`execute_points` packs the pending points, in
point order, into :class:`SweepGroup` tasks of at most
:data:`MAX_GROUP_FRAMES` FEC frames (packets times receivers, summed over
the group), and :func:`run_sweep_group` simulates each group with one
:func:`repro.experiments.link.packet_success_rate` call: every packet is
drawn once, and all the group's frames share one Viterbi call.  The
partition depends only on the points, never on the worker count, and each
point's outcome equals the one it gets alone, so the point cache stays per
point.  Retries, fault injection and the task timeout act on the dispatched
task, which for these points is a group.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro import obs
from repro.experiments.link import packet_success_rate, psr
from repro.experiments.parallel import parallel_map_chunked
from repro.experiments.store import CACHE_ENV_VAR, PointCache, stable_key
from repro.obs.progress import ProgressReporter, progress_enabled

if TYPE_CHECKING:  # imported lazily at runtime to avoid an import cycle
    from repro.api.specs import ReceiverSpec, ScenarioSpec

__all__ = [
    "MAX_GROUP_FRAMES",
    "execute_points",
    "sir_axis",
    "SweepGroup",
    "SweepPoint",
    "run_sweep_group",
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

    The pending points of :func:`run_sweep_point` and
    :func:`run_sweep_point_counts` are dispatched as sibling groups
    (:class:`SweepGroup`, through :func:`run_sweep_group`); every other
    task function runs one task per dispatch.  Either way ``tasks`` holds
    the points themselves, and outcomes are cached per point.

    The supervised executor retries failed tasks and, under
    ``REPRO_TASK_TIMEOUT``, re-dispatches hung ones (see
    :mod:`repro.experiments.parallel`).  Because every task derives its
    randomness from seeds it carries, any retried or re-dispatched task
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
    keys: list[str] = []
    outcomes: dict[int, Any] = {}
    if cache is not None:
        with obs.span("sweep.cache_lookup", n_tasks=len(tasks)):
            keys = [stable_key(task) for task in tasks]
            outcomes = {
                index: cache.get(key) for index, key in enumerate(keys) if key in cache
            }
            obs.add(cache_hits=len(outcomes), cache_misses=len(tasks) - len(outcomes))
    pending = [index for index in range(len(tasks)) if index not in outcomes]
    reporter = (
        ProgressReporter(fn, total=len(tasks), cached=len(outcomes))
        if progress_enabled() and tasks
        else None
    )

    # Each dispatched unit covers some task indices: one point, or a group
    # of sibling points whose outcomes ``finish`` turns into ``fn``'s.
    finish = _GROUPED.get(fn)
    units: list[list[int]]
    run: Callable[[Any], Any]
    if finish is None:
        units = [[index] for index in pending]
        run, work = fn, [tasks[index] for index in pending]
    else:
        units = _sibling_groups(tasks, pending)
        run = run_sweep_group
        work = [SweepGroup(tuple(tasks[index] for index in unit)) for unit in units]

    def flush(start: int, chunk_results: list[Any]) -> None:
        done: dict[int, Any] = {}
        for unit, result in zip(units[start:], chunk_results):
            if finish is None:
                done[unit[0]] = result
            else:
                done.update((index, finish(counts)) for index, counts in zip(unit, result))
        if cache is not None:
            with obs.span("sweep.flush", n_results=len(done)):
                cache.update({keys[index]: outcome for index, outcome in done.items()})
        outcomes.update(done)
        if reporter is not None:
            reporter.emit(len(done))

    # Without a cache or progress lines to feed, one chunk: a single flush,
    # least overhead.  Otherwise pool-sized chunks, so an interrupt loses
    # at most one chunk and progress lines arrive steadily.
    chunk_size = max(len(work), 1) if cache is None and reporter is None else None
    parallel_map_chunked(run, work, n_workers=n_workers, chunk_size=chunk_size, on_chunk=flush)
    if cache is None:
        return [outcomes[index] for index in range(len(tasks))]
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


#: Most FEC frames (packets times receivers, summed over the points) in one
#: sibling group.  One paper-link point decodes 64 frames per Viterbi call,
#: and at that size the trellis sweep's per-step overhead is amortised;
#: larger groups would only hold more waveforms and coded bits at once.
MAX_GROUP_FRAMES = 64


@dataclass(frozen=True)
class SweepGroup:
    """Sibling sweep points that run as one task.

    The points share the seed and the packet window and differ only in
    SNR, interferer SIRs and receivers, so their packets draw identically
    (:func:`run_sweep_group`).  :func:`execute_points` forms groups from
    the points it is given; a group of one point runs exactly like the
    point alone.
    """

    points: tuple[SweepPoint, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a sweep group needs at least one point")
        lead = self.points[0]
        for point in self.points[1:]:
            if (point.seed, point.first_packet, point.n_packets) != (
                lead.seed,
                lead.first_packet,
                lead.n_packets,
            ):
                raise ValueError(
                    "grouped sweep points must share the seed and the packet window"
                )


def _sibling_key(point: SweepPoint) -> tuple[Any, ...]:
    """What a point's sibling group shares: all but SNR, SIRs and receivers."""
    scenario = point.scenario
    drawn = replace(
        scenario,
        snr_db=None,
        sir_db=None,
        interferers=tuple(replace(spec, sir_db=None) for spec in scenario.interferers),
    )
    return (drawn, point.seed, point.first_packet, point.n_packets)


def _sibling_groups(tasks: list[Any], pending: list[int]) -> list[list[int]]:
    """Pack the pending points into sibling groups, in point order.

    A point joins the open group of its siblings while the group's frames
    stay within :data:`MAX_GROUP_FRAMES`, and otherwise opens a new one, so
    a point with more frames than that runs alone.  Groups are ordered by
    their first point.
    """
    groups: list[list[int]] = []
    open_groups: dict[tuple[Any, ...], tuple[list[int], int]] = {}
    for index in pending:
        point = tasks[index]
        key = _sibling_key(point)
        frames = point.n_packets * len(point.receivers)
        group = open_groups.get(key)
        if group is None or group[1] + frames > MAX_GROUP_FRAMES:
            group = ([], 0)
            groups.append(group[0])
        group[0].append(index)
        open_groups[key] = (group[0], group[1] + frames)
    return groups


def run_sweep_group(group: SweepGroup) -> list[dict[str, list[int]]]:
    """Simulate a group of sibling points: exact ``[n_success, n_packets]``
    counts per receiver, one mapping per point in group order.

    Module-level so that it pickles into pool workers.  Each point gets the
    counts it gets alone (see :func:`repro.experiments.link.packet_success_rate`).
    """
    from repro.api.registry import build_receiver

    scenarios = [point.scenario.build() for point in group.points]
    receivers = [
        {spec.name: build_receiver(spec, scenario.allocation) for spec in point.receivers}
        for point, scenario in zip(group.points, scenarios)
    ]
    lead = group.points[0]
    stats = packet_success_rate(
        scenarios,
        receivers,
        lead.n_packets,
        seed=lead.seed,
        first_packet=lead.first_packet,
    )
    return [
        {name: [stat.n_success, stat.n_packets] for name, stat in point_stats.items()}
        for point_stats in stats
    ]


def run_sweep_point_counts(point: SweepPoint) -> dict[str, list[int]]:
    """Simulate one sweep point and return exact ``[n_success, n_packets]``
    counts per receiver.

    The campaign scheduler's task function: unlike :func:`run_sweep_point`
    it keeps the integer counts (JSON-exact, so point-cache round-trips are
    bit-identical) so consecutive rounds of the same point merge losslessly
    instead of averaging percentages.  :func:`execute_points` runs its
    points through :func:`run_sweep_group`.
    """
    return run_sweep_group(SweepGroup((point,)))[0]


def _percentages(counts: dict[str, list[int]]) -> dict[str, float]:
    return {name: 100.0 * psr(n_success, n_packets) for name, (n_success, n_packets) in counts.items()}


def _as_counts(counts: dict[str, list[int]]) -> dict[str, list[int]]:
    return counts


def run_sweep_point(point: SweepPoint) -> dict[str, float]:
    """Simulate one sweep point and return success percentages per receiver.

    Module-level so that it pickles into pool workers; all randomness derives
    from ``point.seed``, making the result independent of which worker (or
    order) executes it.  :func:`execute_points` runs its points through
    :func:`run_sweep_group`.
    """
    return _percentages(run_sweep_point_counts(point))


#: The per-point task functions whose points :func:`execute_points` runs
#: as sibling groups, each with the map from a point's counts to its outcome.
_GROUPED: dict[Callable[[Any], Any], Callable[[dict[str, list[int]]], Any]] = {
    run_sweep_point: _percentages,
    run_sweep_point_counts: _as_counts,
}
