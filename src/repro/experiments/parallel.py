"""Fault-tolerant process-pool execution backend for the experiment sweeps.

The packet-success-rate figures evaluate many independent (MCS, SIR) points;
each point derives every random draw from its own explicit seed (see
:mod:`repro.utils.rng`), so points can execute in any order on any worker —
and can be *re-executed* after a crash — without changing a single sample.
This module exploits that purity to make sweep execution supervised instead
of fire-and-forget:

* :func:`resolve_workers` reads the worker count (argument, then the
  ``REPRO_WORKERS`` environment variable, then 1);
* :func:`resolve_task_timeout` reads the one failure setting, the per-task
  timeout (argument, then ``REPRO_TASK_TIMEOUT``, then no limit): its right
  value depends on the host and the profile, so it stays configurable;
* :func:`parallel_map` / :func:`parallel_map_chunked` fan a function over a
  list of picklable tasks through a supervised
  :class:`concurrent.futures.ProcessPoolExecutor`, preserving input order;
* :func:`pool_scope` lends one such pool to every sweep run inside it.
  Both CLIs open one around their whole run, so a run forks its workers
  once, not once per sweep; a call outside any scope opens its own.

Supervision semantics (all recovery events are counted in
:func:`supervisor_stats` and logged as one ``[supervise]`` stderr line each):

* a task that raises is retried at once, up to :data:`MAX_RETRIES` times;
  exhaustion raises :class:`SweepTaskError` naming the task;
* a task that exceeds the task timeout (pool mode only — serial execution
  cannot be preempted) is abandoned and re-dispatched like a failure;
* a dead worker (``BrokenProcessPool``) triggers a pool respawn (at most
  :data:`MAX_POOL_RESPAWNS` per sweep) re-dispatching only the incomplete
  tasks of the current chunk, and the replacement serves the rest of the
  scope; when the pool keeps dying the supervisor degrades that sweep to
  serial in-process execution instead of giving up;
* a sweep in which a task timed out terminates the pool when it ends (a
  worker may still be stuck on the abandoned execution), so the next
  sweep starts a fresh one;
* a task that cannot be pickled for dispatch (the pool probe only sees the
  first task) is executed serially in the parent with a warning naming the
  point's stable content key, instead of crashing the sweep with an opaque
  ``PicklingError``.

A retry recomputes the same outcome, so no delay before it could change
anything: the retry and respawn budgets are constants, not settings.

Serial execution (``n_workers=1``, the default) bypasses the pool entirely
but keeps retry supervision, and unpicklable task *functions* fall back to
the serial path with a warning, so figure modules can always call through
this layer.  Deterministic fault injection for testing every one of these
paths lives in :mod:`repro.experiments.faults` (``REPRO_FAULTS``).
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os
import pickle
import sys
import warnings
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, TypeVar

from repro import obs
from repro.experiments.faults import FaultPlan

__all__ = [
    "MAX_POOL_RESPAWNS",
    "MAX_RETRIES",
    "SupervisorStats",
    "SweepTaskError",
    "resolve_task_timeout",
    "resolve_workers",
    "parallel_map",
    "parallel_map_chunked",
    "pool_scope",
    "supervisor_stats",
    "reset_supervisor_stats",
    "TIMEOUT_ENV_VAR",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Re-executions of a raising or timed-out task before :class:`SweepTaskError`.
MAX_RETRIES = 2
#: Pool rebuilds after a worker death before the sweep degrades to serial.
MAX_POOL_RESPAWNS = 1

#: Environment variable feeding :func:`resolve_task_timeout`.
TIMEOUT_ENV_VAR = "REPRO_TASK_TIMEOUT"


def resolve_workers(n_workers: int | None = None) -> int:
    """Resolve the worker count: explicit argument, ``REPRO_WORKERS``, else 1.

    Zero or negative counts are rejected with an error naming the source
    (the argument or the environment variable), so a typo fails fast instead
    of silently serialising or hanging a pool.
    """
    source = "worker count"
    if n_workers is None:
        raw = os.environ.get("REPRO_WORKERS", "").strip()
        if not raw:
            return 1
        source = "REPRO_WORKERS"
        try:
            n_workers = int(raw)
        except ValueError as error:
            raise ValueError(f"REPRO_WORKERS must be an integer, got {raw!r}") from error
    if n_workers < 1:
        raise ValueError(f"{source} must be at least 1, got {n_workers}")
    return n_workers


def resolve_task_timeout(task_timeout: float | None = None) -> float | None:
    """Resolve the per-task timeout: explicit argument, ``REPRO_TASK_TIMEOUT``,
    else ``None`` (no limit).

    Only finite positive seconds are accepted; anything else (zero,
    negative, ``nan``, ``inf``, not a number) is rejected with an error
    naming the source, like :func:`resolve_workers`.
    """
    source = "task timeout"
    if task_timeout is None:
        raw = os.environ.get(TIMEOUT_ENV_VAR, "").strip()
        if not raw:
            return None
        source = TIMEOUT_ENV_VAR
        try:
            task_timeout = float(raw)
        except ValueError as error:
            raise ValueError(
                f"{TIMEOUT_ENV_VAR} must be a number of seconds, got {raw!r}"
            ) from error
    if not (math.isfinite(task_timeout) and task_timeout > 0):
        raise ValueError(
            f"{source} must be a finite positive number of seconds, got {task_timeout}"
        )
    return task_timeout


@dataclass
class SupervisorStats:
    """Counters of every recovery event the supervised executor performed."""

    retries: int = 0
    timeouts: int = 0
    pool_respawns: int = 0
    pickling_fallbacks: int = 0
    degraded: int = 0

    def snapshot(self) -> "SupervisorStats":
        """An independent copy (for before/after diffing)."""
        _warn_if_worker("snapshot")
        return dataclasses.replace(self)

    def diff(self, earlier: "SupervisorStats") -> "SupervisorStats":
        """Events recorded since ``earlier`` was snapshotted."""
        _warn_if_worker("diff")
        return SupervisorStats(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in dataclasses.fields(self)
            }
        )

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


def _warn_if_worker(operation: str) -> None:
    """Enforce the documented parent-only semantics of the counters.

    The supervisor only ever runs in the parent, so a snapshot/diff taken
    inside a pool worker reads an inert fork/spawn copy — always zeros,
    never updated.  That has been documented since the counters landed but
    silently returned misleading numbers; now it warns, naming the misuse.
    """
    if multiprocessing.parent_process() is not None:
        warnings.warn(
            f"SupervisorStats.{operation}() called in a worker process: the "
            "recovery counters are parent-only (workers hold an inert copy "
            "that is never updated); take snapshots/diffs in the parent",
            RuntimeWarning,
            stacklevel=3,
        )


#: Parent-process recovery counters (see :func:`supervisor_stats`).  Every
#: write happens in the supervisor, which only ever runs in the parent:
#: workers hold a fork/spawn copy that is never mutated and never read back.
# repro-lint: disable=RPR008 -- deliberately parent-only: all writes happen in
# the _Supervisor (parent process); worker copies are dead state by design and
# supervisor_stats() documents the parent-only semantics.
_STATS = SupervisorStats()


def supervisor_stats() -> SupervisorStats:
    """The recovery counters of the *parent* process, across all sweeps.

    Snapshot before a run and :meth:`~SupervisorStats.diff` after to obtain
    per-run numbers (the campaign scheduler records exactly that in its
    ``summary.json``).

    The counters are parent-only by design: the supervisor increments them
    while driving the pool, so retries, timeouts and respawns are all
    observed — and counted — in the parent.  Worker processes see an inert
    copy that is never merged back; calling this inside a pool worker
    always returns zeros.
    """
    return _STATS


def reset_supervisor_stats() -> None:
    """Zero the parent-process recovery counters (test isolation helper).

    Like :func:`supervisor_stats` this acts on the parent's counters only;
    it does not (and need not) reach into live pool workers.
    """
    global _STATS
    _STATS = SupervisorStats()


class SweepTaskError(RuntimeError):
    """One sweep task kept failing after all :data:`MAX_RETRIES` retries."""

    def __init__(
        self, ordinal: int, attempts: int, reason: str, task_key: str | None = None
    ) -> None:
        self.ordinal = ordinal
        self.attempts = attempts
        self.task_key = task_key
        suffix = f" [stable_key {task_key[:12]}…]" if task_key else ""
        super().__init__(
            f"sweep task {ordinal} failed after {attempts} attempt(s): {reason}{suffix}"
        )


def _log(message: str) -> None:
    print(f"[supervise] {message}", file=sys.stderr, flush=True)


def _task_key(task: Any) -> str | None:
    # Lazy import: parallel is lower in the layering than the store module.
    try:
        from repro.experiments.store import stable_key

        return stable_key(task)
    except Exception:
        return None


def _picklable(*objects: object) -> bool:
    """Probe whether the pool could serialise ``objects``.

    Called with the task function and ONE representative task, not the full
    task list — the pool pickles every task anyway when it dispatches, so
    probing them all would pay the serialisation cost twice on large sweeps.
    A later task that turns out unpicklable is caught at dispatch time and
    executed serially instead (see :class:`_Supervisor`).
    """
    try:
        for obj in objects:
            pickle.dumps(obj)
    except Exception:
        return False
    return True


def _is_pickling_error(error: BaseException) -> bool:
    """Did dispatching (or returning) this task die in the pickle layer?"""
    if isinstance(error, pickle.PicklingError):
        return True
    return isinstance(error, (TypeError, AttributeError, NotImplementedError)) and (
        "pickle" in str(error).lower()
    )


def _run_task(
    fn: Callable[[Any], Any],
    task: Any,
    plan: FaultPlan | None,
    ordinal: int,
    in_pool: bool,
    trace: str | None = None,
) -> Any:
    """Execute one task (in a pool worker or the parent), injecting faults.

    Module-level so it pickles into workers; the fault plan travels with
    every dispatch, so injection state never depends on worker start-up
    environment.  Both the pooled and the serial path route through here,
    so traces cover every worker count identically.

    ``trace`` (the parent's dispatch id, passed only when the parent is
    tracing) makes the execution a traced ``task`` section: in a pool
    worker that opens a per-task spool; in the parent it nests as a span of
    the sweep's record.  The dedup key ``<dispatch>/<ordinal>`` is shared
    by every re-execution of the same task (retries, timeout twins), so the
    merge keeps exactly one; the ``key`` attr is the task's content
    digest, aligning traces of different worker counts task by task, and
    :func:`repro.obs.digest_task` adds the outcome and RNG-stream digests
    that ``trace-diff`` compares.
    """
    if trace is None:
        if plan is not None:
            plan.apply(ordinal, in_pool=in_pool)
        return fn(task)
    with obs.tracing(
        "task",
        dedup=f"{trace}/{ordinal}",
        dispatch=trace,
        ordinal=ordinal,
        in_pool=in_pool,
        key=_task_key(task),
    ):
        if plan is not None:
            plan.apply(ordinal, in_pool=in_pool)
        return obs.digest_task(fn, task)


_UNSET = object()


class _PoolScope:
    """The process pool one :func:`pool_scope` lends to its sweeps.

    ``pid`` names the owning process: a worker forked inside a scope
    inherits it as dead state, which :func:`pool_scope` ignores.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.pool: ProcessPoolExecutor | None = None
        self.width = 0

    def borrow(self, n_workers: int, width: int) -> ProcessPoolExecutor:
        """The scope's pool, rebuilt first unless it has at least ``width``
        workers and at most ``n_workers`` (the count the sweep asked for)."""
        if self.pool is not None and not width <= self.width <= n_workers:
            self.close()
        if self.pool is None:
            self.pool = ProcessPoolExecutor(max_workers=width)
            self.width = width
        return self.pool

    def discard(self) -> None:
        """Tear the pool down hard (dead or hung workers included)."""
        if self.pool is None:
            return
        for process in list((getattr(self.pool, "_processes", None) or {}).values()):
            if process.is_alive():
                process.terminate()
        self.pool.shutdown(wait=False, cancel_futures=True)
        self.pool = None

    def close(self) -> None:
        """Shut the pool down, joining its workers."""
        if self.pool is not None:
            self.pool.shutdown(wait=True)
            self.pool = None


#: The scope whose pool sweeps in this process borrow (see :func:`pool_scope`).
# repro-lint: disable=RPR008 -- deliberately parent-only: only pool_scope()
# rebinds it, in the process that dispatches the sweeps; a worker's fork copy
# is dead state, recognised by its owner pid and never used.
_SCOPE: _PoolScope | None = None


@contextmanager
def pool_scope() -> Iterator[_PoolScope]:
    """Lend one process pool to every pooled sweep run inside the block.

    The first sweep that needs the pool creates it; the outermost scope
    shuts it down, joining its workers, on exit, and an inner scope joins
    the outer one.  Recovery stays per sweep (see the module notes).

    Workers fork once and keep the environment of that moment, so open the
    scope where the environment is settled: both CLIs open it inside their
    ``environment(overrides)`` block.
    """
    global _SCOPE
    if _SCOPE is not None and _SCOPE.pid == os.getpid():
        yield _SCOPE
        return
    _SCOPE = scope = _PoolScope()
    try:
        yield scope
    finally:
        _SCOPE = None
        scope.close()


class _Supervisor:
    """Drives one ``parallel_map_chunked`` call with failure recovery.

    Every chunk runs on the pool it borrows from ``scope``, so neither a
    chunk nor a sweep pays a worker respawn (plus numpy re-import); the
    respawn budget and the degradation to serial are this call's own.
    ``pooled=False`` (serial mode) keeps the retry and fault-injection
    behaviour without any pool.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        n_workers: int,
        task_timeout: float | None,
        plan: FaultPlan | None,
        total: int,
        pooled: bool,
        scope: _PoolScope,
    ) -> None:
        self.fn = fn
        self.task_timeout = task_timeout
        self.plan = plan
        self.pooled = pooled
        self.n_workers = n_workers
        self.width = max(1, min(n_workers, total))
        self.scope = scope
        self.respawns = 0
        self.degraded = False
        self.hang_suspected = False
        # Dispatch id naming this call's submit/task events in the trace;
        # None (and therefore zero per-task work) when tracing is off.
        self.dispatch = obs.next_dispatch_id() if obs.enabled() else None

    # -- pool lifecycle ----------------------------------------------------- #
    def close(self) -> None:
        if self.hang_suspected:
            # A task timed out earlier: a worker may still be stuck on the
            # abandoned execution, and a graceful shutdown would join it.
            self.scope.discard()

    def _recover_pool(self, n_incomplete: int) -> None:
        """Respawn after a pool death, or degrade to serial once out of respawns."""
        self.scope.discard()
        if self.respawns < MAX_POOL_RESPAWNS:
            self.respawns += 1
            _STATS.pool_respawns += 1
            obs.event(
                "supervise.respawn",
                respawn=self.respawns,
                n_incomplete=n_incomplete,
            )
            _log(
                f"worker process died; respawning the pool "
                f"(respawn {self.respawns}/{MAX_POOL_RESPAWNS}) and "
                f"re-dispatching {n_incomplete} incomplete task(s)"
            )
            return
        self.degraded = True
        _STATS.degraded += 1
        obs.event("supervise.degraded", n_incomplete=n_incomplete)
        _log(
            "process pool died again; degrading to serial in-process execution "
            "for the remaining tasks"
        )

    # -- execution ---------------------------------------------------------- #
    def run_chunk(self, chunk: Sequence[Any], base: int) -> list[Any]:
        """Execute one chunk, returning outcomes in task order."""
        if not chunk:
            return []
        if not self.pooled or self.degraded:
            return [self._call_serial(task, base + i) for i, task in enumerate(chunk)]
        results: list[Any] = [_UNSET] * len(chunk)
        attempts = [0] * len(chunk)
        futures: dict[int, Future[Any]] = {}
        while True:
            try:
                return self._drive(chunk, base, results, attempts, futures)
            except BrokenExecutor:
                # Keep what already finished; only the rest is re-dispatched.
                self._harvest(futures, results)
                futures.clear()
                incomplete = [i for i in range(len(chunk)) if results[i] is _UNSET]
                self._recover_pool(len(incomplete))
                if self.degraded:
                    for i in incomplete:
                        results[i] = self._call_serial(chunk[i], base + i, attempts[i])
                    return results

    def _submit(self, chunk: Sequence[Any], base: int, i: int) -> Future[Any]:
        pool = self.scope.borrow(self.n_workers, self.width)
        if self.dispatch is not None:
            # Payload size is measured with an extra serialisation, paid
            # only while tracing (the pool pickles the dispatch itself).
            with obs.span("dispatch.serialize", dispatch=self.dispatch, ordinal=base + i):
                payload = len(pickle.dumps((self.fn, chunk[i])))
                obs.add(bytes=payload)
            future = pool.submit(
                _run_task, self.fn, chunk[i], self.plan, base + i, True, self.dispatch
            )
            obs.event(
                "dispatch.submit", dispatch=self.dispatch, ordinal=base + i, bytes=payload
            )
            return future
        return pool.submit(
            _run_task, self.fn, chunk[i], self.plan, base + i, True
        )

    @staticmethod
    def _harvest(futures: dict[int, Future[Any]], results: list[Any]) -> None:
        """Collect every future that completed cleanly before a pool death."""
        for i, future in futures.items():
            if results[i] is _UNSET and future.done() and not future.cancelled():
                if future.exception() is None:
                    results[i] = future.result()

    def _drive(
        self,
        chunk: Sequence[Any],
        base: int,
        results: list[Any],
        attempts: list[int],
        futures: dict[int, Future[Any]],
    ) -> list[Any]:
        for i in range(len(chunk)):
            if results[i] is _UNSET and i not in futures:
                futures[i] = self._submit(chunk, base, i)
        # Wait on tasks in submission order.  A re-dispatched task joins the
        # back of the pool's queue, so it moves to the back of this one too:
        # its timeout then starts once the tasks queued before it are done,
        # instead of counting its wait behind them.
        pending = deque(i for i in range(len(chunk)) if results[i] is _UNSET)
        while pending:
            index = pending[0]
            future = futures[index]
            try:
                results[index] = future.result(timeout=self.task_timeout)
                if self.dispatch is not None:
                    obs.event("dispatch.result", dispatch=self.dispatch, ordinal=base + index)
                pending.popleft()
            except TimeoutError:
                future.cancel()
                self.hang_suspected = True
                _STATS.timeouts += 1
                attempts[index] = self._count_failure(
                    base + index,
                    attempts[index],
                    f"timed out after {self.task_timeout:g}s",
                    chunk[index],
                )
                futures[index] = self._submit(chunk, base, index)
                pending.rotate(-1)
            except BrokenExecutor:
                raise
            except Exception as error:  # noqa: BLE001 — task failures are data here
                if _is_pickling_error(error):
                    # Dispatch-time (or result-transport) pickling failure:
                    # the pool never ran this point.  Name it and run it
                    # serially instead of crashing the whole sweep.
                    _STATS.pickling_fallbacks += 1
                    key = _task_key(chunk[index])
                    warnings.warn(
                        f"sweep task {base + index} could not cross the process "
                        f"boundary ({type(error).__name__}: {error}); executing it "
                        "serially in the parent instead"
                        + (f" [stable_key {key[:12]}…]" if key else ""),
                        RuntimeWarning,
                        stacklevel=4,
                    )
                    results[index] = self._call_serial(chunk[index], base + index)
                    pending.popleft()
                    continue
                attempts[index] = self._count_failure(
                    base + index,
                    attempts[index],
                    f"failed: {type(error).__name__}: {error}",
                    chunk[index],
                    cause=error,
                )
                futures[index] = self._submit(chunk, base, index)
                pending.rotate(-1)
        return results

    def _count_failure(
        self,
        ordinal: int,
        attempts: int,
        reason: str,
        task: Any,
        cause: BaseException | None = None,
    ) -> int:
        """Account one failed attempt and return the new attempt count, or
        raise :class:`SweepTaskError` once every retry is spent."""
        attempts += 1
        if attempts > MAX_RETRIES:
            raise SweepTaskError(ordinal, attempts, reason, _task_key(task)) from cause
        _STATS.retries += 1
        obs.event("supervise.retry", ordinal=ordinal, attempt=attempts, reason=reason)
        _log(f"task {ordinal} {reason}; retry {attempts}/{MAX_RETRIES}")
        return attempts

    def _call_serial(self, task: Any, ordinal: int, attempts: int = 0) -> Any:
        """In-process execution with the same retry budget as the pool path."""
        while True:
            try:
                return _run_task(
                    self.fn, task, self.plan, ordinal, in_pool=False, trace=self.dispatch
                )
            except Exception as error:  # noqa: BLE001 — retried, then wrapped
                attempts = self._count_failure(
                    ordinal,
                    attempts,
                    f"failed: {type(error).__name__}: {error}",
                    task,
                    cause=error,
                )


def parallel_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    n_workers: int | None = None,
    fault_plan: FaultPlan | None = None,
) -> list[_R]:
    """Apply ``fn`` to every item, optionally across a supervised process pool.

    Results preserve the input order regardless of completion order.  With
    one worker (or one item) the pool is bypassed; if ``fn`` or the probed
    representative item cannot be pickled the call degrades to serial
    execution with a warning so that closures passed by older callers keep
    working.
    """
    tasks: Sequence[_T] = list(items)
    return parallel_map_chunked(
        fn,
        tasks,
        n_workers=n_workers,
        chunk_size=max(len(tasks), 1),
        fault_plan=fault_plan,
    )


def parallel_map_chunked(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    n_workers: int | None = None,
    chunk_size: int | None = None,
    on_chunk: Callable[[int, list[_R]], None] | None = None,
    fault_plan: FaultPlan | None = None,
) -> list[_R]:
    """:func:`parallel_map` with a completion callback after every chunk.

    ``on_chunk(start_index, chunk_results)`` fires as each ``chunk_size``
    slice of the input finishes (the sweep layer flushes its point cache
    there).  Every chunk runs on the pool of the active :func:`pool_scope`;
    with none active the call opens one, so its pool is shut down before it
    returns.  The task timeout comes from
    ``REPRO_TASK_TIMEOUT`` (see :func:`resolve_task_timeout`);
    ``fault_plan`` (default: ``REPRO_FAULTS``) enables deterministic fault
    injection for tests.
    """
    tasks: Sequence[_T] = list(items)
    workers = resolve_workers(n_workers)
    task_timeout = resolve_task_timeout()
    plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
    chunk_size = chunk_size or max(workers, 1) * 4
    use_pool = workers > 1 and len(tasks) > 1
    if use_pool and not _picklable(fn, tasks[0]):
        warnings.warn(
            "parallel_map fell back to serial execution: the task function or its "
            "arguments are not picklable (pass module-level functions / "
            "functools.partial objects to run across processes)",
            RuntimeWarning,
            stacklevel=3,
        )
        use_pool = False

    with obs.tracing(
        "parallel.map", n_tasks=len(tasks), workers=workers, pooled=use_pool
    ), pool_scope() as scope:
        stats_before = _STATS.snapshot() if obs.enabled() else None
        supervisor = _Supervisor(
            fn, workers, task_timeout, plan, total=len(tasks), pooled=use_pool, scope=scope
        )
        results: list[_R] = []
        try:
            for start in range(0, len(tasks), chunk_size):
                chunk_results = supervisor.run_chunk(tasks[start : start + chunk_size], start)
                results.extend(chunk_results)
                if on_chunk is not None:
                    on_chunk(start, chunk_results)
        finally:
            supervisor.close()
        if stats_before is not None:
            obs.event("supervise.stats", **_STATS.diff(stats_before).as_dict())
        return results
