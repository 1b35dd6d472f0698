"""Fault-tolerant process-pool execution backend for the experiment sweeps.

The packet-success-rate figures evaluate many independent (MCS, SIR) points;
each point derives every random draw from its own explicit seed (see
:mod:`repro.utils.rng`), so points can execute in any order on any worker —
and can be *re-executed* after a crash — without changing a single sample.
This module exploits that purity to make sweep execution supervised instead
of fire-and-forget:

* :func:`resolve_workers` reads the worker count (argument, then the
  ``REPRO_WORKERS`` environment variable, then 1);
* :class:`FailurePolicy` bundles the recovery knobs — bounded retry with
  exponential backoff, an optional per-task timeout, a pool-respawn budget
  and whether to degrade to serial in-process execution when the pool keeps
  dying — resolved from ``REPRO_MAX_RETRIES`` / ``REPRO_TASK_TIMEOUT`` /
  ``REPRO_BACKOFF`` / ``REPRO_DEGRADE`` (or the ``--max-retries`` /
  ``--task-timeout`` CLI flags);
* :func:`parallel_map` / :func:`parallel_map_chunked` fan a function over a
  list of picklable tasks through a supervised
  :class:`concurrent.futures.ProcessPoolExecutor`, preserving input order.

Supervision semantics (all recovery events are counted in
:func:`supervisor_stats` and logged as one ``[supervise]`` stderr line each):

* a task that raises is retried up to ``max_retries`` times with exponential
  backoff; exhaustion raises :class:`SweepTaskError` naming the task;
* a task that exceeds ``task_timeout`` (pool mode only — serial execution
  cannot be preempted) is abandoned and re-dispatched like a failure;
* a dead worker (``BrokenProcessPool``) triggers one pool respawn (budget:
  ``max_pool_respawns``) re-dispatching only the incomplete tasks of the
  current chunk; when the pool keeps dying the supervisor degrades to serial
  in-process execution instead of giving up (unless ``REPRO_DEGRADE=0``);
* a task that cannot be pickled for dispatch (the pool probe only sees the
  first task) is executed serially in the parent with a warning naming the
  point's stable content key, instead of crashing the sweep with an opaque
  ``PicklingError``.

Serial execution (``n_workers=1``, the default) bypasses the pool entirely
but keeps retry supervision, and unpicklable task *functions* fall back to
the serial path with a warning, so figure modules can always call through
this layer.  Deterministic fault injection for testing every one of these
paths lives in :mod:`repro.experiments.faults` (``REPRO_FAULTS``).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import sys
import time
import warnings
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, TypeVar

from repro import obs
from repro.experiments.faults import FaultPlan

__all__ = [
    "FailurePolicy",
    "SupervisorStats",
    "SweepTaskError",
    "SweepExecutionError",
    "resolve_workers",
    "parallel_map",
    "parallel_map_chunked",
    "supervisor_stats",
    "reset_supervisor_stats",
    "RETRIES_ENV_VAR",
    "TIMEOUT_ENV_VAR",
    "BACKOFF_ENV_VAR",
    "DEGRADE_ENV_VAR",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Environment variables feeding :meth:`FailurePolicy.from_env`.
RETRIES_ENV_VAR = "REPRO_MAX_RETRIES"
TIMEOUT_ENV_VAR = "REPRO_TASK_TIMEOUT"
BACKOFF_ENV_VAR = "REPRO_BACKOFF"
DEGRADE_ENV_VAR = "REPRO_DEGRADE"

_TRUTHY = ("1", "true", "yes", "on")
_FALSY = ("0", "false", "no", "off")


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


@dataclass(frozen=True)
class FailurePolicy:
    """How the supervised executor reacts to failing, hanging or dying work.

    ``max_retries`` bounds re-executions per task (on exception or timeout);
    ``task_timeout`` (seconds, pool mode) abandons a task that takes too
    long; retry ``n`` sleeps ``backoff_base * backoff_factor**n`` seconds
    first; ``max_pool_respawns`` bounds how often a broken process pool is
    rebuilt before ``degrade_serial`` decides between finishing the sweep
    serially in-process and raising :class:`SweepExecutionError`.
    """

    max_retries: int = 2
    task_timeout: float | None = None
    backoff_base: float = 0.1
    backoff_factor: float = 2.0
    max_pool_respawns: int = 1
    degrade_serial: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max retries must be >= 0, got {self.max_retries}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(f"task timeout must be positive, got {self.task_timeout}")
        if self.backoff_base < 0 or self.backoff_factor <= 0:
            raise ValueError("backoff base must be >= 0 and the factor positive")
        if self.max_pool_respawns < 0:
            raise ValueError(f"max pool respawns must be >= 0, got {self.max_pool_respawns}")

    def backoff_delay(self, retry: int) -> float:
        """Seconds to sleep before retry number ``retry`` (0-based)."""
        return self.backoff_base * self.backoff_factor**retry

    @classmethod
    def from_env(
        cls,
        max_retries: int | None = None,
        task_timeout: float | None = None,
    ) -> "FailurePolicy":
        """Resolve the policy: explicit arguments, then ``REPRO_*``, else defaults.

        Malformed values fail fast with an error naming their source, like
        :func:`resolve_workers`.
        """
        if max_retries is None:
            raw = os.environ.get(RETRIES_ENV_VAR, "").strip()
            if raw:
                try:
                    max_retries = int(raw)
                except ValueError as error:
                    raise ValueError(
                        f"{RETRIES_ENV_VAR} must be an integer, got {raw!r}"
                    ) from error
                if max_retries < 0:
                    raise ValueError(f"{RETRIES_ENV_VAR} must be >= 0, got {max_retries}")
        elif max_retries < 0:
            raise ValueError(f"max retries must be >= 0, got {max_retries}")
        if task_timeout is None:
            raw = os.environ.get(TIMEOUT_ENV_VAR, "").strip()
            if raw:
                try:
                    task_timeout = float(raw)
                except ValueError as error:
                    raise ValueError(
                        f"{TIMEOUT_ENV_VAR} must be a number of seconds, got {raw!r}"
                    ) from error
                if task_timeout <= 0:
                    raise ValueError(f"{TIMEOUT_ENV_VAR} must be positive, got {task_timeout}")
        elif task_timeout <= 0:
            raise ValueError(f"task timeout must be positive, got {task_timeout}")
        backoff_base: float | None = None
        raw = os.environ.get(BACKOFF_ENV_VAR, "").strip()
        if raw:
            try:
                backoff_base = float(raw)
            except ValueError as error:
                raise ValueError(
                    f"{BACKOFF_ENV_VAR} must be a number of seconds, got {raw!r}"
                ) from error
            if backoff_base < 0:
                raise ValueError(f"{BACKOFF_ENV_VAR} must be >= 0, got {backoff_base}")
        raw = os.environ.get(DEGRADE_ENV_VAR, "").strip().lower()
        if raw and raw not in _TRUTHY + _FALSY:
            raise ValueError(f"{DEGRADE_ENV_VAR} must be a boolean flag, got {raw!r}")
        defaults = cls()
        return cls(
            max_retries=defaults.max_retries if max_retries is None else max_retries,
            task_timeout=task_timeout,
            backoff_base=defaults.backoff_base if backoff_base is None else backoff_base,
            degrade_serial=raw not in _FALSY if raw else defaults.degrade_serial,
        )


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
    """One sweep task kept failing after every retry the policy allowed."""

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


class SweepExecutionError(RuntimeError):
    """The execution backend itself gave up (e.g. the pool kept dying)."""


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


class _Supervisor:
    """Drives one ``parallel_map_chunked`` call with failure recovery.

    One instance (and its process pool) is reused across every chunk of the
    call, so checkpointing does not pay a worker-respawn (plus numpy
    re-import) per chunk.  ``pooled=False`` (serial mode) keeps the retry
    and fault-injection behaviour without any pool.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        n_workers: int,
        policy: FailurePolicy,
        plan: FaultPlan | None,
        total: int,
        pooled: bool,
    ) -> None:
        self.fn = fn
        self.policy = policy
        self.plan = plan
        self.pooled = pooled
        self.max_workers = max(1, min(n_workers, total))
        self.pool: ProcessPoolExecutor | None = None
        self.respawns = 0
        self.degraded = False
        self.hang_suspected = False
        # Dispatch id naming this call's submit/task events in the trace;
        # None (and therefore zero per-task work) when tracing is off.
        self.dispatch = obs.next_dispatch_id() if obs.enabled() else None

    # -- pool lifecycle ----------------------------------------------------- #
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self.pool is None:
            self.pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self.pool

    def _discard_pool(self) -> None:
        """Tear the pool down hard (dead or hung workers included)."""
        if self.pool is None:
            return
        for process in list((getattr(self.pool, "_processes", None) or {}).values()):
            if process.is_alive():
                process.terminate()
        self.pool.shutdown(wait=False, cancel_futures=True)
        self.pool = None

    def close(self) -> None:
        if self.pool is None:
            return
        if self.hang_suspected:
            # A task timed out earlier: a worker may still be stuck on the
            # abandoned execution, and a graceful shutdown would join it.
            self._discard_pool()
        else:
            self.pool.shutdown(wait=True)
            self.pool = None

    def _recover_pool(self, n_incomplete: int) -> None:
        """Respawn after a pool death, or degrade/raise once out of budget."""
        self._discard_pool()
        if self.respawns < self.policy.max_pool_respawns:
            self.respawns += 1
            _STATS.pool_respawns += 1
            obs.event(
                "supervise.respawn",
                respawn=self.respawns,
                n_incomplete=n_incomplete,
            )
            _log(
                f"worker process died; respawning the pool "
                f"(respawn {self.respawns}/{self.policy.max_pool_respawns}) and "
                f"re-dispatching {n_incomplete} incomplete task(s)"
            )
            self._ensure_pool()
            return
        if not self.policy.degrade_serial:
            raise SweepExecutionError(
                f"process pool died {self.respawns + 1} time(s) and serial "
                f"degradation is disabled ({DEGRADE_ENV_VAR}=0)"
            )
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
        if self.dispatch is not None:
            # Payload size is measured with an extra serialisation, paid
            # only while tracing (the pool pickles the dispatch itself).
            with obs.span("dispatch.serialize", dispatch=self.dispatch, ordinal=base + i):
                payload = len(pickle.dumps((self.fn, chunk[i])))
                obs.add(bytes=payload)
            future = self._ensure_pool().submit(
                _run_task, self.fn, chunk[i], self.plan, base + i, True, self.dispatch
            )
            obs.event(
                "dispatch.submit", dispatch=self.dispatch, ordinal=base + i, bytes=payload
            )
            return future
        return self._ensure_pool().submit(
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
        index = 0
        while index < len(chunk):
            if results[index] is not _UNSET:
                index += 1
                continue
            future = futures[index]
            try:
                results[index] = future.result(timeout=self.policy.task_timeout)
                if self.dispatch is not None:
                    obs.event("dispatch.result", dispatch=self.dispatch, ordinal=base + index)
                index += 1
            except TimeoutError:
                future.cancel()
                self.hang_suspected = True
                _STATS.timeouts += 1
                self._before_retry(
                    base + index,
                    attempts,
                    index,
                    f"timed out after {self.policy.task_timeout:g}s",
                    task=chunk[index],
                )
                futures[index] = self._submit(chunk, base, index)
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
                    index += 1
                    continue
                self._before_retry(
                    base + index,
                    attempts,
                    index,
                    f"failed: {type(error).__name__}: {error}",
                    cause=error,
                    task=chunk[index],
                )
                futures[index] = self._submit(chunk, base, index)
        return results

    def _before_retry(
        self,
        ordinal: int,
        attempts: list[int],
        i: int,
        reason: str,
        cause: BaseException | None = None,
        task: Any = None,
    ) -> None:
        """Account one failure; sleep the backoff or raise when exhausted."""
        attempts[i] += 1
        if attempts[i] > self.policy.max_retries:
            raise SweepTaskError(ordinal, attempts[i], reason, _task_key(task)) from cause
        _STATS.retries += 1
        obs.event("supervise.retry", ordinal=ordinal, attempt=attempts[i], reason=reason)
        delay = self.policy.backoff_delay(attempts[i] - 1)
        _log(
            f"task {ordinal} {reason}; "
            f"retry {attempts[i]}/{self.policy.max_retries}"
            + (f" in {delay:g}s" if delay > 0 else "")
        )
        if delay > 0:
            time.sleep(delay)

    def _call_serial(self, task: Any, ordinal: int, attempts: int = 0) -> Any:
        """In-process execution with the same retry budget as the pool path."""
        while True:
            try:
                return _run_task(
                    self.fn, task, self.plan, ordinal, in_pool=False, trace=self.dispatch
                )
            except Exception as error:  # noqa: BLE001 — retried, then wrapped
                attempts += 1
                if attempts > self.policy.max_retries:
                    raise SweepTaskError(
                        ordinal,
                        attempts,
                        f"failed: {type(error).__name__}: {error}",
                        _task_key(task),
                    ) from error
                _STATS.retries += 1
                obs.event(
                    "supervise.retry",
                    ordinal=ordinal,
                    attempt=attempts,
                    reason=f"failed: {type(error).__name__}",
                )
                delay = self.policy.backoff_delay(attempts - 1)
                _log(
                    f"task {ordinal} failed: {type(error).__name__}: {error}; "
                    f"retry {attempts}/{self.policy.max_retries}"
                    + (f" in {delay:g}s" if delay > 0 else "")
                )
                if delay > 0:
                    time.sleep(delay)


def parallel_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    n_workers: int | None = None,
    policy: FailurePolicy | None = None,
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
        policy=policy,
        fault_plan=fault_plan,
    )


def parallel_map_chunked(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    n_workers: int | None = None,
    chunk_size: int | None = None,
    on_chunk: Callable[[int, list[_R]], None] | None = None,
    policy: FailurePolicy | None = None,
    fault_plan: FaultPlan | None = None,
) -> list[_R]:
    """:func:`parallel_map` with a completion callback after every chunk.

    ``on_chunk(start_index, chunk_results)`` fires as each ``chunk_size``
    slice of the input finishes (the sweep layer flushes its point cache
    there).  One supervised process pool is reused across all chunks, so
    checkpointing does not pay a worker-respawn (plus numpy re-import) per
    chunk.  ``policy`` (default: :meth:`FailurePolicy.from_env`) governs
    retry/timeout/degradation; ``fault_plan`` (default: ``REPRO_FAULTS``)
    enables deterministic fault injection for tests.
    """
    tasks: Sequence[_T] = list(items)
    workers = resolve_workers(n_workers)
    if policy is None:
        policy = FailurePolicy.from_env()
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
    ):
        stats_before = _STATS.snapshot() if obs.enabled() else None
        supervisor = _Supervisor(fn, workers, policy, plan, total=len(tasks), pooled=use_pool)
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
