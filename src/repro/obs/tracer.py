"""Span tracer for the execution stack (``REPRO_TRACE``).

The static timing rule (RPR011) bans ad-hoc clock reads in library code;
this module is where timing is *allowed* to live.  When tracing is enabled,
every instrumented section records a span — a named ``perf_counter``
interval with nesting, counters and byte sizes — and every pool-boundary
task spools its span tree into one checksum-stamped file per task under the
trace directory (written through ``store.write_json_artifact``, like every
other artifact).  :func:`repro.obs.merge.merge_trace` folds a spool
directory into a sorted ``trace.json``; the ``trace-report`` CLI renders it.

The same spans carry the determinism evidence.  The outermost ``task`` span
of every pool-boundary task records sha256 digests of its payload
(``key``), of its outcome (``outcome``) and of the seed material of every
``child_rng`` stream it drew, in draw order (``rng_streams``; see
:func:`digest_task` and :func:`record_seed_material`).
:func:`repro.obs.merge.diff_traces` — the ``trace-diff`` CLI — asserts
those digests are identical across runs that differ only in worker count.

Off by default, and *dead* when off: :func:`span` returns a shared no-op
context manager after one module-global ``None`` check, and
:func:`event`/:func:`add`/:func:`record_seed_material` are the same single
check.  Timestamps are absolute
``time.perf_counter`` readings; on the platforms the reproduction targets
that clock is system-wide monotonic, so spans recorded in pool workers and
in the parent land on one merged timeline (this is how submit→start queue
wait is measured).

Enabling: set ``REPRO_TRACE=1`` (or ``true``/``yes``/``on``) to spool into
``./trace``, or set it to a directory path directly (``--trace [DIR]`` on
the CLIs does the same).  The flag is read at every :func:`tracing` root —
per pool task, per sweep, per campaign — so tests can toggle it.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from types import TracebackType
from typing import Any

__all__ = [
    "TRACE_ENV_VAR",
    "Tracer",
    "active_tracer",
    "add",
    "digest_task",
    "enabled",
    "event",
    "next_dispatch_id",
    "record_seed_material",
    "span",
    "trace_dir",
    "tracing",
]

TRACE_ENV_VAR = "REPRO_TRACE"
_TRUTHY = frozenset({"1", "true", "yes", "on"})
_FALSY = frozenset({"0", "false", "no", "off"})
_DEFAULT_DIR = "trace"

#: Schema tag of one spool file (a single :func:`tracing` root's events).
SPOOL_SCHEMA = "repro-trace-spool-v1"


def trace_dir() -> Path | None:
    """The active trace spool directory, or ``None`` when tracing is off."""
    raw = os.environ.get(TRACE_ENV_VAR, "").strip()
    if not raw or raw.lower() in _FALSY:
        return None
    if raw.lower() in _TRUTHY:
        return Path(_DEFAULT_DIR)
    return Path(raw)


class Tracer:
    """Collects one process-local tree of spans and instant events.

    Events are plain dicts (JSON-ready): ``id`` (index in this tracer),
    ``parent`` (id of the enclosing open span, or ``None``), ``name``,
    ``start`` (absolute ``perf_counter`` seconds), ``dur`` (seconds;
    ``0.0`` for instant events) and ``attrs``.  Nesting is tracked with an
    explicit stack, so self-time is computable from the parent pointers
    without timestamp heuristics.
    """

    __slots__ = ("events", "pid", "streams", "_stack")

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []
        #: Owning process: a pool worker forked while the parent was tracing
        #: inherits the parent's live tracer as dead state, and the pid
        #: mismatch is how :func:`tracing` detects (and discards) it.
        self.pid = os.getpid()
        #: Seed-material digests of the streams drawn by the outermost task
        #: running under :func:`digest_task`; ``None`` while none runs.
        self.streams: list[str] | None = None
        self._stack: list[dict[str, Any]] = []

    def begin(self, name: str, attrs: dict[str, Any]) -> dict[str, Any]:
        """Open a span; returns its (still-mutable) event record."""
        record: dict[str, Any] = {
            "id": len(self.events),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "dur": None,
            "attrs": attrs,
        }
        self.events.append(record)
        self._stack.append(record)
        return record

    def end(self, record: dict[str, Any], error: bool = False) -> None:
        """Close the innermost open span (must be ``record``)."""
        record["dur"] = time.perf_counter() - record["start"]
        if error:
            record["attrs"]["error"] = True
        popped = self._stack.pop()
        if popped is not record:  # pragma: no cover — span misuse guard
            raise RuntimeError(
                f"span {record['name']!r} closed while {popped['name']!r} was innermost"
            )

    def point(self, name: str, attrs: dict[str, Any]) -> None:
        """Record an instant (zero-duration) event under the open span."""
        self.events.append(
            {
                "id": len(self.events),
                "parent": self._stack[-1]["id"] if self._stack else None,
                "name": name,
                "start": time.perf_counter(),
                "dur": 0.0,
                "attrs": attrs,
            }
        )

    def accumulate(self, counters: dict[str, float]) -> None:
        """Add numeric counters onto the innermost open span's attrs."""
        if not self._stack:
            return
        attrs = self._stack[-1]["attrs"]
        for key, value in counters.items():
            attrs[key] = attrs.get(key, 0) + value


class _Span:
    """Context manager recording one live span on an active tracer."""

    __slots__ = ("_tracer", "_name", "_attrs", "_record")

    def __init__(self, tracer: Tracer, name: str, attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._record: dict[str, Any] | None = None

    def __enter__(self) -> "_Span":
        self._record = self._tracer.begin(self._name, self._attrs)
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        assert self._record is not None
        self._tracer.end(self._record, error=exc_type is not None)
        return False


class _NoopSpan:
    """The shared do-nothing span returned whenever tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        return False


_NOOP = _NoopSpan()

#: The tracer of the currently executing :func:`tracing` root; ``None``
#: whenever no traced section is running — which makes every hot-path hook
#: in this module one None-check.
# repro-lint: disable=RPR008 -- deliberately process-local: each process
# (parent or worker) traces the section *it* is executing and spools to its
# own per-pid file; nothing is merged through this variable across processes.
_ACTIVE: Tracer | None = None

#: Per-process spool sequence number (file-name uniqueness only; never
#: enters span content).
# repro-lint: disable=RPR008 -- process-local file-name counter, same
# reasoning as _ACTIVE above.
_SPOOL_SEQ = 0

#: Per-process dispatch counter feeding :func:`next_dispatch_id`.
# repro-lint: disable=RPR008 -- process-local identifier source; ids embed
# the pid, so two processes can never mint the same dispatch id.
_DISPATCH_SEQ = 0


def enabled() -> bool:
    """True while a traced section is executing in this process."""
    return _ACTIVE is not None


def active_tracer() -> Tracer | None:
    """The live tracer, for instrumentation that needs direct access."""
    return _ACTIVE


def span(name: str, **attrs: Any) -> _Span | _NoopSpan:
    """A context manager timing one named section (no-op when disabled).

    ``attrs`` are recorded on the span; use :func:`add` inside the block to
    accumulate counters (byte sizes, cache hits) discovered while it runs.
    """
    if _ACTIVE is None:
        return _NOOP
    return _Span(_ACTIVE, name, attrs)


def event(name: str, **attrs: Any) -> None:
    """Record an instant event under the open span (no-op when disabled)."""
    if _ACTIVE is not None:
        _ACTIVE.point(name, attrs)


def add(**counters: float) -> None:
    """Accumulate numeric counters on the innermost open span (no-op off)."""
    if _ACTIVE is not None:
        _ACTIVE.accumulate(counters)


def _digest(value: Any) -> str:
    # Lazy import: the store module sits above the obs layer.
    from repro.experiments.store import stable_key

    return stable_key(value)


def record_seed_material(seed: int, stream: tuple[int, ...]) -> None:
    """Digest one ``child_rng`` stream into the running task's record.

    Called by :func:`repro.utils.rng.child_rng` for every derived stream.
    With tracing off it is one ``None`` check; outside a task, two.
    """
    if _ACTIVE is not None and _ACTIVE.streams is not None:
        _ACTIVE.streams.append(_digest([seed, *stream]))


def digest_task(fn: Callable[[Any], Any], task: Any) -> Any:
    """Run ``fn(task)`` in the open ``task`` span, recording its digests.

    The outermost task records ``outcome`` (the digest of what ``fn``
    returned) and ``rng_streams`` (see :func:`record_seed_material`) on its
    span.  A task nested in-process inside another adds its draws to the
    outer task's list instead, so serial and pooled runs record the same
    evidence.  A task that raises records nothing.
    """
    tracer = _ACTIVE
    if tracer is None or tracer.streams is not None:
        return fn(task)
    tracer.streams = []
    try:
        outcome = fn(task)
        streams = tracer.streams
    finally:
        tracer.streams = None
    tracer._stack[-1]["attrs"].update(outcome=_digest(outcome), rng_streams=streams)
    return outcome


def next_dispatch_id() -> str:
    """A process-unique id naming one pool dispatch (parent side).

    Embedded in the parent's ``dispatch.submit`` events and carried into
    each worker task's root span, so the merge can join submit→start pairs
    — and deduplicate retried executions — without guessing from times.
    """
    global _DISPATCH_SEQ
    _DISPATCH_SEQ += 1
    return f"{os.getpid()}:{_DISPATCH_SEQ}"


@contextmanager
def tracing(name: str, dedup: str | None = None, **attrs: Any) -> Iterator[None]:
    """Run a block as a traced root section, spooling its span tree.

    Reads ``REPRO_TRACE`` on entry.  Re-entrant: when a traced section is
    already running in this process (a sweep dispatching serially inside a
    campaign, a task executing in the parent), the block becomes a plain
    nested span on the outer tracer instead of opening a second spool — so
    serial and pooled execution produce merge-compatible records.

    ``dedup`` (recorded as a span attr) identifies re-executions of the
    same work: the supervisor's retries and timeout re-dispatches carry the
    same key, and :func:`repro.obs.merge.merge_trace` keeps exactly one
    completed execution per key.  A block that raises spools nothing — the
    supervisor retries it, and only the completed execution is recorded
    (failed attempts inside an outer record stay, marked ``error``).
    """
    global _ACTIVE
    if _ACTIVE is not None and _ACTIVE.pid != os.getpid():
        # A fork-started pool worker inherits the parent's live tracer; it
        # belongs to the parent's section, so this process starts fresh.
        _ACTIVE = None
    if _ACTIVE is not None:
        span_attrs = dict(attrs)
        if dedup is not None:
            span_attrs["dedup"] = dedup
        with _Span(_ACTIVE, name, span_attrs):
            yield
        return
    directory = trace_dir()
    if directory is None:
        yield
        return
    tracer = Tracer()
    _ACTIVE = tracer
    root_attrs = dict(attrs)
    if dedup is not None:
        root_attrs["dedup"] = dedup
    record = tracer.begin(name, root_attrs)
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        tracer.end(record, error=failed)
        _ACTIVE = None
        if not failed:
            _write_spool(directory, tracer)


def _write_spool(directory: Path, tracer: Tracer) -> None:
    from repro.experiments.store import write_json_artifact

    global _SPOOL_SEQ
    directory.mkdir(parents=True, exist_ok=True)
    record = {
        "schema": SPOOL_SCHEMA,
        "pid": os.getpid(),
        "seq": _SPOOL_SEQ,
        "events": tracer.events,
    }
    # The pid/seq pair makes names collision-free across workers and across
    # the retries of one worker; names never enter merged trace content.
    write_json_artifact(directory / f"trace-{os.getpid()}-{_SPOOL_SEQ:06d}.json", record)
    _SPOOL_SEQ += 1
