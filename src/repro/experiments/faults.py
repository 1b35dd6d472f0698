"""Deterministic fault injection for the supervised sweep executor.

Every recovery path of the fault-tolerant execution layer
(:mod:`repro.experiments.parallel`) is exercised through this module: a
:class:`FaultPlan` makes task *N* of a dispatched task list raise, hang, or
kill its worker process — reproducibly.  Plans are plain frozen dataclasses
(picklable, so they travel into pool workers with each task) and are enabled
through the ``REPRO_FAULTS`` environment variable, which holds a JSON
object::

    REPRO_FAULTS='{"tasks": {"3": "kill", "5": "raise"}, "state_dir": "/tmp/f"}'

* ``tasks`` targets explicit task ordinals (the index of the task in the
  dispatched list) with one fault ``kind`` each;
* ``times`` bounds how often each targeted ordinal injects (default once),
  so a retried task succeeds and recovery is observable instead of a
  livelock; the bound is enforced across *processes* through marker files
  created with ``O_CREAT | O_EXCL`` under ``state_dir``;
* ``hang_seconds`` sizes the artificial stall of ``hang`` faults.

Fault kinds:

``raise``
    the task raises :class:`InjectedFault` (a ``RuntimeError``);
``hang``
    the task stalls for ``hang_seconds`` before completing normally — under
    a supervisor timeout shorter than the stall this looks like a hung
    worker;
``kill``
    the worker process exits hard with ``os._exit`` (no cleanup, like a
    segfault or an OOM kill), breaking the process pool; outside a pool
    worker it degrades to ``raise`` so serial execution is never killed.

Because every sweep task derives all randomness from its own explicit seed,
a run that completes *under* injected faults is bit-identical to a fault
free run — which is exactly what the fault-injection tests and the CI
crash-recovery smoke assert.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = ["FAULTS_ENV_VAR", "FAULT_KINDS", "InjectedFault", "FaultPlan"]

#: Environment variable holding the JSON fault plan (empty/unset: no faults).
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: Valid fault kinds, in the order documented above.
FAULT_KINDS = ("raise", "hang", "kill")

_PLAN_FIELDS = ("tasks", "times", "hang_seconds", "state_dir")

#: Exit status of a ``kill``-faulted worker (arbitrary, but recognisable).
KILLED_WORKER_EXIT = 26


class InjectedFault(RuntimeError):
    """The exception raised by ``raise`` (and serial ``kill``) faults."""


# repro-lint: disable=RPR008 -- deliberately process-local cache of one mkdtemp
# result; cross-process fault-injection state lives in the marker *files* under
# this directory (created O_CREAT|O_EXCL), not in the variable itself.
_PROCESS_STATE_DIR: str | None = None


def _default_state_dir() -> str:
    """One shared per-process marker directory for plans without their own.

    Cached so that every sweep of a single run shares injection state (a
    fault claimed in one sweep is not re-injected by the next); tests and CI
    pass an explicit ``state_dir`` for full control.
    """
    global _PROCESS_STATE_DIR
    if _PROCESS_STATE_DIR is None:
        _PROCESS_STATE_DIR = tempfile.mkdtemp(prefix="repro-faults-")
    return _PROCESS_STATE_DIR


@dataclass(frozen=True)
class FaultPlan:
    """Bounded plan of which task ordinals fail, and how."""

    tasks: tuple[tuple[int, str], ...] = ()
    times: int = 1
    hang_seconds: float = 0.25
    state_dir: str = ""

    def __post_init__(self) -> None:
        for index, kind in self.tasks:
            if not isinstance(index, int) or isinstance(index, bool) or index < 0:
                raise ValueError(f"fault task ordinal must be a non-negative int, got {index!r}")
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}; valid: {FAULT_KINDS}")
        if self.times < 1:
            raise ValueError(f"fault times must be at least 1, got {self.times!r}")
        if self.hang_seconds <= 0.0:
            raise ValueError(f"hang_seconds must be positive, got {self.hang_seconds!r}")
        if not self.state_dir:
            object.__setattr__(self, "state_dir", _default_state_dir())

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Build a plan from the ``REPRO_FAULTS`` JSON payload."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"{FAULTS_ENV_VAR} is not valid JSON: {error}") from error
        if not isinstance(payload, dict):
            raise ValueError(f"{FAULTS_ENV_VAR} must be a JSON object, got {type(payload).__name__}")
        unknown = sorted(set(payload) - set(_PLAN_FIELDS))
        if unknown:
            raise ValueError(
                f"{FAULTS_ENV_VAR} has unknown field(s) {unknown}; valid: {list(_PLAN_FIELDS)}"
            )
        tasks = payload.pop("tasks", {})
        if not isinstance(tasks, dict):
            raise ValueError(f"{FAULTS_ENV_VAR} 'tasks' must map task ordinals to fault kinds")
        try:
            targets = tuple(sorted((int(index), kind) for index, kind in tasks.items()))
        except (TypeError, ValueError) as error:
            raise ValueError(f"{FAULTS_ENV_VAR} 'tasks' keys must be integers: {error}") from error
        return cls(tasks=targets, **payload)

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        """The plan selected by ``REPRO_FAULTS``, or ``None`` when unset."""
        text = os.environ.get(FAULTS_ENV_VAR, "").strip()
        if not text:
            return None
        return cls.parse(text)

    def kind_for(self, index: int) -> str | None:
        """Fault kind targeting task ``index``, or ``None`` when unharmed."""
        for target, kind in self.tasks:
            if target == index:
                return kind
        return None

    def _claim(self, index: int) -> bool:
        """Atomically claim one of the ``times`` injection slots of a task.

        Marker files under ``state_dir`` are the cross-process injection
        ledger: a slot claimed by any worker (even one that died right
        after) stays claimed, so a retried task eventually runs clean.
        """
        directory = Path(self.state_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for slot in range(self.times):
            try:
                fd = os.open(directory / f"task-{index}.{slot}", os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            return True
        return False

    def apply(self, index: int, in_pool: bool = True) -> None:
        """Inject this plan's fault for task ``index``, if one is due.

        Called by the execution layer immediately before the task function
        runs — in the worker process under a pool, in the parent when
        serial.  ``kill`` outside a pool worker raises instead of exiting so
        degraded-to-serial execution survives its own fault plan.
        """
        kind = self.kind_for(index)
        if kind is None or not self._claim(index):
            return
        if kind == "hang":
            time.sleep(self.hang_seconds)
            return
        if kind == "kill" and in_pool:
            os._exit(KILLED_WORKER_EXIT)
        raise InjectedFault(
            f"injected {kind!r} fault at task {index}"
            + (" (serial execution: raising instead of killing)" if kind == "kill" else "")
        )
