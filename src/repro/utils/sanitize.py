"""Runtime determinism sanitizer (``REPRO_SANITIZE``).

The static rule RPR001 argues that child RNG streams cannot alias; this
module is the dynamic oracle that *checks* that neither RNG streams nor task
payloads depend on the worker count (a generator shared by several task
payloads is caught here, not by lint).  When sanitizing is enabled, every
pool-boundary task execution records

* a sha256 digest of the task payload,
* a sha256 digest of the task's outcome, and
* the ordered list of child-RNG seed-material digests drawn while the task
  ran (hooked into :func:`repro.utils.rng.child_rng`),

into one checksum-stamped spool file per task under the sanitize directory
(written through ``store.write_json_artifact``, like every other artifact).
:func:`merge_report` folds a spool into a sorted ``report.json``;
:func:`diff_reports` — surfaced as ``cprecycle-experiments sanitize-diff``
— asserts digest-identity between runs that differ only in worker count.
Any mismatch is a determinism bug by definition.

Enabling: set ``REPRO_SANITIZE=1`` (or ``true``/``yes``/``on``) to spool
into ``./sanitize-report``, or set it to a directory path directly.  The
flag is read per task so tests can toggle it; the per-draw hook costs one
``None`` check when disabled.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import Any

__all__ = [
    "SANITIZE_ENV_VAR",
    "diff_reports",
    "merge_report",
    "record_seed_material",
    "run_sanitized",
    "sanitize_dir",
    "task_digest",
]

SANITIZE_ENV_VAR = "REPRO_SANITIZE"
_TRUTHY = frozenset({"1", "true", "yes", "on"})
_DEFAULT_DIR = "sanitize-report"
_REPORT_SCHEMA = "repro-sanitize-report-v1"

#: Seed-material digests of the task currently executing under
#: :func:`run_sanitized`; ``None`` whenever no sanitized task is running —
#: which makes the :func:`record_seed_material` hot-path hook one None-check.
# repro-lint: disable=RPR008 -- deliberately process-local: each process
# (parent or worker) buffers the draws of the task *it* is executing and
# spools them to its own per-pid report file; nothing is ever merged through
# this variable across processes.
_TASK_STREAMS: list[str] | None = None


def sanitize_dir() -> Path | None:
    """The active sanitize spool directory, or ``None`` when disabled."""
    raw = os.environ.get(SANITIZE_ENV_VAR, "").strip()
    if not raw or raw.lower() in {"0", "false", "no", "off"}:
        return None
    if raw.lower() in _TRUTHY:
        return Path(_DEFAULT_DIR)
    return Path(raw)


def _digest(value: Any) -> str:
    # Lazy import: utils is lower in the layering than the store module.
    from repro.experiments.store import stable_key

    return stable_key(value)


def task_digest(task: Any) -> str:
    """Content digest of one task payload."""
    return _digest(task)


def record_seed_material(seed: int, stream: tuple[int, ...]) -> None:
    """Hook called by ``child_rng`` with the seed material of every stream.

    Appends a digest to the record of the task currently executing under
    :func:`run_sanitized`; outside a sanitized task (including whenever
    sanitizing is disabled) it is a single ``is None`` check.
    """
    if _TASK_STREAMS is not None:
        _TASK_STREAMS.append(_digest([seed, *stream]))


def run_sanitized(fn: Callable[[Any], Any], task: Any) -> Any:
    """Execute ``fn(task)``, spooling a sanitizer record when enabled.

    Re-entrant calls (a sanitized task dispatching nested work in-process)
    attach their draws to the outer task's record rather than opening a
    second one, so serial and pooled execution produce identical spools.
    Failed tasks spool nothing — the supervisor retries them and only the
    completed execution is recorded.
    """
    global _TASK_STREAMS
    directory = sanitize_dir()
    if directory is None or _TASK_STREAMS is not None:
        return fn(task)
    _TASK_STREAMS = []
    try:
        outcome = fn(task)
        streams = _TASK_STREAMS
    finally:
        _TASK_STREAMS = None
    record = {
        "task": task_digest(task),
        "outcome": _digest(outcome),
        "rng_streams": streams,
    }
    _write_spool(directory, record)
    return outcome


def _write_spool(directory: Path, record: dict[str, Any]) -> None:
    from repro.experiments.store import write_json_artifact

    directory.mkdir(parents=True, exist_ok=True)
    # Keyed by task digest so retries overwrite with identical content; the
    # pid suffix keeps a timeout-abandoned twin in another process from
    # racing the same file.  Filenames never enter report content.
    name = f"task-{record['task'][:16]}-{os.getpid()}.json"
    write_json_artifact(directory / name, record)


def merge_report(directory: str | Path) -> dict[str, Any]:
    """Fold a spool directory into a sorted, checksum-stamped report.

    Spool entries are verified against their embedded checksum; entries for
    the same task digest must agree bit-for-bit — a disagreement means two
    processes executed the same task with different results, which is
    itself detected nondeterminism and lands in ``conflicts``.
    """
    from repro.experiments.store import _record_checksum, write_json_artifact

    root = Path(directory)
    tasks: dict[str, dict[str, Any]] = {}
    conflicts: list[str] = []
    for path in sorted(root.glob("task-*.json")):
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            conflicts.append(f"{path.name}: unreadable spool entry ({error})")
            continue
        stamp = record.get("checksum")
        if stamp != _record_checksum(record):
            conflicts.append(f"{path.name}: checksum mismatch (corrupt spool entry)")
            continue
        payload = {
            "outcome": record.get("outcome"),
            "rng_streams": record.get("rng_streams", []),
        }
        key = str(record.get("task"))
        previous = tasks.get(key)
        if previous is not None and previous != payload:
            conflicts.append(
                f"task {key[:16]}: two executions disagreed "
                "(outcome or RNG streams differ between processes)"
            )
        tasks[key] = payload
    report = {
        "schema": _REPORT_SCHEMA,
        "n_tasks": len(tasks),
        "tasks": {key: tasks[key] for key in sorted(tasks)},
        "conflicts": sorted(conflicts),
    }
    write_json_artifact(root / "report.json", report)
    return report


def diff_reports(directories: Sequence[str | Path]) -> list[str]:
    """Digest-compare sanitizer spools pairwise against the first.

    Returns a sorted list of human-readable mismatch lines; empty means the
    runs were bit-identical at every pool boundary.  Used by the
    ``sanitize-diff`` CLI to assert worker-count-independence.
    """
    if len(directories) < 2:
        raise ValueError("sanitize-diff needs at least two report directories")
    reports = [(str(directory), merge_report(directory)) for directory in directories]
    mismatches: list[str] = []
    for name, report in reports:
        for conflict in report["conflicts"]:
            mismatches.append(f"{name}: {conflict}")
    base_name, base = reports[0]
    base_tasks: dict[str, dict[str, Any]] = base["tasks"]
    for name, report in reports[1:]:
        other_tasks: dict[str, dict[str, Any]] = report["tasks"]
        for key in sorted(set(base_tasks) - set(other_tasks)):
            mismatches.append(f"{name}: task {key[:16]} missing (present in {base_name})")
        for key in sorted(set(other_tasks) - set(base_tasks)):
            mismatches.append(f"{name}: task {key[:16]} extra (absent from {base_name})")
        for key in sorted(set(base_tasks) & set(other_tasks)):
            ours, theirs = base_tasks[key], other_tasks[key]
            if ours["outcome"] != theirs["outcome"]:
                mismatches.append(
                    f"{name}: task {key[:16]} outcome digest diverged from {base_name}"
                )
            if ours["rng_streams"] != theirs["rng_streams"]:
                mismatches.append(
                    f"{name}: task {key[:16]} RNG stream digests diverged from "
                    f"{base_name} ({len(ours['rng_streams'])} vs "
                    f"{len(theirs['rng_streams'])} draws)"
                )
    return sorted(mismatches)
