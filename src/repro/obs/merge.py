"""Parent-side merge of per-task trace spools into one ``trace.json``.

Workers (and the parent's own root sections) each spool one checksum-stamped
file per completed :func:`repro.obs.tracer.tracing` root.  This module folds
a spool directory into a single sorted, checksum-stamped ``trace.json``:

* corrupt, torn or unstamped spool files (a worker killed mid-write cannot
  produce one — writes are atomic — but a hand-edited or disk-damaged file
  can) are quarantined to ``<name>.corrupt`` with a warning and listed in
  the merged report, never crashing the merge; a spool an earlier merge
  quarantined stays listed;
* re-executions of the same work — the supervisor's retries and timeout
  re-dispatches all carry the same ``dedup`` key — collapse to exactly one
  completed execution (completed beats errored, then earliest start wins),
  so retried spans are never double-counted;
* events from different processes interleave onto one timeline (absolute
  monotonic ``perf_counter`` timestamps) with a per-event ``pid``, and
  their within-process parent pointers are rewritten to merged ids.

Because task root spans carry a content key, traces of the same workload
under ``workers=1`` vs ``2`` merge into directly comparable reports (see
:mod:`repro.obs.report`), and :func:`diff_traces` — the ``trace-diff`` CLI
— compares their determinism digests task by task.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path
from typing import Any

from repro.obs.tracer import SPOOL_SCHEMA

__all__ = ["MERGED_SCHEMA", "diff_traces", "load_trace", "merge_trace", "task_digests"]

#: Schema tag of the merged ``trace.json``.
MERGED_SCHEMA = "repro-trace-v1"


#: The names ``tracer._write_spool`` produces (``trace-<pid>-<seq>.json``):
#: the trace-report outputs living next to the spools are not spools.
_SPOOL_GLOB = "trace-[0-9]*-[0-9]*.json"


def _read_spool(path: Path) -> dict[str, Any] | None:
    from repro.experiments.store import _quarantine, _read_record

    record = _read_record(path, "trace spool")
    if record is None:
        return None
    # Every build stamps its spools; only store artifacts from older builds
    # may lack a checksum, so an unstamped spool has been edited.
    if "checksum" not in record:
        _quarantine(path, "trace spool", "missing checksum")
        return None
    if record.get("schema") != SPOOL_SCHEMA or not isinstance(record.get("events"), list):
        _quarantine(path, "trace spool", f"unexpected schema {record.get('schema')!r}")
        return None
    return record


def _read_spools(root: Path) -> tuple[list[dict[str, Any]], int, list[str]]:
    """Every event of every intact spool under ``root``, before dedup.

    Returns the events (ids and parent pointers made directory-unique), the
    number of spools read and the sorted names of corrupt spools, including
    those an earlier merge already renamed to ``<name>.corrupt``.
    """
    events: list[dict[str, Any]] = []
    n_spools = 0
    quarantined = [
        path.name.removesuffix(".corrupt") for path in root.glob(f"{_SPOOL_GLOB}.corrupt")
    ]
    for path in sorted(path for path in root.glob(_SPOOL_GLOB) if path.is_file()):
        record = _read_spool(path)
        if record is None:
            quarantined.append(path.name)
            continue
        n_spools += 1
        pid = record.get("pid")
        seq = record.get("seq")
        local: dict[Any, str] = {}
        for entry in record["events"]:
            uid = f"{pid}-{seq}-{entry.get('id')}"
            local[entry.get("id")] = uid
            merged = dict(entry)
            merged["id"] = uid
            merged["parent"] = local.get(entry.get("parent"))
            merged["pid"] = pid
            events.append(merged)
    return events, n_spools, sorted(set(quarantined))


def merge_trace(directory: str | Path) -> dict[str, Any]:
    """Fold a spool directory into a sorted ``trace.json`` report.

    Returns the merged record (also written — checksum-stamped — to
    ``trace.json`` in the directory).  ``quarantined`` lists spool files
    that failed checksum or schema verification; ``deduped`` counts span
    subtrees dropped because a retry re-executed the same work.
    """
    from repro.experiments.store import write_json_artifact

    root = Path(directory)
    events, n_spools, quarantined = _read_spools(root)
    events, deduped = _dedup(events)
    events.sort(key=lambda entry: (entry.get("start", 0.0), str(entry.get("id"))))
    report = {
        "schema": MERGED_SCHEMA,
        "n_spools": n_spools,
        "n_events": len(events),
        "deduped": deduped,
        "quarantined": quarantined,
        "events": events,
    }
    write_json_artifact(root / "trace.json", report)
    return report


def _dedup(events: list[dict[str, Any]]) -> tuple[list[dict[str, Any]], int]:
    """Keep one execution per ``dedup`` key; drop losers with their subtrees.

    Among re-executions (same key), a completed span beats an errored one
    and the earliest start breaks ties — so a retry after a failure keeps
    the success, and a timeout twin raced by two workers keeps the first.
    """
    groups: dict[str, list[dict[str, Any]]] = {}
    for entry in events:
        key = entry.get("attrs", {}).get("dedup")
        if key is not None:
            groups.setdefault(str(key), []).append(entry)
    dropped_roots = [
        entry["id"]
        for group in groups.values()
        if len(group) > 1
        for entry in sorted(
            group,
            key=lambda e: (bool(e.get("attrs", {}).get("error")), e.get("start", 0.0)),
        )[1:]
    ]
    if not dropped_roots:
        return events, 0
    dropped: set[str] = set(dropped_roots)
    # Parents always precede children within a spool, but merged order is
    # arbitrary — iterate until the descendant set stops growing.
    while True:
        grew = False
        for entry in events:
            if entry["id"] not in dropped and entry.get("parent") in dropped:
                dropped.add(entry["id"])
                grew = True
        if not grew:
            break
    return [entry for entry in events if entry["id"] not in dropped], len(dropped_roots)


def load_trace(directory: str | Path) -> dict[str, Any] | None:
    """Reload a previously merged ``trace.json`` (``None`` if absent/corrupt)."""
    from repro.experiments.store import _read_record

    path = Path(directory) / "trace.json"
    if not path.is_file():
        return None
    record = _read_record(path, "merged trace")
    if record is None or record.get("schema") != MERGED_SCHEMA:
        return None
    return record


def task_digests(directory: str | Path) -> tuple[dict[str, dict[str, Any]], list[str]]:
    """The determinism digests of every completed task in one trace directory.

    Maps each outermost ``task`` span's ``key`` to its ``outcome`` and
    ``rng_streams`` (see :func:`repro.obs.tracer.digest_task`).  Spans are
    read before dedup, so every completed execution counts: retries and
    timeout twins of one task must agree.  Also returns the problems found,
    which no clean run has: corrupt spools and disagreeing executions.
    """
    events, _, quarantined = _read_spools(Path(directory))
    problems = [f"{name}: corrupt spool (quarantined)" for name in quarantined]
    tasks: dict[str, dict[str, Any]] = {}
    for entry in events:
        attrs = entry.get("attrs", {})
        # Only a completed outermost execution records an outcome.
        if entry.get("name") != "task" or "outcome" not in attrs:
            continue
        key = str(attrs.get("key"))
        digests = {"outcome": attrs["outcome"], "rng_streams": attrs["rng_streams"]}
        if tasks.setdefault(key, digests) != digests:
            problems.append(
                f"task {key[:16]}: two executions disagreed "
                "(outcome or RNG streams differ between processes)"
            )
    return tasks, sorted(problems)


def diff_traces(directories: Sequence[str | Path]) -> list[str]:
    """Digest-compare the task spans of several traces against the first.

    Returns a sorted list of human-readable mismatch lines; empty means the
    runs were bit-identical at every pool boundary.  Backs the
    ``trace-diff`` CLI, which asserts worker-count independence.
    """
    if len(directories) < 2:
        raise ValueError("trace-diff needs at least two trace directories")
    mismatches: list[str] = []
    runs: list[tuple[str, dict[str, dict[str, Any]]]] = []
    for directory in directories:
        tasks, problems = task_digests(directory)
        mismatches.extend(f"{directory}: {problem}" for problem in problems)
        runs.append((str(directory), tasks))
    base_name, base = runs[0]
    for name, other in runs[1:]:
        for key in sorted(set(base) - set(other)):
            mismatches.append(f"{name}: task {key[:16]} missing (present in {base_name})")
        for key in sorted(set(other) - set(base)):
            mismatches.append(f"{name}: task {key[:16]} extra (absent from {base_name})")
        for key in sorted(set(base) & set(other)):
            ours, theirs = base[key], other[key]
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
