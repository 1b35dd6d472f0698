"""Parent-side merge of per-task trace spools into one ``trace.json``.

Workers (and the parent's own root sections) each spool one checksum-stamped
file per completed :func:`repro.obs.tracer.tracing` root.  This module folds
a spool directory into a single sorted, checksum-stamped ``trace.json``:

* corrupt or torn spool files (a worker killed mid-write cannot produce one
  — writes are atomic — but a hand-edited or disk-damaged file can) are
  quarantined to ``<name>.corrupt`` with a warning and listed in the merged
  report, never crashing the merge;
* re-executions of the same work — the supervisor's retries and timeout
  re-dispatches all carry the same ``dedup`` key — collapse to exactly one
  completed execution (completed beats errored, then earliest start wins),
  so retried spans are never double-counted;
* events from different processes interleave onto one timeline (absolute
  monotonic ``perf_counter`` timestamps) with a per-event ``pid``, and
  their within-process parent pointers are rewritten to merged ids.

Because task root spans carry a content key, traces of the same workload
under ``workers=1`` vs ``2`` merge into directly comparable reports (see
:mod:`repro.obs.report`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.obs.tracer import SPOOL_SCHEMA

__all__ = ["MERGED_SCHEMA", "merge_trace", "load_trace"]

#: Schema tag of the merged ``trace.json``.
MERGED_SCHEMA = "repro-trace-v1"


def _read_spool(path: Path) -> dict[str, Any] | None:
    from repro.experiments.store import _read_record

    record = _read_record(path, "trace spool")
    if record is None:
        return None
    if record.get("schema") != SPOOL_SCHEMA or not isinstance(record.get("events"), list):
        from repro.experiments.store import _quarantine

        _quarantine(path, "trace spool", f"unexpected schema {record.get('schema')!r}")
        return None
    return record


def merge_trace(directory: str | Path) -> dict[str, Any]:
    """Fold a spool directory into a sorted ``trace.json`` report.

    Returns the merged record (also written — checksum-stamped — to
    ``trace.json`` in the directory).  ``quarantined`` lists spool files
    that failed checksum or schema verification; ``deduped`` counts span
    subtrees dropped because a retry re-executed the same work.
    """
    from repro.experiments.store import write_json_artifact

    root = Path(directory)
    events: list[dict[str, Any]] = []
    n_spools = 0
    quarantined: list[str] = []
    # Only the names _write_spool produces (trace-<pid>-<seq>.json): the
    # trace-report outputs living next to the spools are not spools.
    spool_paths = sorted(
        path for path in root.glob("trace-[0-9]*-[0-9]*.json") if path.is_file()
    )
    for path in spool_paths:
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

    events, deduped = _dedup(events)
    events.sort(key=lambda entry: (entry.get("start", 0.0), str(entry.get("id"))))
    report = {
        "schema": MERGED_SCHEMA,
        "n_spools": n_spools,
        "n_events": len(events),
        "deduped": deduped,
        "quarantined": sorted(quarantined),
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
