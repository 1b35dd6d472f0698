"""Rendering of merged traces: tables, wallclock breakdown, Chrome export.

Backs the ``cprecycle-experiments trace-report DIR [DIR...]`` subcommand:

* merges each directory's spools (:func:`repro.obs.merge.merge_trace`) into
  ``trace.json`` and writes a Chrome-``chrome://tracing``-compatible
  ``trace-chrome.json`` next to it (load either in ``chrome://tracing`` or
  Perfetto for a flamegraph view);
* renders a per-span-name self-time/cumulative-time table (self time is
  exact — spans carry parent pointers, no timestamp heuristics);
* prints a per-worker wallclock breakdown — serialize (parent-side pickle
  time), compute (task span duration) and merge (cache flush / result
  reassembly) tile the process window, and the median and maximum queue
  latency (``dispatch.submit`` → worker task start, joined on the dispatch
  id) of the worker's tasks show how long work waited for it;
* folds the supervisor's parent-only recovery counters
  (``supervise.stats`` events) into a recovery section.

With several directories the footer compares their totals side by side, so
``workers=1`` vs ``2`` overhead is one command away.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path
from typing import Any

from repro.obs.merge import merge_trace

__all__ = [
    "aggregate_spans",
    "chrome_trace",
    "format_span_table",
    "recovery_totals",
    "trace_report_main",
    "wallclock_breakdown",
]


def aggregate_spans(report: dict[str, Any]) -> list[dict[str, Any]]:
    """Per span-name rows: count, cumulative seconds, self seconds.

    Sorted by descending self time.  Instant events (zero duration) are
    excluded; a span's self time is its duration minus its direct
    children's durations.
    """
    events = [e for e in report.get("events", []) if e.get("dur")]
    children_time: dict[str, float] = {}
    for entry in events:
        parent = entry.get("parent")
        if parent is not None:
            children_time[parent] = children_time.get(parent, 0.0) + float(entry["dur"])
    totals: dict[str, dict[str, float]] = {}
    for entry in events:
        row = totals.setdefault(entry["name"], {"count": 0, "total": 0.0, "self": 0.0})
        row["count"] += 1
        row["total"] += float(entry["dur"])
        row["self"] += max(0.0, float(entry["dur"]) - children_time.get(entry["id"], 0.0))
    return sorted(
        (
            {"name": name, "count": int(row["count"]), "total": row["total"], "self": row["self"]}
            for name, row in totals.items()
        ),
        key=lambda row: (-row["self"], row["name"]),
    )


def format_span_table(rows: list[dict[str, Any]]) -> str:
    """The self/cumulative table, widest-self first."""
    lines = [f"{'span':<28} {'count':>6} {'total s':>10} {'self s':>10}"]
    for row in rows:
        lines.append(
            f"{row['name']:<28} {row['count']:>6} {row['total']:>10.4f} {row['self']:>10.4f}"
        )
    return "\n".join(lines)


def wallclock_breakdown(report: dict[str, Any]) -> dict[str, Any]:
    """Per-process serialize/compute/merge split of the traced run.

    ``tasks`` holds one row per executed pool-boundary task: queue wait
    (parent ``dispatch.submit`` → worker span start), compute (task span
    duration) and the parent-side serialize cost of its dispatch.  Waits
    are only defined for tasks whose submit event is in the trace (serial
    in-process tasks have no submit and report a wait of ``0.0``).

    Each process row reports the median (``wait_p50``) and maximum
    (``wait_max``) wait of its tasks, never their sum: a chunk submits all
    of its tasks at once, so the waits of tasks queued behind one worker
    overlap in time and their sum can exceed the window many times over.
    """
    events = report.get("events", [])
    submits: dict[tuple[Any, Any], list[float]] = {}
    serialize_bytes: dict[tuple[Any, Any], float] = {}
    for entry in events:
        attrs = entry.get("attrs", {})
        if entry["name"] == "dispatch.submit":
            submits.setdefault(
                (attrs.get("dispatch"), attrs.get("ordinal")), []
            ).append(float(entry["start"]))

    tasks: list[dict[str, Any]] = []
    per_pid: dict[Any, dict[str, Any]] = {}

    def pid_row(pid: Any) -> dict[str, Any]:
        return per_pid.setdefault(
            pid,
            {
                "first": None,
                "last": None,
                "n_tasks": 0,
                "compute": 0.0,
                "waits": [],
                "serialize": 0.0,
                "merge": 0.0,
            },
        )

    for entry in events:
        pid = entry.get("pid")
        row = pid_row(pid)
        start = float(entry.get("start", 0.0))
        end = start + float(entry.get("dur") or 0.0)
        row["first"] = start if row["first"] is None else min(row["first"], start)
        row["last"] = end if row["last"] is None else max(row["last"], end)
        attrs = entry.get("attrs", {})
        if entry["name"] == "dispatch.serialize" and entry.get("dur") is not None:
            row["serialize"] += float(entry["dur"])
            serialize_bytes[(attrs.get("dispatch"), attrs.get("ordinal"))] = float(
                attrs.get("bytes", 0)
            )
        elif entry["name"] in ("sweep.flush", "sweep.merge") and entry.get("dur") is not None:
            row["merge"] += float(entry["dur"])

    for entry in events:
        if entry["name"] != "task" or entry.get("dur") is None:
            continue
        attrs = entry.get("attrs", {})
        if attrs.get("error"):
            continue
        pid = entry.get("pid")
        key = (attrs.get("dispatch"), attrs.get("ordinal"))
        start = float(entry["start"])
        # A retried dispatch submits the same ordinal several times; the
        # surviving task execution pairs with the latest submit preceding it.
        matching = [s for s in submits.get(key, []) if s <= start]
        wait = max(0.0, start - max(matching)) if matching else 0.0
        compute = float(entry["dur"])
        row = pid_row(pid)
        row["n_tasks"] += 1
        row["compute"] += compute
        row["waits"].append(wait)
        tasks.append(
            {
                "dispatch": attrs.get("dispatch"),
                "ordinal": attrs.get("ordinal"),
                "key": attrs.get("key"),
                "pid": pid,
                "wait": wait,
                "compute": compute,
                "bytes": serialize_bytes.get(key, 0.0),
            }
        )

    for row in per_pid.values():
        window = (row["last"] - row["first"]) if row["first"] is not None else 0.0
        row["window"] = window
        accounted = row["compute"] + row["serialize"] + row["merge"]
        row["other"] = max(0.0, window - accounted)
        row["wait_p50"], row["wait_max"] = _latency(row.pop("waits"))
        del row["first"], row["last"]

    starts = [float(e["start"]) for e in events]
    ends = [float(e["start"]) + float(e.get("dur") or 0.0) for e in events]
    return {
        "wallclock": (max(ends) - min(starts)) if events else 0.0,
        "per_pid": {str(pid): row for pid, row in sorted(per_pid.items(), key=lambda p: str(p[0]))},
        "tasks": sorted(tasks, key=lambda t: (str(t["dispatch"]), str(t["ordinal"]))),
    }


def _latency(waits: list[float]) -> tuple[float, float]:
    """Median and maximum of per-task queue waits (zeros when there are none)."""
    return (statistics.median(waits), max(waits)) if waits else (0.0, 0.0)


def recovery_totals(report: dict[str, Any]) -> dict[str, int]:
    """Summed supervisor recovery counters folded into the trace."""
    totals: dict[str, int] = {}
    for entry in report.get("events", []):
        if entry["name"] != "supervise.stats":
            continue
        for key, value in entry.get("attrs", {}).items():
            if isinstance(value, (int, float)):
                totals[key] = totals.get(key, 0) + int(value)
    return totals


def chrome_trace(report: dict[str, Any]) -> dict[str, Any]:
    """``chrome://tracing`` / Perfetto event export of a merged trace."""
    events = report.get("events", [])
    t0 = min((float(e["start"]) for e in events), default=0.0)
    trace_events = [
        {
            "name": entry["name"],
            "ph": "X" if entry.get("dur") else "i",
            "ts": round((float(entry["start"]) - t0) * 1e6, 1),
            "dur": round(float(entry.get("dur") or 0.0) * 1e6, 1),
            "pid": entry.get("pid"),
            "tid": entry.get("pid"),
            "args": entry.get("attrs", {}),
        }
        for entry in events
    ]
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def _format_breakdown(breakdown: dict[str, Any]) -> str:
    lines = [
        f"wallclock {breakdown['wallclock']:.4f}s across "
        f"{len(breakdown['per_pid'])} process(es), {len(breakdown['tasks'])} task(s)"
    ]
    for pid, row in breakdown["per_pid"].items():
        parts = [f"window {row['window']:.4f}s"]
        if row["n_tasks"]:
            parts.append(f"compute {row['compute']:.4f}s over {row['n_tasks']} task(s)")
            parts.append(f"wait p50 {row['wait_p50']:.4f}s max {row['wait_max']:.4f}s")
        if row["serialize"]:
            parts.append(f"serialize {row['serialize']:.4f}s")
        if row["merge"]:
            parts.append(f"merge {row['merge']:.4f}s")
        parts.append(f"other {row['other']:.4f}s")
        lines.append(f"  pid {pid}: " + "  ".join(parts))
    return "\n".join(lines)


def trace_report_main(argv: list[str]) -> int:
    """``cprecycle-experiments trace-report DIR [DIR...]``.

    Merges each ``REPRO_TRACE`` spool directory into ``trace.json`` +
    ``trace-chrome.json`` and prints the span table, wallclock breakdown
    and recovery counters; with several directories a totals comparison
    follows.  Exit codes mirror ``trace-diff``: 0 ok, 1 when a directory
    holds no trace spools (or only corrupt ones), 2 usage error.
    """
    from repro.experiments.store import write_json_artifact

    prog = "cprecycle-experiments trace-report"
    if any(flag in argv for flag in ("-h", "--help")):
        print(f"usage: {prog} DIR [DIR...]")
        print("  merge REPRO_TRACE spool directories and print span/wallclock reports")
        return 0
    directories = [Path(raw) for raw in argv]
    if not directories:
        print(f"{prog}: need at least one trace spool directory", file=sys.stderr)
        return 2
    missing = [directory for directory in directories if not directory.is_dir()]
    if missing:
        for directory in missing:
            print(f"{prog}: not a directory: {directory}", file=sys.stderr)
        return 2

    failures = 0
    comparison: list[tuple[str, dict[str, Any]]] = []
    for directory in directories:
        report = merge_trace(directory)
        if not report["events"]:
            print(f"{prog}: no trace spools found under {directory}", file=sys.stderr)
            failures += 1
            continue
        chrome_path = write_json_artifact(directory / "trace-chrome.json", chrome_trace(report))
        breakdown = wallclock_breakdown(report)
        comparison.append((str(directory), breakdown))
        print(f"== {directory} ==")
        print(
            f"{report['n_spools']} spool(s), {report['n_events']} event(s), "
            f"{report['deduped']} retry subtree(s) deduplicated"
            + (f", {len(report['quarantined'])} spool(s) quarantined" if report["quarantined"] else "")
        )
        print(format_span_table(aggregate_spans(report)))
        print(_format_breakdown(breakdown))
        recovery = recovery_totals(report)
        if any(recovery.values()):
            print("recovery: " + ", ".join(f"{k}={v}" for k, v in sorted(recovery.items())))
        print(f"artifacts: {directory / 'trace.json'}  {chrome_path}")
        print()

    if len(comparison) > 1:
        print("== comparison ==")
        print(
            f"{'directory':<32} {'wallclock s':>12} {'compute s':>10} "
            f"{'wait p50 s':>10} {'wait max s':>10} {'tasks':>6}"
        )
        for name, breakdown in comparison:
            compute = sum(row["compute"] for row in breakdown["per_pid"].values())
            wait_p50, wait_max = _latency([task["wait"] for task in breakdown["tasks"]])
            print(
                f"{name:<32} {breakdown['wallclock']:>12.4f} {compute:>10.4f} "
                f"{wait_p50:>10.4f} {wait_max:>10.4f} {len(breakdown['tasks']):>6}"
            )
    return 1 if failures else 0
