"""Observability layer (``repro.obs``): tracer, spool/merge, reports.

Covers the acceptance criteria of the tracing subsystem: disabled tracing
is a true no-op (shared noop span, no files), traced sections spool one
checksum-stamped file per root and merge onto a single timeline, retried
executions never double-count (dedup keys), torn spool files are
quarantined without crashing the merge, and the wallclock breakdown's
per-process accounting (compute + serialize + merge + other) exactly tiles
each process's active window.
"""

import json
import warnings
from pathlib import Path

import pytest

from repro import obs
from repro.experiments import parallel
from repro.experiments.faults import FaultPlan
from repro.experiments.parallel import (
    FailurePolicy,
    parallel_map,
    reset_supervisor_stats,
    supervisor_stats,
)
from repro.experiments.store import write_json_artifact
from repro.experiments.sweeps import execute_points
from repro.obs import TRACE_ENV_VAR, trace_dir, tracing
from repro.obs.merge import MERGED_SCHEMA, load_trace, merge_trace
from repro.obs.progress import PROGRESS_ENV_VAR, ProgressReporter, progress_enabled
from repro.obs.report import (
    aggregate_spans,
    chrome_trace,
    recovery_totals,
    trace_report_main,
    wallclock_breakdown,
)
from repro.obs.tracer import SPOOL_SCHEMA

#: Zero-delay retries: backoff timing is policy, not behaviour under test.
FAST = FailurePolicy(backoff_base=0.0)


@pytest.fixture(autouse=True)
def _trace_off(monkeypatch):
    monkeypatch.delenv(TRACE_ENV_VAR, raising=False)
    monkeypatch.delenv(PROGRESS_ENV_VAR, raising=False)
    reset_supervisor_stats()
    yield
    reset_supervisor_stats()


def _spools(directory):
    return sorted(Path(directory).glob("trace-*.json"))


def _square(value):
    return {"squared": value * value}


# --------------------------------------------------------------------------- #
# Activation and the disabled fast path                                       #
# --------------------------------------------------------------------------- #
class TestActivation:
    def test_unset_and_falsy_mean_off(self, monkeypatch):
        assert trace_dir() is None
        for raw in ("0", "false", "no", "off", "", "  "):
            monkeypatch.setenv(TRACE_ENV_VAR, raw)
            assert trace_dir() is None

    def test_truthy_means_default_dir(self, monkeypatch):
        for raw in ("1", "true", "YES", "on"):
            monkeypatch.setenv(TRACE_ENV_VAR, raw)
            assert trace_dir() == Path("trace")

    def test_other_values_are_a_directory(self, monkeypatch):
        monkeypatch.setenv(TRACE_ENV_VAR, "/tmp/my-trace")
        assert trace_dir() == Path("/tmp/my-trace")

    def test_disabled_hooks_are_inert(self, tmp_path):
        assert not obs.enabled()
        # One shared no-op span instance: the disabled path allocates nothing.
        assert obs.span("anything", n=1) is obs.span("other")
        obs.event("never.recorded", x=1)
        obs.add(count=1)
        with tracing("root", key="value"):
            pass
        assert _spools(tmp_path) == [] and _spools("trace") == []

    def test_disabled_run_leaves_no_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert execute_points(_square, [1, 2, 3]) == [{"squared": v} for v in (1, 4, 9)]
        assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------------- #
# Traced roots and spooling                                                   #
# --------------------------------------------------------------------------- #
class TestTracingRoots:
    def test_root_spools_span_tree(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path))
        with tracing("outer", label="x"):
            assert obs.enabled()
            with obs.span("inner", n=3):
                obs.add(bytes=10)
                obs.add(bytes=32)
                obs.event("tick", at=1)
        assert not obs.enabled()
        files = _spools(tmp_path)
        assert len(files) == 1
        record = json.loads(files[0].read_text())
        assert record["schema"] == SPOOL_SCHEMA
        by_name = {entry["name"]: entry for entry in record["events"]}
        assert by_name["outer"]["parent"] is None
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["tick"]["parent"] == by_name["inner"]["id"]
        assert by_name["inner"]["attrs"] == {"n": 3, "bytes": 42}
        assert by_name["tick"]["dur"] == 0.0
        assert by_name["outer"]["dur"] >= by_name["inner"]["dur"] >= 0.0

    def test_reentrant_root_becomes_nested_span(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path))
        with tracing("outer"):
            with tracing("nested", dedup="d/0"):
                pass
        files = _spools(tmp_path)
        assert len(files) == 1  # one spool for the whole section
        names = [e["name"] for e in json.loads(files[0].read_text())["events"]]
        assert names == ["outer", "nested"]

    def test_failed_root_spools_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path))
        with pytest.raises(ValueError):
            with tracing("doomed"):
                raise ValueError("injected")
        assert _spools(tmp_path) == []
        assert not obs.enabled()  # active tracer was torn down

    def test_failed_inner_span_marked_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path))
        with tracing("root"):
            with pytest.raises(ValueError):
                with obs.span("attempt", ordinal=1):
                    raise ValueError("injected")
        record = json.loads(_spools(tmp_path)[0].read_text())
        attempt = next(e for e in record["events"] if e["name"] == "attempt")
        assert attempt["attrs"]["error"] is True

    def test_dispatch_ids_are_process_unique(self):
        a, b = obs.next_dispatch_id(), obs.next_dispatch_id()
        assert a != b
        assert all(":" in value for value in (a, b))


# --------------------------------------------------------------------------- #
# Merge: timeline, dedup, quarantine                                          #
# --------------------------------------------------------------------------- #
def _spool_file(directory, pid, seq, events):
    record = {"schema": SPOOL_SCHEMA, "pid": pid, "seq": seq, "events": events}
    return write_json_artifact(Path(directory) / f"trace-{pid}-{seq:06d}.json", record)


def _task_events(start, *, dedup, error=False, children=()):
    attrs = {"dedup": dedup}
    if error:
        attrs["error"] = True
    events = [
        {"id": 0, "parent": None, "name": "task", "start": start, "dur": 1.0, "attrs": attrs}
    ]
    for offset, name in enumerate(children):
        events.append(
            {
                "id": offset + 1,
                "parent": 0,
                "name": name,
                "start": start + 0.1 * (offset + 1),
                "dur": 0.1,
                "attrs": {},
            }
        )
    return events


class TestMerge:
    def test_merges_spools_onto_one_sorted_timeline(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path))
        with tracing("first"):
            with obs.span("work"):
                pass
        with tracing("second"):
            pass
        report = merge_trace(tmp_path)
        assert report["schema"] == MERGED_SCHEMA
        assert report["n_spools"] == 2 and report["quarantined"] == []
        starts = [entry["start"] for entry in report["events"]]
        assert starts == sorted(starts)
        # Parent pointers survive the id rewrite.
        by_name = {entry["name"]: entry for entry in report["events"]}
        assert by_name["work"]["parent"] == by_name["first"]["id"]
        assert all("pid" in entry for entry in report["events"])
        assert load_trace(tmp_path)["n_events"] == report["n_events"]

    def test_retry_executions_collapse_to_one(self, tmp_path):
        # Two completed executions of the same work (a timeout twin): the
        # earlier one wins, the loser's whole subtree is dropped.
        _spool_file(tmp_path, 100, 0, _task_events(10.0, dedup="d/0", children=("inner",)))
        _spool_file(tmp_path, 200, 0, _task_events(11.0, dedup="d/0", children=("inner",)))
        report = merge_trace(tmp_path)
        tasks = [e for e in report["events"] if e["name"] == "task"]
        assert len(tasks) == 1 and tasks[0]["start"] == 10.0
        assert report["deduped"] == 1
        assert sum(1 for e in report["events"] if e["name"] == "inner") == 1

    def test_completed_beats_errored_regardless_of_order(self, tmp_path):
        _spool_file(tmp_path, 100, 0, _task_events(10.0, dedup="d/1", error=True))
        _spool_file(tmp_path, 200, 0, _task_events(12.0, dedup="d/1"))
        report = merge_trace(tmp_path)
        tasks = [e for e in report["events"] if e["name"] == "task"]
        assert len(tasks) == 1
        assert not tasks[0]["attrs"].get("error") and tasks[0]["start"] == 12.0

    def test_torn_spool_is_quarantined_not_fatal(self, tmp_path):
        _spool_file(tmp_path, 100, 0, _task_events(10.0, dedup="d/0"))
        # A worker killed mid-run leaves no spool (writes are atomic), but a
        # damaged disk or hand-edited file can still present a torn record.
        torn = tmp_path / "trace-999-000000.json"
        torn.write_text('{"schema": "repro-trace-spool-v1", "events": [')
        with pytest.warns(RuntimeWarning, match="corrupt"):
            report = merge_trace(tmp_path)
        assert report["quarantined"] == ["trace-999-000000.json"]
        assert (tmp_path / "trace-999-000000.json.corrupt").is_file()
        assert not torn.exists()
        assert report["n_spools"] == 1 and report["n_events"] == 1

    def test_checksum_mismatch_is_quarantined(self, tmp_path):
        path = _spool_file(tmp_path, 100, 0, _task_events(10.0, dedup="d/0"))
        record = json.loads(path.read_text())
        record["events"][0]["dur"] = 99.0  # tamper without restamping
        path.write_text(json.dumps(record))
        with pytest.warns(RuntimeWarning, match="corrupt"):
            report = merge_trace(tmp_path)
        assert report["quarantined"] == [path.name]
        assert report["n_events"] == 0

    def test_wrong_schema_is_quarantined(self, tmp_path):
        write_json_artifact(
            tmp_path / "trace-1-000000.json", {"schema": "something-else", "events": []}
        )
        with pytest.warns(RuntimeWarning):
            report = merge_trace(tmp_path)
        assert report["quarantined"] == ["trace-1-000000.json"]


# --------------------------------------------------------------------------- #
# Report: span table, wallclock breakdown, recovery, Chrome export            #
# --------------------------------------------------------------------------- #
class TestReport:
    def test_self_time_subtracts_direct_children(self):
        report = {
            "events": [
                {"id": "a", "parent": None, "name": "outer", "start": 0.0, "dur": 10.0,
                 "attrs": {}},
                {"id": "b", "parent": "a", "name": "inner", "start": 1.0, "dur": 4.0,
                 "attrs": {}},
                {"id": "c", "parent": "a", "name": "inner", "start": 6.0, "dur": 3.0,
                 "attrs": {}},
            ]
        }
        rows = {row["name"]: row for row in aggregate_spans(report)}
        assert rows["outer"]["self"] == pytest.approx(3.0)  # 10 - (4 + 3)
        assert rows["inner"]["total"] == pytest.approx(7.0)
        assert rows["inner"]["count"] == 2

    def test_breakdown_joins_submit_to_task_start(self):
        report = {
            "events": [
                {"id": "s", "parent": None, "name": "dispatch.submit", "start": 1.0,
                 "dur": 0.0, "attrs": {"dispatch": "p:1", "ordinal": 0}, "pid": 1},
                {"id": "z", "parent": None, "name": "dispatch.serialize", "start": 0.5,
                 "dur": 0.2, "attrs": {"dispatch": "p:1", "ordinal": 0, "bytes": 128},
                 "pid": 1},
                {"id": "t", "parent": None, "name": "task", "start": 3.0, "dur": 2.0,
                 "attrs": {"dispatch": "p:1", "ordinal": 0}, "pid": 2},
            ]
        }
        breakdown = wallclock_breakdown(report)
        (task,) = breakdown["tasks"]
        assert task["wait"] == pytest.approx(2.0)  # submit at 1.0, start at 3.0
        assert task["compute"] == pytest.approx(2.0)
        assert task["bytes"] == 128

    def test_breakdown_retried_dispatch_uses_latest_preceding_submit(self):
        # The same ordinal was submitted twice (a retry); the surviving task
        # pairs with the resubmit, not the original, so wait is not inflated.
        report = {
            "events": [
                {"id": "s1", "parent": None, "name": "dispatch.submit", "start": 1.0,
                 "dur": 0.0, "attrs": {"dispatch": "p:1", "ordinal": 0}, "pid": 1},
                {"id": "s2", "parent": None, "name": "dispatch.submit", "start": 5.0,
                 "dur": 0.0, "attrs": {"dispatch": "p:1", "ordinal": 0}, "pid": 1},
                {"id": "t", "parent": None, "name": "task", "start": 6.0, "dur": 1.0,
                 "attrs": {"dispatch": "p:1", "ordinal": 0}, "pid": 2},
            ]
        }
        (task,) = wallclock_breakdown(report)["tasks"]
        assert task["wait"] == pytest.approx(1.0)

    def test_breakdown_reports_queue_latency_not_summed_wait(self):
        # One chunk submits four tasks at once and a single worker runs them
        # back to back, so each queues behind the ones before it: summed, the
        # waits (6.4 s) would exceed the worker's 4.0 s window.
        submits = [
            {"id": f"s{i}", "parent": None, "name": "dispatch.submit", "start": 0.0,
             "dur": 0.0, "attrs": {"dispatch": "p:1", "ordinal": i}, "pid": 1}
            for i in range(4)
        ]
        tasks = [
            {"id": f"t{i}", "parent": None, "name": "task", "start": 0.1 + i, "dur": 1.0,
             "attrs": {"dispatch": "p:1", "ordinal": i}, "pid": 2}
            for i in range(4)
        ]
        breakdown = wallclock_breakdown({"events": submits + tasks})
        assert [task["wait"] for task in breakdown["tasks"]] == pytest.approx(
            [0.1, 1.1, 2.1, 3.1]
        )
        worker = breakdown["per_pid"]["2"]
        assert worker["window"] == pytest.approx(4.0)
        assert worker["wait_p50"] == pytest.approx(1.6)
        assert worker["wait_max"] == pytest.approx(3.1)
        for row in breakdown["per_pid"].values():
            for figure in ("compute", "wait_p50", "wait_max", "serialize", "merge", "other"):
                assert row[figure] <= row["window"] + 1e-9, (figure, row)

    def test_breakdown_accounting_tiles_process_window(self):
        report = {
            "events": [
                {"id": "t1", "parent": None, "name": "task", "start": 0.0, "dur": 2.0,
                 "attrs": {"dispatch": "p:1", "ordinal": 0}, "pid": 2},
                {"id": "t2", "parent": None, "name": "task", "start": 3.0, "dur": 4.0,
                 "attrs": {"dispatch": "p:1", "ordinal": 1}, "pid": 2},
            ]
        }
        row = wallclock_breakdown(report)["per_pid"]["2"]
        # window (7.0) = compute (6.0) + serialize + merge + other (the 1.0 gap).
        assert row["window"] == pytest.approx(
            row["compute"] + row["serialize"] + row["merge"] + row["other"]
        )
        assert row["other"] == pytest.approx(1.0)

    def test_recovery_totals_sum_stats_events(self):
        report = {
            "events": [
                {"id": "a", "parent": None, "name": "supervise.stats", "start": 0.0,
                 "dur": 0.0, "attrs": {"retries": 2, "timeouts": 0}},
                {"id": "b", "parent": None, "name": "supervise.stats", "start": 1.0,
                 "dur": 0.0, "attrs": {"retries": 1, "pool_respawns": 1}},
            ]
        }
        assert recovery_totals(report) == {"retries": 3, "timeouts": 0, "pool_respawns": 1}

    def test_chrome_export_shapes(self):
        report = {
            "events": [
                {"id": "a", "parent": None, "name": "outer", "start": 5.0, "dur": 1.0,
                 "attrs": {"n": 2}, "pid": 7},
                {"id": "b", "parent": "a", "name": "tick", "start": 5.5, "dur": 0.0,
                 "attrs": {}, "pid": 7},
            ]
        }
        export = chrome_trace(report)
        span, instant = export["traceEvents"]
        assert span["ph"] == "X" and span["ts"] == 0.0 and span["dur"] == 1e6
        assert instant["ph"] == "i" and instant["ts"] == pytest.approx(5e5)
        assert span["pid"] == span["tid"] == 7 and span["args"] == {"n": 2}


# --------------------------------------------------------------------------- #
# End-to-end: traced sweeps, fault injection, the trace-report CLI            #
# --------------------------------------------------------------------------- #
class TestTracedExecution:
    def test_serial_and_pooled_traces_merge_together(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path))
        serial = execute_points(_square, [1, 2, 3, 4], n_workers=1)
        pooled = execute_points(_square, [1, 2, 3, 4], n_workers=2)
        assert serial == pooled  # tracing never changes results
        report = merge_trace(tmp_path)
        names = {entry["name"] for entry in report["events"]}
        assert {"sweep.execute_points", "parallel.map", "task"} <= names
        # Pooled mode adds the dispatch instrumentation.
        assert {"dispatch.serialize", "dispatch.submit", "dispatch.result"} <= names
        tasks = [e for e in report["events"] if e["name"] == "task"]
        assert len(tasks) == 8  # 4 serial + 4 pooled, distinct dispatch ids
        assert len({t["attrs"]["dedup"] for t in tasks}) == 8

    def test_pooled_breakdown_accounts_worker_tasks(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path))
        parallel_map(_square, list(range(6)), n_workers=2, policy=FAST)
        report = merge_trace(tmp_path)
        breakdown = wallclock_breakdown(report)
        assert len(breakdown["tasks"]) == 6
        for task in breakdown["tasks"]:
            assert task["wait"] >= 0.0 and task["compute"] > 0.0 and task["bytes"] > 0
        # Workers spool their own sections: more than one pid on the timeline.
        assert len(breakdown["per_pid"]) >= 2
        for row in breakdown["per_pid"].values():
            assert row["window"] >= 0.0 and row["other"] >= 0.0

    def test_retried_faults_do_not_double_count_spans(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path))
        plan = FaultPlan(
            tasks=((1, "raise"),), state_dir=str(tmp_path / "fault-state")
        )
        results = parallel_map(
            _square, list(range(4)), n_workers=2, policy=FAST, fault_plan=plan
        )
        assert results == [_square(v) for v in range(4)]
        report = merge_trace(tmp_path)
        tasks = [e for e in report["events"] if e["name"] == "task"]
        # The faulted attempt raised, so its root spooled nothing; exactly one
        # completed execution per ordinal survives the merge.
        assert len(tasks) == 4
        assert len({t["attrs"]["dedup"] for t in tasks}) == 4
        names = [e["name"] for e in report["events"]]
        assert "supervise.retry" in names
        stats = recovery_totals(report)
        assert stats["retries"] >= 1
        assert supervisor_stats().retries >= 1  # satellites agree

    def test_killed_worker_trace_still_complete(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path))
        plan = FaultPlan(
            tasks=((2, "kill"),), state_dir=str(tmp_path / "fault-state")
        )
        results = parallel_map(
            _square, list(range(5)), n_workers=2, policy=FAST, fault_plan=plan
        )
        assert results == [_square(v) for v in range(5)]
        report = merge_trace(tmp_path)
        tasks = [e for e in report["events"] if e["name"] == "task"]
        # The killed worker never spooled its partial section; the respawned
        # execution provides the one completed span per ordinal.
        assert len(tasks) == 5
        assert report["quarantined"] == []
        assert recovery_totals(report).get("pool_respawns", 0) >= 1

    def test_traced_campaign_records_rounds_and_cells(self, tmp_path, monkeypatch):
        from repro.api import CampaignExperiment, CampaignSpec, PrecisionSpec
        from repro.campaigns import run_campaign

        trace = tmp_path / "trace"
        monkeypatch.setenv(TRACE_ENV_VAR, str(trace))
        spec = CampaignSpec(
            name="trace-check",
            experiments=(CampaignExperiment(builtin="fig11"),),
            precision=PrecisionSpec(ci_halfwidth_pct=40.0, min_packets=2, growth=2.0),
            profile="quick",
        )
        run_campaign(spec, tmp_path / "ws")
        report = merge_trace(trace)
        names = {entry["name"] for entry in report["events"]}
        assert {"campaign", "campaign.round", "campaign.cell", "campaign.checkpoint"} <= names
        root = next(e for e in report["events"] if e["name"] == "campaign")
        assert root["attrs"]["campaign"] == "trace-check"
        # Sampling rounds nest under the campaign root; cells record spend.
        rounds = [e for e in report["events"] if e["name"] == "campaign.round"]
        assert all(e["parent"] == root["id"] for e in rounds)
        cells = [e for e in report["events"] if e["name"] == "campaign.cell"]
        assert cells and all(c["attrs"]["spent"] > 0 for c in cells)

    def test_trace_report_cli(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path))
        execute_points(_square, [1, 2, 3], n_workers=1)
        assert trace_report_main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "sweep.execute_points" in out and "wallclock" in out
        assert (tmp_path / "trace.json").is_file()
        assert (tmp_path / "trace-chrome.json").is_file()
        chrome = json.loads((tmp_path / "trace-chrome.json").read_text())
        assert chrome["traceEvents"], "chrome export is empty"

    def test_trace_report_rerun_leaves_its_own_output_alone(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path))
        execute_points(_square, [1, 2], n_workers=1)
        monkeypatch.delenv(TRACE_ENV_VAR)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a quarantine warning fails the test
            assert trace_report_main([str(tmp_path)]) == 0
            assert trace_report_main([str(tmp_path)]) == 0
        capsys.readouterr()
        assert list(tmp_path.glob("*.corrupt")) == []
        assert (tmp_path / "trace-chrome.json").is_file()

    def test_trace_report_compares_queue_latency(self, tmp_path, monkeypatch, capsys):
        directories = [tmp_path / "a", tmp_path / "b"]
        for directory in directories:
            monkeypatch.setenv(TRACE_ENV_VAR, str(directory))
            execute_points(_square, [1, 2], n_workers=1)
        assert trace_report_main([str(directory) for directory in directories]) == 0
        out = capsys.readouterr().out
        header = out.split("== comparison ==\n")[1].splitlines()[0]
        assert "wait p50 s" in header and "wait max s" in header

    def test_trace_report_cli_failure_modes(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert trace_report_main([str(empty)]) == 1
        assert trace_report_main([]) == 2
        assert trace_report_main([str(tmp_path / "missing")]) == 2
        assert trace_report_main(["--help"]) == 0
        capsys.readouterr()


# --------------------------------------------------------------------------- #
# Progress through the obs layer                                              #
# --------------------------------------------------------------------------- #
class TestProgressObs:
    def test_strict_parsing_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(PROGRESS_ENV_VAR, "2")
        with pytest.raises(ValueError, match=PROGRESS_ENV_VAR):
            progress_enabled()

    def test_runner_cli_fails_fast_on_bad_progress(self, monkeypatch, capsys):
        from repro.experiments import runner

        monkeypatch.setenv(PROGRESS_ENV_VAR, "2")
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["table1"])
        assert excinfo.value.code == 2
        assert PROGRESS_ENV_VAR in capsys.readouterr().err

    def test_progress_and_trace_compose(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path))
        with tracing("root"):
            reporter = ProgressReporter(_square, total=3, cached=1)
            reporter.emit(2)
        err = capsys.readouterr().err
        assert "1/3 points" in err and "3/3 points" in err
        report = merge_trace(tmp_path)
        chunks = [e for e in report["events"] if e["name"] == "progress.chunk"]
        assert [c["attrs"]["done"] for c in chunks] == [1, 3]
        assert all(c["attrs"]["label"] == "_square" for c in chunks)


# --------------------------------------------------------------------------- #
# Parent-only supervisor counters                                             #
# --------------------------------------------------------------------------- #
class TestSupervisorStatsScope:
    def test_snapshot_in_worker_warns(self, monkeypatch):
        monkeypatch.setattr(
            parallel.multiprocessing, "parent_process", lambda: object()
        )
        with pytest.warns(RuntimeWarning, match="parent-only"):
            supervisor_stats().snapshot()

    def test_diff_in_worker_warns(self, monkeypatch):
        stats = supervisor_stats()
        earlier = stats.snapshot()
        monkeypatch.setattr(
            parallel.multiprocessing, "parent_process", lambda: object()
        )
        with pytest.warns(RuntimeWarning, match="parent-only"):
            stats.diff(earlier)

    def test_parent_snapshot_diff_is_silent(self):
        stats = supervisor_stats()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert stats.diff(stats.snapshot()).as_dict() == {
                "retries": 0,
                "timeouts": 0,
                "pool_respawns": 0,
                "pickling_fallbacks": 0,
                "degraded": 0,
            }
