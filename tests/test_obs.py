"""Observability layer (``repro.obs``): tracer, spool/merge, diff, reports.

Covers the acceptance criteria of the tracing subsystem: disabled tracing
is a true no-op (shared noop span, no files), traced sections spool one
checksum-stamped file per root and merge onto a single timeline, retried
executions never double-count (dedup keys), torn or unstamped spool files
are quarantined without crashing the merge, task spans carry the payload,
outcome and RNG-stream digests that ``trace-diff`` compares across worker
counts, and the wallclock breakdown's per-process accounting (compute +
serialize + merge + other) exactly tiles each process's active window.
"""

import json
import warnings
from pathlib import Path

import pytest

from repro import obs
from repro.api import run_experiment_spec
from repro.experiments import fig10_guardband, parallel
from repro.experiments.config import ExperimentProfile
from repro.experiments.faults import FaultPlan
from repro.experiments.parallel import (
    parallel_map,
    reset_supervisor_stats,
    supervisor_stats,
)
from repro.experiments.runner import main as runner_main
from repro.experiments.store import CACHE_ENV_VAR, stable_key, write_json_artifact
from repro.experiments.sweeps import execute_points
from repro.obs import TRACE_ENV_VAR, trace_dir, tracing
from repro.obs.merge import MERGED_SCHEMA, diff_traces, load_trace, merge_trace, task_digests
from repro.obs.progress import PROGRESS_ENV_VAR, ProgressReporter, progress_enabled
from repro.obs.report import (
    aggregate_spans,
    chrome_trace,
    recovery_totals,
    trace_report_main,
    wallclock_breakdown,
)
from repro.obs.tracer import SPOOL_SCHEMA, active_tracer
from repro.utils.rng import child_rng


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


def _draw_twice(task):
    return float(child_rng(task, 13, 0).normal() + child_rng(task, 13, 1).normal())


def _draw_twice_plus_one(task):
    return _draw_twice(task) + 1.0


def _draw_twice_nested(task):
    # A task that dispatches nested work in-process.
    return sum(parallel_map(_draw_twice, [task, task], n_workers=1))


def _one_draw(task):
    seed, stream = task
    return int(child_rng(seed, stream).integers(10))


def _draw_twice_and_one_more(task):
    # Same outcome as _draw_twice: only the RNG-stream digests differ.
    child_rng(task, 13, 2)
    return _draw_twice(task)


def _raise_injected(task):
    child_rng(task, 1)
    raise RuntimeError("injected")


def _traced_run(monkeypatch, directory, tasks, fn=_draw_twice, **kwargs):
    monkeypatch.setenv(TRACE_ENV_VAR, str(directory))
    results = parallel_map(fn, tasks, **kwargs)
    monkeypatch.delenv(TRACE_ENV_VAR)
    return results


# --------------------------------------------------------------------------- #
# Activation and the disabled fast path                                       #
# --------------------------------------------------------------------------- #
class TestActivation:
    @pytest.mark.parametrize("raw", [None, "0", "false", "no", "off", "", "  "])
    def test_unset_and_falsy_mean_off(self, monkeypatch, raw):
        if raw is not None:
            monkeypatch.setenv(TRACE_ENV_VAR, raw)
        assert trace_dir() is None

    @pytest.mark.parametrize("raw", ["1", "true", "TRUE", "YES", "on"])
    def test_truthy_means_default_dir(self, monkeypatch, raw):
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
        obs.record_seed_material(1, (2, 3))
        assert obs.digest_task(_draw_twice, 7) == _draw_twice(7)
        with tracing("root", key="value"):
            pass
        assert _spools(tmp_path) == [] and _spools("trace") == []

    def test_seed_material_hook_is_inert_outside_a_task(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path))
        with tracing("root"):
            child_rng(1, 2, 3)
            assert active_tracer().streams is None
        (path,) = _spools(tmp_path)
        (root,) = json.loads(path.read_text())["events"]
        assert root["attrs"] == {}

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


def _unstamp(path):
    record = json.loads(path.read_text())
    del record["checksum"]
    path.write_text(json.dumps(record))


def _tamper(path):
    record = json.loads(path.read_text())
    record["events"][0]["dur"] += 1.0  # edited without restamping
    path.write_text(json.dumps(record))


def _tear(path):
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


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
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nothing left to quarantine
            rerun = merge_trace(tmp_path)
        assert rerun["quarantined"] == ["trace-999-000000.json"]  # still listed

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

    def test_unstamped_spool_is_quarantined(self, tmp_path):
        # Store artifacts from older builds may lack a checksum; spools never
        # did, so one without a stamp has been edited.
        path = _spool_file(tmp_path, 100, 0, _task_events(10.0, dedup="d/0"))
        record = json.loads(path.read_text())
        del record["checksum"]
        record["events"][0]["attrs"]["outcome"] = "edited"
        path.write_text(json.dumps(record))
        with pytest.warns(RuntimeWarning, match="missing checksum"):
            report = merge_trace(tmp_path)
        assert report["quarantined"] == [path.name]
        assert report["n_events"] == 0


# --------------------------------------------------------------------------- #
# Determinism digests on task spans, and trace-diff                           #
# --------------------------------------------------------------------------- #
class TestTaskDigests:
    def test_one_record_per_task(self, tmp_path, monkeypatch):
        results = _traced_run(monkeypatch, tmp_path, [7, 8])
        tasks, problems = task_digests(tmp_path)
        assert problems == []
        assert sorted(tasks) == sorted(stable_key(task) for task in (7, 8))
        record = tasks[stable_key(7)]
        assert record["outcome"] == stable_key(results[0])
        # Two child_rng derivations ran inside the task, in draw order.
        assert record["rng_streams"] == [stable_key([7, 13, 0]), stable_key([7, 13, 1])]

    def test_digests_identical_across_runs(self, tmp_path, monkeypatch):
        _traced_run(monkeypatch, tmp_path / "a", [1, 2, 3])
        _traced_run(monkeypatch, tmp_path / "b", [3, 1, 2])  # order-insensitive
        assert task_digests(tmp_path / "a") == task_digests(tmp_path / "b")
        assert diff_traces([tmp_path / "a", tmp_path / "b"]) == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nested_tasks_attach_draws_to_outer_task(self, tmp_path, monkeypatch, workers):
        # At two workers the outer tasks run in pool workers, and their
        # nested work runs in-process there.
        _traced_run(monkeypatch, tmp_path, [5, 6], fn=_draw_twice_nested, n_workers=workers)
        tasks, problems = task_digests(tmp_path)
        assert problems == [] and sorted(tasks) == sorted(map(stable_key, (5, 6)))
        for task in (5, 6):  # both inner tasks' draws, in order
            streams = [stable_key([task, 13, draw]) for draw in (0, 1)]
            assert tasks[stable_key(task)]["rng_streams"] == streams * 2
        spans = [e for e in merge_trace(tmp_path)["events"] if e["name"] == "task"]
        assert len(spans) == 6  # the inner spans stay, without digests of their own

    def test_failed_task_records_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path))
        with tracing("root"):
            with pytest.raises(RuntimeError, match="injected"):
                with tracing("task"):
                    obs.digest_task(_raise_injected, 1)
            assert active_tracer().streams is None  # the buffer was reset
        (task,) = [e for e in merge_trace(tmp_path)["events"] if e["name"] == "task"]
        assert task["attrs"] == {"error": True}

    def test_retried_task_records_its_completed_execution(self, tmp_path, monkeypatch):
        plan = FaultPlan(tasks=((1, "raise"),), state_dir=str(tmp_path / "fault-state"))
        _traced_run(monkeypatch, tmp_path / "faulted", [0, 1, 2], n_workers=1, fault_plan=plan)
        _traced_run(monkeypatch, tmp_path / "clean", [0, 1, 2], n_workers=1)
        (spool,) = _spools(tmp_path / "faulted")  # serial: the sweep's one spool
        events = json.loads(spool.read_text())["events"]
        (failed,) = [e for e in events if e["attrs"].get("error")]
        assert failed["name"] == "task" and "outcome" not in failed["attrs"]
        assert task_digests(tmp_path / "faulted") == task_digests(tmp_path / "clean")

    def test_distinct_streams_digest_differently(self, tmp_path, monkeypatch):
        _traced_run(monkeypatch, tmp_path, [(9, 0), (9, 1)], fn=_one_draw)
        tasks, _ = task_digests(tmp_path)
        draws = [digest for record in tasks.values() for digest in record["rng_streams"]]
        assert len(draws) == len(set(draws)) == 2

    @pytest.mark.parametrize(
        "twin", [{"outcome": "b" * 64}, {"rng_streams": ["c" * 64]}], ids=["outcome", "streams"]
    )
    def test_disagreeing_duplicate_executions_are_reported(self, tmp_path, twin):
        # A timeout twin: both executions completed, so merge_trace keeps
        # only one of them, but the diff reads every completed execution.
        for pid, differs in ((100, {}), (200, twin)):
            events = _task_events(10.0 + pid, dedup="d/0")
            events[0]["attrs"].update({"key": "k" * 64, "outcome": "a" * 64, "rng_streams": []})
            events[0]["attrs"].update(differs)
            _spool_file(tmp_path / "twins", pid, 0, events)
        _, problems = task_digests(tmp_path / "twins")
        assert problems == [
            f"task {'k' * 16}: two executions disagreed "
            "(outcome or RNG streams differ between processes)"
        ]
        assert merge_trace(tmp_path / "twins")["deduped"] == 1
        mismatches = diff_traces([tmp_path / "twins", tmp_path / "twins"])
        assert any("two executions disagreed" in line for line in mismatches)

    def test_missing_and_extra_tasks_are_reported(self, tmp_path, monkeypatch):
        _traced_run(monkeypatch, tmp_path / "a", [1, 2])
        _traced_run(monkeypatch, tmp_path / "b", [1, 3])
        mismatches = diff_traces([tmp_path / "a", tmp_path / "b"])
        b, a = tmp_path / "b", tmp_path / "a"
        assert mismatches == sorted(
            [
                f"{b}: task {stable_key(2)[:16]} missing (present in {a})",
                f"{b}: task {stable_key(3)[:16]} extra (absent from {a})",
            ]
        )

    def test_diverging_outcome_is_reported(self, tmp_path, monkeypatch):
        _traced_run(monkeypatch, tmp_path / "a", [1, 4])
        _traced_run(monkeypatch, tmp_path / "b", [1])
        _traced_run(monkeypatch, tmp_path / "b", [4], fn=_draw_twice_plus_one)
        b, a = tmp_path / "b", tmp_path / "a"
        assert diff_traces([a, b]) == [
            f"{b}: task {stable_key(4)[:16]} outcome digest diverged from {a}"
        ]

    def test_diverging_rng_streams_are_reported(self, tmp_path, monkeypatch):
        # Equal outcomes, but one run drew an extra stream.
        plain = _traced_run(monkeypatch, tmp_path / "a", [4])
        extra = _traced_run(monkeypatch, tmp_path / "b", [4], fn=_draw_twice_and_one_more)
        assert plain == extra
        b, a = tmp_path / "b", tmp_path / "a"
        assert diff_traces([a, b]) == [
            f"{b}: task {stable_key(4)[:16]} RNG stream digests diverged from {a} "
            "(2 vs 3 draws)"
        ]

    def test_needs_at_least_two_directories(self, tmp_path):
        with pytest.raises(ValueError, match="at least two"):
            diff_traces([tmp_path])

    def test_serial_and_pooled_runs_diff_clean(self, tmp_path, monkeypatch):
        serial = _traced_run(monkeypatch, tmp_path / "serial", list(range(6)), n_workers=1)
        pooled = _traced_run(monkeypatch, tmp_path / "pooled", list(range(6)), n_workers=2)
        assert serial == pooled
        assert diff_traces([tmp_path / "serial", tmp_path / "pooled"]) == []

    def test_fig10_traced_at_one_and_two_workers_diffs_clean(self, tmp_path, monkeypatch):
        # The link simulation draws its streams inside each task, in workers.
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        profile = ExperimentProfile(name="tiny", n_packets=2, payload_length=30, n_sir_points=2)
        spec = fig10_guardband.build_spec(sir_values_db=(-10.0,), guard_band_subcarriers=(0, 16))
        results = {}
        for workers in (1, 2):
            monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path / f"w{workers}"))
            results[workers] = run_experiment_spec(spec, profile, n_workers=workers)
        assert results[1] == results[2]
        tasks, _ = task_digests(tmp_path / "w1")
        assert len(tasks) == 2 and all(record["rng_streams"] for record in tasks.values())
        assert diff_traces([tmp_path / "w1", tmp_path / "w2"]) == []

    @pytest.mark.parametrize(
        ("workers", "faults"),
        [(2, ((1, "raise"), (3, "kill"))), (1, ((1, "raise"), (3, "raise")))],
        ids=["pooled-raise-and-kill", "serial-two-raises"],
    )
    def test_faulted_run_diffs_clean_against_fault_free_run(
        self, tmp_path, monkeypatch, workers, faults
    ):
        plan = FaultPlan(tasks=faults, state_dir=str(tmp_path / "fault-state"))
        tasks = list(range(5))
        clean = _traced_run(monkeypatch, tmp_path / "clean", tasks, n_workers=1)
        faulted = _traced_run(
            monkeypatch, tmp_path / "faulted", tasks, n_workers=workers, fault_plan=plan
        )
        assert faulted == clean
        # Both faults fired, and only a killed worker's pool was respawned.
        assert sorted(path.name for path in (tmp_path / "fault-state").iterdir()) == [
            "task-1.0",
            "task-3.0",
        ]
        respawns = recovery_totals(merge_trace(tmp_path / "faulted")).get("pool_respawns", 0)
        assert (respawns >= 1) == any(kind == "kill" for _, kind in faults)
        assert diff_traces([tmp_path / "clean", tmp_path / "faulted"]) == []

    @pytest.mark.parametrize(
        ("corrupt", "reason"),
        [(_unstamp, "missing checksum"), (_tamper, "checksum mismatch"), (_tear, "invalid JSON")],
        ids=["unstamped", "tampered", "torn"],
    )
    def test_corrupt_spool_never_diffs_clean(self, tmp_path, monkeypatch, corrupt, reason):
        tasks = list(range(4))
        _traced_run(monkeypatch, tmp_path / "a", tasks, n_workers=2)
        _traced_run(monkeypatch, tmp_path / "b", tasks, n_workers=2)
        # Corrupt a spool holding no task span (the parent's own section), so
        # losing it takes no task with it.
        path = next(
            path
            for path in _spools(tmp_path / "b")
            if all(e["name"] != "task" for e in json.loads(path.read_text())["events"])
        )
        corrupt(path)
        expected = [f"{tmp_path / 'b'}: {path.name}: corrupt spool (quarantined)"]
        with pytest.warns(RuntimeWarning, match=reason):
            assert diff_traces([tmp_path / "a", tmp_path / "b"]) == expected
        # The rerun finds the spool already renamed to *.corrupt.
        assert diff_traces([tmp_path / "a", tmp_path / "b"]) == expected

    def test_trace_diff_cli(self, tmp_path, monkeypatch, capsys):
        _traced_run(monkeypatch, tmp_path / "a", [1, 2])
        _traced_run(monkeypatch, tmp_path / "b", [2, 1])
        _traced_run(monkeypatch, tmp_path / "c", [1])
        a, b, c = (str(tmp_path / name) for name in "abc")
        assert runner_main(["trace-diff", a, b]) == 0
        assert runner_main(["trace-diff", a, b, c]) == 1
        assert f"task {stable_key(2)[:16]} missing" in capsys.readouterr().out
        assert runner_main(["trace-diff", a]) == 2
        assert runner_main(["trace-diff", a, str(tmp_path / "missing")]) == 2
        assert runner_main(["trace-diff", "--help"]) == 0
        assert "usage" in capsys.readouterr().out


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
        parallel_map(_square, list(range(6)), n_workers=2)
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
            _square, list(range(4)), n_workers=2, fault_plan=plan
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
            _square, list(range(5)), n_workers=2, fault_plan=plan
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
