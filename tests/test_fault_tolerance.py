"""Fault-tolerant execution: supervised pool, fault injection, crash/resume.

The robustness acceptance tests live here: under injected faults (task
exception, worker kill, task hang, corrupt cache/manifest files) sweeps and
campaigns complete with series/counts bit-identical to fault-free runs, and
a campaign SIGKILLed mid-round then ``--resume``\\ d reproduces exact packet
counts — with 1 or 2 workers.
"""

import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api import (
    CampaignExperiment,
    CampaignSpec,
    DeploymentSpec,
    ExperimentSpec,
    InterfererSpec,
    PrecisionSpec,
    ReceiverSpec,
    ScenarioSpec,
    SweepAxis,
    SweepSpec,
    run_experiment_spec,
)
from repro.api.experiment import expand_psr_points
from repro.campaigns import run_campaign
from repro.experiments import parallel
from repro.experiments.config import ExperimentProfile
from repro.experiments.faults import FAULTS_ENV_VAR, FaultPlan, InjectedFault
from repro.experiments.parallel import (
    MAX_POOL_RESPAWNS,
    MAX_RETRIES,
    TIMEOUT_ENV_VAR,
    SweepTaskError,
    parallel_map,
    parallel_map_chunked,
    pool_scope,
    reset_supervisor_stats,
    resolve_task_timeout,
    supervisor_stats,
)
from repro.experiments.runner import builtin_spec
from repro.experiments.store import CACHE_ENV_VAR, CampaignManifest, PointCache
from repro.experiments.sweeps import MAX_GROUP_FRAMES, execute_points, run_sweep_point

MICRO = ExperimentProfile(name="micro", n_packets=2, payload_length=30, n_sir_points=2)


@pytest.fixture(autouse=True)
def _fresh_stats(monkeypatch):
    monkeypatch.delenv(TIMEOUT_ENV_VAR, raising=False)
    reset_supervisor_stats()
    yield
    reset_supervisor_stats()


def _plan(tmp_path, tasks, **kwargs):
    targets = tuple(sorted((int(i), kind) for i, kind in tasks.items()))
    kwargs.setdefault("state_dir", str(tmp_path / "fault-state"))
    return FaultPlan(tasks=targets, **kwargs)


def _double(value):
    return {"doubled": value * 2}


def _describe(task):
    return type(task).__name__


def _slow_double(value):
    time.sleep(0.4)
    return _double(value)


def _worker_pid(_):
    # Long enough that both workers of a 2-wide pool take a task.
    time.sleep(0.1)
    return os.getpid()


# --------------------------------------------------------------------------- #
# FaultPlan                                                                   #
# --------------------------------------------------------------------------- #
class TestFaultPlan:
    def test_parse_round_trip(self, tmp_path):
        plan = FaultPlan.parse(
            json.dumps({"tasks": {"3": "kill", "1": "raise"}, "state_dir": str(tmp_path)})
        )
        assert plan.tasks == ((1, "raise"), (3, "kill"))
        assert plan.kind_for(3) == "kill" and plan.kind_for(1) == "raise"
        assert plan.kind_for(0) is None

    @pytest.mark.parametrize(
        "payload",
        [
            "not json",
            '["list"]',
            '{"bogus_field": 1}',
            '{"tasks": {"0": "explode"}}',
            '{"rate": 0.5}',  # seeded-rate targeting is gone: an unknown field
            '{"tasks": {"x": "raise"}}',
            '{"times": 0}',
            '{"hang_seconds": 0}',
        ],
    )
    def test_parse_rejects_malformed_plans(self, payload):
        with pytest.raises(ValueError):
            FaultPlan.parse(payload)

    def test_from_env_unset_means_no_faults(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        assert FaultPlan.from_env() is None

    def test_injection_bounded_by_times(self, tmp_path):
        plan = _plan(tmp_path, {"0": "raise"}, times=2)
        for _ in range(2):
            with pytest.raises(InjectedFault):
                plan.apply(0, in_pool=False)
        plan.apply(0, in_pool=False)  # claims exhausted: runs clean

    def test_claims_shared_across_plan_copies(self, tmp_path):
        # Same state_dir == same ledger, as when a plan pickles into workers.
        with pytest.raises(InjectedFault):
            _plan(tmp_path, {"4": "raise"}).apply(4, in_pool=False)
        # A fresh copy of the plan sees the spent claim and runs clean.
        _plan(tmp_path, {"4": "raise"}).apply(4, in_pool=False)

    def test_kill_outside_pool_raises_instead_of_exiting(self, tmp_path):
        plan = _plan(tmp_path, {"0": "kill"})
        with pytest.raises(InjectedFault, match="raising instead of killing"):
            plan.apply(0, in_pool=False)


# --------------------------------------------------------------------------- #
# Task timeout, the one failure setting                                       #
# --------------------------------------------------------------------------- #
class TestTaskTimeout:
    def test_unset_means_no_limit(self):
        assert resolve_task_timeout() is None

    def test_argument_beats_environment(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV_VAR, "2.5")
        assert resolve_task_timeout() == 2.5
        assert resolve_task_timeout(90.0) == 90.0

    @pytest.mark.parametrize("raw", ["0", "-1", "soon", "nan", "inf"])
    def test_rejects_malformed_environment_naming_the_source(self, monkeypatch, raw):
        monkeypatch.setenv(TIMEOUT_ENV_VAR, raw)
        with pytest.raises(ValueError, match=TIMEOUT_ENV_VAR):
            resolve_task_timeout()

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_malformed_argument(self, value):
        with pytest.raises(ValueError, match="task timeout"):
            resolve_task_timeout(value)


# --------------------------------------------------------------------------- #
# Supervised executor                                                         #
# --------------------------------------------------------------------------- #
class TestSupervisedExecutor:
    def test_serial_retry_recovers_task_exception(self, tmp_path):
        plan = _plan(tmp_path, {"1": "raise"})
        results = parallel_map(_double, [1, 2, 3], fault_plan=plan)
        assert results == [{"doubled": 2}, {"doubled": 4}, {"doubled": 6}]
        assert supervisor_stats().retries == 1

    def test_retry_budget_exhaustion_names_the_task(self, tmp_path):
        plan = _plan(tmp_path, {"2": "raise"}, times=5)
        with pytest.raises(SweepTaskError, match="task 2") as excinfo:
            parallel_map(_double, [1, 2, 3], fault_plan=plan)
        assert excinfo.value.ordinal == 2
        assert excinfo.value.attempts == MAX_RETRIES + 1

    def test_pool_survives_task_exception(self, tmp_path):
        plan = _plan(tmp_path, {"1": "raise"})
        results = parallel_map(
            _double, list(range(6)), n_workers=2, fault_plan=plan
        )
        assert results == [{"doubled": v * 2} for v in range(6)]
        assert supervisor_stats().retries == 1
        assert supervisor_stats().pool_respawns == 0

    def test_worker_kill_respawns_pool_and_completes(self, tmp_path):
        plan = _plan(tmp_path, {"2": "kill"})
        results = parallel_map(
            _double, list(range(6)), n_workers=2, fault_plan=plan
        )
        assert results == [{"doubled": v * 2} for v in range(6)]
        assert supervisor_stats().pool_respawns == 1
        assert supervisor_stats().degraded == 0

    def test_repeated_pool_death_degrades_to_serial(self, tmp_path):
        # Two kills, one respawn in the budget: the second death degrades,
        # and the remaining tasks (their claims spent) finish in-process.
        # The chunk barrier keeps the kills in separate pool generations —
        # with one unchunked dispatch both can land before the first
        # BrokenExecutor surfaces, consuming both in a single respawn.
        plan = _plan(tmp_path, {"1": "kill", "4": "kill"})
        results = parallel_map_chunked(
            _double,
            list(range(6)),
            n_workers=2,
            chunk_size=3,
            fault_plan=plan,
        )
        assert results == [{"doubled": v * 2} for v in range(6)]
        assert supervisor_stats().pool_respawns == 1
        assert supervisor_stats().degraded == 1

    def test_hung_task_times_out_and_is_redispatched(self, tmp_path, monkeypatch):
        plan = _plan(tmp_path, {"1": "hang"}, hang_seconds=30.0)
        monkeypatch.setenv(TIMEOUT_ENV_VAR, "1.0")
        results = parallel_map(_double, list(range(4)), n_workers=2, fault_plan=plan)
        assert results == [{"doubled": v * 2} for v in range(4)]
        assert supervisor_stats().timeouts >= 1

    def test_redispatched_task_timeout_excludes_its_queue_wait(self, tmp_path, monkeypatch):
        # Task 0 hangs once; its re-dispatch queues behind the other seven
        # 0.4 s tasks, which the one healthy worker runs for 2.8 s.  Timing
        # the re-dispatch from its resubmission would time it out twice
        # more (at 1.8 s and 2.7 s) and give up, though no re-run hangs.
        plan = _plan(tmp_path, {"0": "hang"}, hang_seconds=30.0)
        monkeypatch.setenv(TIMEOUT_ENV_VAR, "0.9")
        results = parallel_map(_slow_double, list(range(8)), n_workers=2, fault_plan=plan)
        assert results == [{"doubled": v * 2} for v in range(8)]
        assert supervisor_stats().timeouts == 1
        assert supervisor_stats().retries == 1

    def test_unpicklable_task_mid_list_falls_back_serial_for_that_task(self):
        # Only tasks[0] is probed; the lambda at index 2 must not crash the
        # pool — it is named and executed in the parent instead.
        tasks = [1, 2.5, lambda: None, "four"]
        with pytest.warns(RuntimeWarning, match="could not cross the process boundary"):
            # Deliberately unpicklable payload: this test exercises the
            # executor's serial pickling fallback for exactly that task shape.
            results = parallel_map(_describe, tasks, n_workers=2)
        assert results == ["int", "float", "function", "str"]
        assert supervisor_stats().pickling_fallbacks == 1

    def test_fault_plan_resolved_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            json.dumps({"tasks": {"0": "raise"}, "state_dir": str(tmp_path / "f")}),
        )
        assert parallel_map(_double, [7]) == [{"doubled": 14}]
        assert supervisor_stats().retries == 1

    def test_on_chunk_fires_per_chunk_under_faults(self, tmp_path):
        plan = _plan(tmp_path, {"1": "raise", "3": "raise"})
        flushed = []
        parallel_map_chunked(
            _double,
            list(range(5)),
            chunk_size=2,
            on_chunk=lambda start, chunk: flushed.append((start, len(chunk))),
            fault_plan=plan,
        )
        assert flushed == [(0, 2), (2, 2), (4, 1)]


# --------------------------------------------------------------------------- #
# Pool scope: one pool for every sweep of a run                               #
# --------------------------------------------------------------------------- #
class TestPoolScope:
    def test_calls_in_one_scope_run_on_the_same_workers(self):
        with pool_scope():
            first = set(parallel_map(_worker_pid, range(4), n_workers=2))
            second = set(parallel_map(_worker_pid, range(4), n_workers=2))
        assert first and os.getpid() not in first
        assert second <= first

    def test_scope_exit_joins_the_workers(self):
        with pool_scope():
            parallel_map(_worker_pid, range(4), n_workers=2)
            assert multiprocessing.active_children()
        assert multiprocessing.active_children() == []

    def test_call_outside_a_scope_leaves_no_live_children(self):
        parallel_map(_worker_pid, range(4), n_workers=2)
        assert multiprocessing.active_children() == []

    def test_sweep_never_runs_on_more_workers_than_it_asked_for(self):
        with pool_scope() as scope:
            parallel_map(_worker_pid, range(6), n_workers=3)
            assert scope.width == 3
            narrow = set(parallel_map(_worker_pid, range(6), n_workers=2))
            assert scope.width == 2
        assert len(narrow) <= 2

    def test_worker_kill_recovered_and_replacement_serves_the_next_call(self, tmp_path):
        plan = _plan(tmp_path, {"1": "kill"})
        expected = [{"doubled": v * 2} for v in range(6)]
        with pool_scope() as scope:
            assert parallel_map(_double, range(6), n_workers=2, fault_plan=plan) == expected
            assert supervisor_stats().pool_respawns == 1
            replacement = scope.pool
            assert replacement is not None
            before = supervisor_stats().snapshot()
            # The claim is spent: the same plan runs clean on the replacement.
            assert parallel_map(_double, range(6), n_workers=2, fault_plan=plan) == expected
            assert supervisor_stats().diff(before).pool_respawns == 0
            assert scope.pool is replacement

    def test_timeout_discards_the_pool_and_the_next_call_gets_fresh_workers(
        self, tmp_path, monkeypatch
    ):
        plan = _plan(tmp_path, {"1": "hang"}, hang_seconds=30.0)
        monkeypatch.setenv(TIMEOUT_ENV_VAR, "1.0")
        with pool_scope() as scope:
            first = set(parallel_map(_worker_pid, range(4), n_workers=2, fault_plan=plan))
            assert supervisor_stats().timeouts == 1
            assert scope.pool is None
            second = set(parallel_map(_worker_pid, range(4), n_workers=2))
        assert first.isdisjoint(second)

    def test_runner_builds_one_pool_and_joins_it_before_returning(self, monkeypatch, capsys):
        from repro.experiments import runner

        monkeypatch.setattr(runner, "QUICK_PROFILE", MICRO)
        built = []

        class CountingPool(parallel.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        pooled = []

        class RecordingSupervisor(parallel._Supervisor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pooled.append(self.pooled)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(parallel, "_Supervisor", RecordingSupervisor)
        assert runner.main(["fig4", "fig11", "--workers", "2"]) == 0
        assert pooled.count(True) >= 2  # one pooled sweep per figure at least
        assert built == [2]
        assert multiprocessing.active_children() == []


# --------------------------------------------------------------------------- #
# Sweep-level bit-identity under faults                                       #
# --------------------------------------------------------------------------- #
def _mini_psr_points():
    """Four co-channel points of four MCS.

    Points of different MCS share no packet draws, so each runs as its own
    sweep task and the fault ordinals below name real tasks.
    """
    spec = ExperimentSpec(
        name="mini-cci",
        figure="Custom",
        title="mini CCI sweep",
        scenario=ScenarioSpec(sir_db=15.0, interferers=(InterfererSpec(kind="cci"),)),
        receivers=(ReceiverSpec("standard"), ReceiverSpec("cprecycle")),
        sweep=SweepSpec(
            axes=(SweepAxis("mcs_name", values=("bpsk-1/2", "qpsk-1/2", "qpsk-3/4", "16qam-1/2")),)
        ),
        series_label="{receiver}",
    ).resolve(MICRO)
    points, _ = expand_psr_points(spec)
    return points


def _tiny_fig13_simulated_spec():
    return ExperimentSpec(
        name="fig13-tiny",
        figure="Figure 13",
        title="tiny simulated deployment",
        kind="analysis",
        analysis="fig13-neighbor-cdf-simulated",
        params={
            "deployment": DeploymentSpec(n_floors=1, aps_per_floor=3).to_dict(),
            "n_realizations": 2,
        },
    )


class TestSweepBitIdentityUnderFaults:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_kill_mid_chunk_bit_identical(self, tmp_path, monkeypatch, workers):
        points = _mini_psr_points()
        clean = execute_points(run_sweep_point, points, n_workers=workers)
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            json.dumps(
                {
                    "tasks": {"1": "kill", "2": "raise"},
                    "state_dir": str(tmp_path / "faults"),
                }
            ),
        )
        faulted = execute_points(run_sweep_point, points, n_workers=workers)
        assert faulted == clean
        stats = supervisor_stats()
        assert stats.retries + stats.pool_respawns >= 2  # both faults fired

    def test_fig4_bit_identical_under_task_exception(self, tmp_path, monkeypatch):
        clean = run_experiment_spec(builtin_spec("fig4"), MICRO)
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            json.dumps({"tasks": {"0": "raise"}, "state_dir": str(tmp_path / "faults")}),
        )
        assert run_experiment_spec(builtin_spec("fig4"), MICRO) == clean
        assert supervisor_stats().retries >= 1

    def test_fig13_simulated_bit_identical_under_worker_kill(self, tmp_path, monkeypatch):
        spec = _tiny_fig13_simulated_spec()
        # 32 frames per link point (2 receivers): two points per sibling
        # group, so the sweep's five points make three tasks and task 1
        # exists.
        profile = replace(MICRO, n_packets=MAX_GROUP_FRAMES // 4)
        clean = run_experiment_spec(spec, profile, n_workers=2)
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            json.dumps({"tasks": {"1": "kill"}, "state_dir": str(tmp_path / "faults")}),
        )
        assert run_experiment_spec(spec, profile, n_workers=2) == clean
        assert supervisor_stats().pool_respawns == 1

    def test_corrupt_point_cache_quarantined_and_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
        points = _mini_psr_points()
        clean = execute_points(run_sweep_point, points)
        cache_files = list((tmp_path / "cache").glob("*.json"))
        assert cache_files
        cache_files[0].write_text("{torn mid-write")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            recovered = execute_points(run_sweep_point, points)
        assert recovered == clean
        assert cache_files[0].with_name(cache_files[0].name + ".corrupt").is_file()


# --------------------------------------------------------------------------- #
# Campaign crash/resume                                                       #
# --------------------------------------------------------------------------- #
def _mini_campaign():
    # Cells of different MCS share no packet draws, so every sampling round
    # dispatches one sweep task per cell: five, one more than the serial
    # chunk size, and the fault ordinals name real tasks.
    experiment = ExperimentSpec(
        name="mini-cci",
        figure="Custom",
        title="mini CCI sweep",
        scenario=ScenarioSpec(sir_db=15.0, interferers=(InterfererSpec(kind="cci"),)),
        receivers=(ReceiverSpec("standard"), ReceiverSpec("cprecycle")),
        sweep=SweepSpec(
            axes=(
                SweepAxis(
                    "mcs_name",
                    values=("bpsk-1/2", "qpsk-1/2", "qpsk-3/4", "16qam-1/2", "16qam-3/4"),
                ),
            )
        ),
        series_label="{receiver}",
    )
    return CampaignSpec(
        name="fault-campaign",
        experiments=(CampaignExperiment(spec=experiment),),
        precision=PrecisionSpec(ci_halfwidth_pct=30.0, min_packets=4, growth=2.0),
        profile="quick",
    )


class TestCampaignCrashRecovery:
    def test_campaign_bit_identical_under_injected_faults(self, tmp_path, monkeypatch):
        spec = _mini_campaign()
        clean = run_campaign(spec, tmp_path / "clean")
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            json.dumps(
                {
                    "tasks": {"1": "kill", "3": "raise"},
                    "state_dir": str(tmp_path / "faults"),
                }
            ),
        )
        faulted = run_campaign(spec, tmp_path / "faulted", n_workers=2)

        clean_manifest = CampaignManifest(tmp_path / "clean" / "manifest.json")
        fault_manifest = CampaignManifest(tmp_path / "faulted" / "manifest.json")
        assert fault_manifest.points == clean_manifest.points
        assert faulted.summary["experiments"] == clean.summary["experiments"]
        recovery = faulted.summary["totals"]["recovery"]
        assert recovery["pool_respawns"] <= MAX_POOL_RESPAWNS
        assert recovery["retries"] <= MAX_RETRIES * 2
        assert clean.summary["totals"]["recovery"] == {
            "retries": 0,
            "timeouts": 0,
            "pool_respawns": 0,
            "pickling_fallbacks": 0,
            "degraded": 0,
        }

    def test_corrupt_manifest_quarantined_and_rebuilt_bit_identical(self, tmp_path):
        spec = _mini_campaign()
        clean = run_campaign(spec, tmp_path / "clean")
        manifest_path = tmp_path / "clean" / "manifest.json"
        clean_points = CampaignManifest(manifest_path).points
        good = manifest_path.read_text()
        manifest_path.write_text(good[: len(good) // 2])  # torn write
        with pytest.warns(RuntimeWarning, match="quarantined"):
            rebuilt = run_campaign(spec, tmp_path / "clean", resume=True)
        assert manifest_path.with_name("manifest.json.corrupt").is_file()
        assert rebuilt.summary["experiments"] == clean.summary["experiments"]
        # The rebuilt manifest (recomputed through the still-good point
        # cache) reproduces the lost checkpoint exactly.
        assert CampaignManifest(manifest_path).points == clean_points
        assert rebuilt.summary["totals"]["adaptive_packets"] == (
            clean.summary["totals"]["adaptive_packets"]
        )

    @pytest.mark.parametrize("resume_workers", [1, 2])
    def test_sigkill_mid_round_then_resume_bit_identical(self, tmp_path, resume_workers):
        spec = _mini_campaign()
        clean = run_campaign(spec, tmp_path / "clean")

        spec_path = tmp_path / "campaign.json"
        spec_path.write_text(spec.to_json())
        src = str(Path(__file__).resolve().parent.parent / "src")
        script = (
            "import functools, os, signal, sys\n"
            "sys.path.insert(0, sys.argv[3])\n"
            "import repro.campaigns.scheduler as sched\n"
            "import repro.experiments.sweeps as sweeps\n"
            "from repro.api import CampaignSpec\n"
            "real = sweeps.run_sweep_group\n"
            "calls = {'n': 0}\n"
            "@functools.wraps(real)\n"
            "def killing(group):\n"
            "    calls['n'] += 1\n"
            "    if calls['n'] == 5:  # serial chunk size is 4: one chunk flushed\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return real(group)\n"
            "sweeps.run_sweep_group = killing\n"
            "spec = CampaignSpec.from_json(open(sys.argv[1]).read())\n"
            "sched.run_campaign(spec, sys.argv[2])\n"
        )
        workspace = tmp_path / "killed"
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        process = subprocess.run(
            [sys.executable, "-c", script, str(spec_path), str(workspace), src],
            env=env,
            capture_output=True,
            text=True,
        )
        assert process.returncode == -signal.SIGKILL, process.stderr
        # The kill fired inside round 1: the first chunk's four cells reached
        # the point cache, and no round was checkpointed.
        (cache_file,) = (workspace / ".cache").glob("*.json")
        assert len(PointCache(cache_file)) == 4
        assert CampaignManifest(workspace / "manifest.json").rounds_completed == 0

        resumed = run_campaign(spec, workspace, resume=True, n_workers=resume_workers)

        clean_manifest = CampaignManifest(tmp_path / "clean" / "manifest.json")
        resumed_manifest = CampaignManifest(workspace / "manifest.json")
        assert resumed_manifest.points == clean_manifest.points
        assert resumed.summary["experiments"] == clean.summary["experiments"]
        assert resumed.summary["totals"]["adaptive_packets"] == (
            clean.summary["totals"]["adaptive_packets"]
        )
        # Recovery was resumption from checkpoints, not retry churn.
        assert resumed.summary["totals"]["recovery"]["retries"] == 0


# --------------------------------------------------------------------------- #
# CLI plumbing                                                                #
# --------------------------------------------------------------------------- #
class TestFailureCli:
    def test_runner_threads_task_timeout_through_env(self, monkeypatch):
        from repro.experiments import runner

        monkeypatch.setattr(runner, "QUICK_PROFILE", MICRO)
        seen = {}

        def probe(spec, profile):
            seen["task_timeout"] = resolve_task_timeout()
            return run_experiment_spec(spec, profile)

        monkeypatch.setattr(runner, "run_experiment_spec", probe)
        assert runner.main(["fig4", "--task-timeout", "90"]) == 0
        assert seen["task_timeout"] == 90.0
        # The override is restored afterwards.
        assert TIMEOUT_ENV_VAR not in os.environ

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_runner_rejects_malformed_task_timeout(self, monkeypatch, value, capsys):
        from repro.experiments import runner

        monkeypatch.setattr(runner, "QUICK_PROFILE", MICRO)
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["fig4", "--task-timeout", value])
        assert excinfo.value.code == 2

    def test_runner_rejects_malformed_task_timeout_env(self, monkeypatch, capsys):
        from repro.experiments import runner

        monkeypatch.setattr(runner, "QUICK_PROFILE", MICRO)
        monkeypatch.setenv(TIMEOUT_ENV_VAR, "nan")
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["fig4"])
        assert excinfo.value.code == 2
        assert TIMEOUT_ENV_VAR in capsys.readouterr().err

    def test_campaign_cli_accepts_task_timeout(self, tmp_path, capsys):
        from repro.experiments.runner import main as runner_main

        spec_path = tmp_path / "campaign.json"
        spec_path.write_text(_mini_campaign().to_json())
        code = runner_main(
            [
                "campaign",
                "--spec",
                str(spec_path),
                "--out",
                str(tmp_path / "ws"),
                "--task-timeout",
                "120",
                "--report",
                "json",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["totals"]["recovery"]["retries"] == 0
        assert TIMEOUT_ENV_VAR not in os.environ

    @pytest.mark.parametrize("value", ["0", "nan", "inf"])
    def test_campaign_cli_rejects_malformed_task_timeout(self, tmp_path, value):
        from repro.experiments.runner import main as runner_main

        spec_path = tmp_path / "campaign.json"
        spec_path.write_text(_mini_campaign().to_json())
        argv = ["campaign", "--spec", str(spec_path), "--out", str(tmp_path / "ws")]
        with pytest.raises(SystemExit) as excinfo:
            runner_main([*argv, "--task-timeout", value])
        assert excinfo.value.code == 2
