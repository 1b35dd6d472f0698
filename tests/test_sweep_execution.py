"""Tests for the unified sweep execution layer across the figure modules."""

import numpy as np
import pytest

from repro.api import run_experiment_spec
from repro.experiments import (
    fig05_naive,
    fig06_kde,
    fig10_guardband,
    fig13_network,
    fig14_segment_sweep,
    parallel,
    table01_cp,
)
from repro.experiments.config import ExperimentProfile
from repro.experiments.parallel import parallel_map
from repro.obs.progress import PROGRESS_ENV_VAR

TINY = ExperimentProfile(name="tiny", n_packets=2, payload_length=30, n_sir_points=2)


class TestWorkersInvariance:
    """Results are bit-identical for any worker count."""

    def test_fig10_workers2_matches_serial(self):
        spec = fig10_guardband.build_spec(sir_values_db=(-10.0,), guard_band_subcarriers=(0, 16))
        serial = run_experiment_spec(spec, TINY, n_workers=1)
        pooled = run_experiment_spec(spec, TINY, n_workers=2)
        assert pooled == serial

    def test_fig14_workers2_matches_serial(self):
        spec = fig14_segment_sweep.build_spec(sir_values_db=(-16.0,), segment_fractions=(0.1, 1.0))
        serial = run_experiment_spec(spec, TINY, n_workers=1)
        pooled = run_experiment_spec(spec, TINY, n_workers=2)
        assert pooled == serial

    def test_fig13_workers2_matches_serial(self):
        serial = fig13_network.run_analyses(TINY, n_realizations=3, n_workers=1)
        pooled = fig13_network.run_analyses(TINY, n_realizations=3, n_workers=2)
        for name in ("standard", "cprecycle"):
            assert np.array_equal(serial[name].counts, pooled[name].counts)


class TestSweepLayerCoverage:
    """The refactored figures execute and keep their paper-level properties."""

    def test_fig5_runs_through_sweep_layer(self):
        spec = fig05_naive.build_spec(sir_db=-10.0, guard_band_subcarriers=(0, 16))
        result = run_experiment_spec(spec, TINY)
        assert set(result.series) == {"Standard OFDM Receiver", "Oracle Scheme", "Naive Decoder"}

    def test_fig6_accepts_workers(self):
        result = fig06_kde.run_deviation_cdf(TINY, sir_values_db=(-20.0,), n_workers=1)
        assert any("Model" in name for name in result.series)

    def test_table1_accepts_workers(self):
        serial = table01_cp.run_isi_free_analysis(n_workers=1)
        pooled = table01_cp.run_isi_free_analysis(n_workers=2)
        assert serial == pooled


class TestFig13StreamIndependence:
    def test_deploy_and_shadowing_streams_differ(self):
        deploy_rng, shadowing_rng = fig13_network.realization_rngs(2016, 0)
        # Identical-length draws from the two streams must not coincide — the
        # old code fed the same integer seed to both, making them equal.
        assert not np.allclose(deploy_rng.normal(size=16), shadowing_rng.normal(size=16))

    def test_realizations_differ_from_each_other(self):
        a = fig13_network.realization_rngs(2016, 0)[0].normal(size=8)
        b = fig13_network.realization_rngs(2016, 1)[0].normal(size=8)
        assert not np.allclose(a, b)

    def test_no_cross_seed_realization_aliasing(self):
        # The old derivation keyed child streams on seed + realization, so
        # realization r of seed s was bit-identical to realization r - 1 of
        # seed s + 1.  Distinct profile seeds must never share streams.
        for component in (0, 1):
            a = fig13_network.realization_rngs(2016, 1)[component].normal(size=16)
            b = fig13_network.realization_rngs(2017, 0)[component].normal(size=16)
            assert not np.allclose(a, b)

    def test_jitter_and_shadowing_decorrelated_end_to_end(self):
        from repro.network.building import OfficeBuilding

        building = OfficeBuilding()
        deploy_rng, shadowing_rng = fig13_network.realization_rngs(2016, 0)
        aps = building.deploy(deploy_rng)
        rss = building.pairwise_rss_dbm(aps, shadowing_rng)
        # Re-derive the same streams: the realization is reproducible.
        deploy_rng2, shadowing_rng2 = fig13_network.realization_rngs(2016, 0)
        assert building.deploy(deploy_rng2) == aps
        assert np.array_equal(building.pairwise_rss_dbm(aps, shadowing_rng2), rss)


# --------------------------------------------------------------------------- #
# parallel_map picklability probe                                             #
# --------------------------------------------------------------------------- #
class _CountedTask:
    """Task whose (parent-process) pickling is counted via __reduce__."""

    pickle_count = 0

    def __init__(self, value):
        self.value = value

    def __reduce__(self):
        type(self).pickle_count += 1
        return (_CountedTask, (self.value,))


def _value_of(task):
    return task.value


class TestPicklabilityProbe:
    def test_probe_pickles_one_representative_task(self):
        _CountedTask.pickle_count = 0
        tasks = [_CountedTask(v) for v in range(6)]
        assert parallel_map(_value_of, tasks, n_workers=2) == list(range(6))
        # Probe pickles ONE task; the pool pickles each task once to dispatch
        # it.  The old probe serialized the whole list a second time, giving
        # 2 * len(tasks) parent-side pickles.
        assert _CountedTask.pickle_count <= len(tasks) + 1

    def test_probe_failure_still_falls_back(self):
        with pytest.warns(RuntimeWarning):
            # repro-lint: disable=RPR003 -- deliberately unpicklable: this
            # test exercises the probe-failure serial fallback.
            result = parallel_map(lambda task: task, [object(), object()], n_workers=2)
        assert len(result) == 2

    def test_serial_path_never_pickles(self):
        _CountedTask.pickle_count = 0
        tasks = [_CountedTask(v) for v in range(4)]
        assert parallel_map(_value_of, tasks, n_workers=1) == list(range(4))
        assert _CountedTask.pickle_count == 0

    def test_probe_helper_contract(self):
        assert parallel._picklable(_value_of, _CountedTask(1))
        assert not parallel._picklable(lambda: None)


class TestProgressReporting:
    """Opt-in stderr progress lines from the shared execution layer."""

    def test_disabled_by_default(self, capsys, monkeypatch):
        from repro.experiments.sweeps import execute_points

        monkeypatch.delenv(PROGRESS_ENV_VAR, raising=False)
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        execute_points(_double, [1, 2, 3])
        assert capsys.readouterr().err == ""

    def test_progress_lines_without_cache(self, capsys, monkeypatch):
        from repro.experiments.sweeps import execute_points

        monkeypatch.setenv(PROGRESS_ENV_VAR, "1")
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        assert execute_points(_double, [1, 2, 3]) == [{"doubled": v} for v in (2, 4, 6)]
        err = capsys.readouterr().err
        assert "[sweep] _double:" in err
        assert "3/3 points" in err and "elapsed" in err

    def test_progress_counts_cached_points(self, capsys, monkeypatch, tmp_path):
        from repro.experiments.sweeps import execute_points

        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "cache"))
        monkeypatch.delenv(PROGRESS_ENV_VAR, raising=False)
        execute_points(_double, [1, 2])  # warm the cache silently
        monkeypatch.setenv(PROGRESS_ENV_VAR, "1")
        execute_points(_double, [1, 2, 3, 4])
        err = capsys.readouterr().err
        # First line reports the 2 cache hits, the final one completion.
        assert "2/4 points" in err and "4/4 points" in err

    def test_runner_progress_flag_sets_env(self, monkeypatch, capsys):
        from repro.experiments import runner

        monkeypatch.delenv(PROGRESS_ENV_VAR, raising=False)
        monkeypatch.setattr(runner, "QUICK_PROFILE", TINY)
        assert runner.main(["table1", "--progress"]) == 0
        # The override is restored on exit ...
        assert PROGRESS_ENV_VAR not in __import__("os").environ
        # ... but the sweep inside the run reported progress on stderr.
        assert "[sweep]" in capsys.readouterr().err


def _double(value):
    return {"doubled": value * 2}
