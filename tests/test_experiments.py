"""Tests for the experiment harness: link engine, results, figure modules."""

import numpy as np
import pytest

from repro.api import run_experiment_spec
from repro.channel.scenario import Scenario
from repro.experiments import config as expcfg
from repro.experiments import (
    fig04_segments,
    fig05_naive,
    fig06_kde,
    fig08_aci_single,
    fig11_cci_single,
    fig13_network,
    fig14_segment_sweep,
    table01_cp,
)
from repro.experiments.config import ExperimentProfile
from repro.experiments.link import packet_success_rate, symbol_error_rate
from repro.experiments.results import FigureResult, format_table
from repro.experiments.runner import BUILTIN_SPECS, builtin_spec
from repro.phy.subcarriers import dot11g_allocation
from repro.receiver.standard import StandardOfdmReceiver
from repro.standards.dot11 import table1_rows

TINY = ExperimentProfile(name="tiny", n_packets=3, payload_length=30, n_sir_points=2)


class TestLinkEngine:
    def test_packet_success_rate_clean_channel(self):
        scenario = Scenario(dot11g_allocation(), mcs_name="qpsk-1/2", payload_length=30, snr_db=30.0)
        stats = packet_success_rate(scenario, {"standard": StandardOfdmReceiver()}, 4, seed=0)
        assert stats["standard"].n_packets == 4
        assert stats["standard"].success_rate == 1.0
        assert stats["standard"].success_percent == 100.0

    def test_low_snr_fails(self):
        scenario = Scenario(dot11g_allocation(), mcs_name="64qam-2/3", payload_length=30, snr_db=0.0)
        stats = packet_success_rate(scenario, {"standard": StandardOfdmReceiver()}, 3, seed=0)
        assert stats["standard"].success_rate == 0.0

    def test_validation(self):
        scenario = Scenario(dot11g_allocation(), payload_length=30)
        with pytest.raises(ValueError):
            packet_success_rate(scenario, {"standard": StandardOfdmReceiver()}, 0)
        with pytest.raises(ValueError):
            packet_success_rate(scenario, {}, 2)

    def test_symbol_error_rate_clean_is_zero(self):
        scenario = Scenario(dot11g_allocation(), mcs_name="qpsk-1/2", payload_length=30, snr_db=40.0)
        ser = symbol_error_rate(scenario, {"standard": StandardOfdmReceiver()}, 2, seed=0)
        assert ser["standard"] == 0.0

    def test_deterministic_given_seed(self):
        scenario = expcfg.aci_scenario("qpsk-1/2", -18.0, payload_length=30)
        receivers = expcfg.build_receivers(scenario.allocation, ("standard",))
        a = packet_success_rate(scenario, receivers, 3, seed=5)["standard"].n_success
        b = packet_success_rate(scenario, receivers, 3, seed=5)["standard"].n_success
        assert a == b


class TestConfig:
    def test_default_profile_is_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert expcfg.default_profile().name == "quick"

    def test_full_profile_via_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "full")
        assert expcfg.default_profile().name == "full"

    def test_unknown_profile_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "huge")
        with pytest.raises(ValueError):
            expcfg.default_profile()

    def test_aci_scenario_layouts(self):
        assert expcfg.aci_scenario("qpsk-1/2", -10.0, 30).allocation.fft_size == 160
        assert expcfg.aci_scenario("qpsk-1/2", -10.0, 30, guard_subcarriers=64).allocation.fft_size == 256
        assert expcfg.aci_scenario("qpsk-1/2", -10.0, 30, two_sided=True).allocation.fft_size == 256

    def test_cci_scenario_uses_dot11g(self):
        scenario = expcfg.cci_scenario("16qam-1/2", 5.0, 30, n_interferers=2)
        assert scenario.allocation.fft_size == 64
        assert len(scenario.interferers) == 2

    def test_build_receivers_names(self):
        receivers = expcfg.build_receivers(dot11g_allocation(), ("standard", "naive", "oracle", "cprecycle"))
        assert set(receivers) == {"standard", "naive", "oracle", "cprecycle"}
        with pytest.raises(ValueError):
            expcfg.build_receivers(dot11g_allocation(), ("mmse",))

    def test_snr_table_covers_paper_mcs(self):
        for name in expcfg.PAPER_MCS_SET:
            assert name in expcfg.SNR_FOR_MCS


class TestResults:
    def test_series_length_validation(self):
        with pytest.raises(ValueError):
            FigureResult("f", "t", "x", [1, 2], {"a": [1.0]})

    def test_rows_and_formatting(self):
        result = FigureResult("Figure X", "demo", "SIR", [0, 1], {"a": [1.0, 2.0], "b": [3.0, 4.0]})
        rows = result.as_rows()
        assert rows[0]["SIR"] == 0 and rows[1]["b"] == 4.0
        text = format_table(result)
        assert "Figure X" in text and "SIR" in text and "a" in text


class TestFigureModules:
    def test_table1(self):
        rows = table1_rows()
        assert len(rows) == 4
        analysis = table01_cp.run_isi_free_analysis()
        assert len(analysis.x_values) == 4

    def test_fig4_panels(self):
        a = fig04_segments.run_subcarrier_profile(TINY)
        assert "Oracle Receiver" in a.series
        # the oracle is never worse than the standard window
        assert all(o <= s + 1e-9 for o, s in zip(a.series["Oracle Receiver"],
                                                 a.series["Standard Receiver"]))
        b = fig04_segments.run_segment_profile(TINY, sir_values_db=(-20.0,))
        assert len(b.x_values) == 16
        # substantial variation of the interference power across segments
        values = b.series["SIR -20 dB"]
        assert max(values) - min(values) > 5.0
        c = fig04_segments.run_constellation(TINY)
        assert len(c.series["real"]) == 5

    def test_fig5(self):
        spec = fig05_naive.build_spec(sir_db=-10.0, guard_band_subcarriers=(0, 16))
        result = run_experiment_spec(spec, TINY)
        assert set(result.series) == {"Standard OFDM Receiver", "Oracle Scheme", "Naive Decoder"}
        assert len(result.x_values) == 2

    def test_fig6(self):
        a = fig06_kde.run_bandwidth_illustration()
        assert len(a.series) == 3
        b = fig06_kde.run_deviation_cdf(TINY, sir_values_db=(-20.0,))
        assert any("Model" in name for name in b.series)

    @pytest.mark.parametrize("sir_db", [-10.0, -20.0, -30.0])
    def test_fig6_on_demand_rows_match_the_full_grid(self, sir_db):
        # The quick profile's three SIR points, against the full-grid CDF.
        profile = expcfg.QUICK_PROFILE
        task = fig06_kde._DeviationTask(
            sir_db=sir_db,
            payload_length=profile.payload_length,
            seed=profile.seed,
            quantiles=(0.1, 0.25, 0.5, 0.75, 0.9),
        )
        _, grid, train_amplitudes, bandwidths = fig06_kde._deviation_amplitudes(task)
        full = fig06_kde._model_cdf(grid, train_amplitudes, bandwidths)
        assert np.all(np.diff(full) >= 0)
        for index in (0, 1, 255, 511):
            row = fig06_kde._model_cdf(grid[index : index + 1], train_amplitudes, bandwidths)
            assert row[0] == full[index]
        oracle = [float(np.interp(q, full, grid)) for q in task.quantiles]
        expected = [20.0 * float(np.log10(max(v, 1e-6))) for v in oracle]
        assert fig06_kde._deviation_point(task)["model"] == expected

    def test_fig6_on_demand_interp_handles_plateaus_and_ends(self):
        grid = np.linspace(0.0, 3.0, 61)
        steps = np.repeat([0.0, 0.1, 0.1, 0.4, 0.4, 0.4, 0.7, 0.9, 1.0, 1.0], 6)
        cdf = np.concatenate([steps, [1.0]])  # plateaus at 0, 0.1, 0.4 and 1
        visited = []

        def cdf_row(index):
            visited.append(index)
            return float(cdf[index])

        quantiles = [-0.5, 0.0, 1e-12, 0.05, 0.1, 0.25, 0.4, 0.55, 0.7, 0.95, 1.0, 1.5]
        quantiles += list(np.random.default_rng(0).uniform(0.0, 1.0, 50))
        for q in quantiles:
            assert fig06_kde._interp_on_demand(q, cdf_row, grid) == float(np.interp(q, cdf, grid))
        # A flat CDF: every quantile is below the first row or at or above the last.
        flat = np.full(61, 0.3)
        for q in (0.0, 0.3, 0.9):
            value = fig06_kde._interp_on_demand(q, lambda i: float(flat[i]), grid)
            assert value == float(np.interp(q, flat, grid))

    def test_fig6_task_evaluates_at_most_64_grid_rows(self, monkeypatch):
        rows = []
        normal_cdf = fig06_kde._normal_cdf

        def counted(x):
            rows.append(np.shape(x)[0])  # the grid axis leads
            return normal_cdf(x)

        monkeypatch.setattr(fig06_kde, "_normal_cdf", counted)
        profile = expcfg.QUICK_PROFILE
        task = fig06_kde._DeviationTask(
            sir_db=-20.0,
            payload_length=profile.payload_length,
            seed=profile.seed,
            quantiles=(0.1, 0.25, 0.5, 0.75, 0.9),
        )
        fig06_kde._deviation_point(task)
        assert 0 < sum(rows) <= 64

    def test_fig6_normal_helpers_known_values(self):
        # Phi(1.96), Phi(-1) and phi(0) to double precision.
        cdf = fig06_kde._normal_cdf(np.array([[1.96], [-1.0]]))
        assert cdf.shape == (2, 1) and cdf.dtype == np.float64
        assert cdf[0, 0] == pytest.approx(0.9750021048517795, abs=1e-15)
        assert cdf[1, 0] == pytest.approx(0.15865525393145707, abs=1e-15)
        assert fig06_kde._normal_cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-15)
        assert fig06_kde._normal_pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-15)

    def test_fig8_and_fig11_shapes(self):
        spec = fig08_aci_single.build_spec(mcs_names=("qpsk-1/2",), sir_range_db=(-24.0, -12.0))
        result = run_experiment_spec(spec, TINY)
        assert "QPSK (1/2) With CPRecycle" in result.series
        assert len(result.x_values) == TINY.n_sir_points
        spec = fig11_cci_single.build_spec(mcs_names=("qpsk-1/2",), sir_range_db=(5.0, 20.0))
        cci = run_experiment_spec(spec, TINY)
        assert "QPSK (1/2) Without CPRecycle" in cci.series

    def test_fig13(self):
        result = run_experiment_spec(fig13_network.build_spec(), TINY)
        for series in result.series.values():
            assert series[-1] == pytest.approx(1.0)
        analyses = fig13_network.run_analyses(TINY, n_realizations=2)
        assert analyses["cprecycle"].mean < analyses["standard"].mean

    def test_fig14(self):
        spec = fig14_segment_sweep.build_spec(sir_values_db=(-16.0,), segment_fractions=(0.1, 1.0))
        result = run_experiment_spec(spec, TINY)
        assert len(result.x_values) == 2

    def test_runner_registry(self):
        assert set(BUILTIN_SPECS) >= {"table1", "fig4", "fig5", "fig6", "fig8", "fig9", "fig10",
                                      "fig11", "fig12", "fig13", "fig14"}
        result = run_experiment_spec(builtin_spec("fig13"), TINY)
        assert isinstance(result, FigureResult)
        with pytest.raises(ValueError):
            builtin_spec("fig99")
