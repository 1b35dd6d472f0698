"""Unit tests for interference generation and scenario composition."""

from dataclasses import replace

import numpy as np
import pytest

from repro.channel.interference import (
    adjacent_channel_interferer,
    co_channel_interferer,
    draw_interference,
    scale_interference,
)
from repro.channel.multipath import ExponentialMultipathChannel, StaticTapChannel
from repro.channel.scenario import Scenario
from repro.phy.subcarriers import dot11g_allocation, wideband_allocation
from repro.utils.dsp import signal_power


WB = wideband_allocation(fft_size=160, start_bin=1)


class TestInterfererSpecs:
    def test_adjacent_upper_block_position(self):
        spec = adjacent_channel_interferer(WB, sir_db=-10.0, guard_subcarriers=4)
        assert min(spec.allocation.occupied_bins) == 69
        assert max(spec.allocation.occupied_bins) == 132

    def test_adjacent_guard_band_respected(self):
        spec = adjacent_channel_interferer(WB, sir_db=0.0, guard_subcarriers=10)
        assert min(spec.allocation.occupied_bins) == 75

    def test_lower_side(self):
        sender = wideband_allocation(fft_size=256, start_bin=96)
        spec = adjacent_channel_interferer(sender, sir_db=0.0, side="lower")
        assert max(spec.allocation.occupied_bins) < 96

    def test_lower_side_must_fit(self):
        with pytest.raises(ValueError):
            adjacent_channel_interferer(WB, sir_db=0.0, side="lower")

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            adjacent_channel_interferer(WB, sir_db=0.0, side="middle")

    def test_co_channel_shares_allocation(self):
        spec = co_channel_interferer(dot11g_allocation(), sir_db=5.0)
        assert spec.allocation is dot11g_allocation() or spec.allocation.occupied_bins == dot11g_allocation().occupied_bins


class TestRealizeInterference:
    """An interferer's realisation: :func:`draw_interference`, then :func:`scale_interference`."""

    def test_sir_calibration(self):
        spec = adjacent_channel_interferer(WB, sir_db=-20.0)
        drawn = draw_interference(spec, n_samples=4000, frame_start=100, rng=0)
        realized = scale_interference(spec, drawn, reference_power=0.5)
        measured = 10 * np.log10(0.5 / signal_power(realized.component))
        assert measured == pytest.approx(-20.0, abs=0.5)

    def test_component_length(self):
        spec = co_channel_interferer(dot11g_allocation(), sir_db=0.0)
        drawn = draw_interference(spec, n_samples=1234, frame_start=0, rng=0)
        assert drawn.stream.size == 1234
        assert scale_interference(spec, drawn, reference_power=1.0).component.size == 1234

    def test_timing_offset_default_exceeds_cp(self):
        spec = adjacent_channel_interferer(WB, sir_db=0.0)
        offsets = {draw_interference(spec, 2000, 0, rng=seed).timing_offset for seed in range(20)}
        assert all(offset > WB.cp_length for offset in offsets)

    def test_explicit_timing_offset_respected(self):
        spec = adjacent_channel_interferer(WB, sir_db=0.0, timing_offset=55)
        realized = scale_interference(spec, draw_interference(spec, 2000, 0, rng=3), 1.0)
        assert realized.timing_offset == 55

    def test_aligned_aci_is_orthogonal(self):
        # With a zero timing offset the interferer stays orthogonal: no energy
        # appears on the sender's subcarriers in a symbol-aligned FFT.
        spec = adjacent_channel_interferer(WB, sir_db=0.0, timing_offset=0)
        realized = scale_interference(spec, draw_interference(spec, 4000, frame_start=0, rng=1), 1.0)
        window = realized.component[WB.cp_length : WB.cp_length + WB.fft_size]
        spectrum = np.fft.fft(window) / np.sqrt(WB.fft_size)
        sender_power = np.sum(np.abs(spectrum[WB.occupied_bin_array()]) ** 2)
        total_power = np.sum(np.abs(spectrum) ** 2)
        assert sender_power < 1e-10 * total_power

    def test_draw_is_read_only_and_scaled_without_redrawing(self):
        spec = adjacent_channel_interferer(WB, sir_db=-10.0)
        drawn = draw_interference(spec, n_samples=3000, frame_start=50, rng=2)
        assert not drawn.stream.flags.writeable
        assert not drawn.channel_taps.flags.writeable
        assert drawn.power == signal_power(drawn.stream)
        weak = scale_interference(replace(spec, sir_db=10.0), drawn, reference_power=2.0)
        strong = scale_interference(spec, drawn, reference_power=2.0)
        # 20 dB apart: the components differ by an amplitude factor of 10.
        assert np.allclose(strong.component, 10.0 * weak.component)
        assert strong.power == pytest.approx(2.0 * 10.0)
        assert weak.power == pytest.approx(2.0 / 10.0)

    def test_timing_offset_wraps_to_one_symbol(self):
        spec = adjacent_channel_interferer(WB, sir_db=0.0, timing_offset=WB.symbol_length + 7)
        assert draw_interference(spec, 1000, frame_start=0, rng=0).timing_offset == 7

    def test_invalid_parameters(self):
        spec = co_channel_interferer(dot11g_allocation(), sir_db=0.0)
        with pytest.raises(ValueError):
            draw_interference(spec, 0, 0)
        with pytest.raises(ValueError):
            scale_interference(spec, draw_interference(spec, 100, 0, rng=0), 0.0)


class TestScenario:
    def test_realization_shapes_and_composition(self):
        scenario = Scenario(WB, payload_length=40, snr_db=20.0,
                            interferers=[adjacent_channel_interferer(WB, sir_db=-10.0)])
        rx = scenario.realize(0)
        assert rx.composite.shape == rx.signal.shape == rx.interference.shape == rx.noise.shape
        assert np.allclose(rx.composite, rx.signal + rx.interference + rx.noise)

    def test_snr_and_sir_close_to_target(self):
        scenario = Scenario(WB, payload_length=100, snr_db=15.0,
                            interferers=[adjacent_channel_interferer(WB, sir_db=-5.0)])
        rx = scenario.realize(1)
        assert rx.sir_db == pytest.approx(-5.0, abs=1.5)
        assert rx.snr_db == pytest.approx(15.0, abs=1.5)

    @pytest.mark.parametrize("snr_db", [-5.0, 10.0, 30.0])
    def test_compose_scales_the_noise_draw_to_the_snr(self, snr_db):
        scenario = Scenario(WB, payload_length=100, snr_db=snr_db)
        draw = scenario.draw(4)
        rx = scenario.compose(draw)
        noise_power = draw.reference_power / 10.0 ** (snr_db / 10.0)
        assert rx.noise.tobytes() == (np.sqrt(noise_power / 2.0) * draw.noise).tobytes()
        assert rx.snr_db == pytest.approx(snr_db, abs=0.5)

    def test_compose_rejects_a_draw_with_other_interferers(self):
        clean = Scenario(WB, payload_length=40, snr_db=20.0)
        interfered = Scenario(WB, payload_length=40, snr_db=20.0,
                              interferers=[adjacent_channel_interferer(WB, sir_db=0.0)])
        with pytest.raises(ValueError, match="interferer"):
            interfered.compose(clean.draw(0))

    def test_draw_key_ignores_only_the_levels(self):
        def scenario(snr_db=20.0, sir_db=-10.0, payload_length=40):
            return Scenario(WB, payload_length=payload_length, snr_db=snr_db,
                            interferers=[adjacent_channel_interferer(WB, sir_db=sir_db)])

        key = scenario().draw_key
        assert scenario(snr_db=5.0).draw_key == key
        assert scenario(sir_db=-30.0).draw_key == key
        assert scenario(payload_length=41).draw_key != key

    def test_packet_draw_is_read_only(self):
        draw = Scenario(dot11g_allocation(), payload_length=30).draw(0)
        for array in (draw.signal, draw.noise, draw.channel_taps, draw.tx_frame.waveform):
            assert not array.flags.writeable

    def test_realize_batch_needs_a_packet(self):
        with pytest.raises(ValueError, match="n_packets"):
            Scenario(dot11g_allocation(), payload_length=30).realize_batch(0)

    def test_interference_plus_noise_is_the_composite_minus_the_signal(self):
        scenario = Scenario(WB, payload_length=40, snr_db=10.0,
                            interferers=[adjacent_channel_interferer(WB, sir_db=-10.0)])
        rx = scenario.realize(3)
        assert np.array_equal(rx.interference_plus_noise(), rx.interference + rx.noise)
        assert np.allclose(rx.interference_plus_noise(), rx.composite - rx.signal)

    def test_channel_delay_sets_the_isi_free_count(self):
        channel = StaticTapChannel(taps=(1.0, 0.5, 0.25))
        rx = Scenario(dot11g_allocation(), payload_length=30, channel=channel).realize(0)
        assert rx.channel_delay_samples == 2
        assert rx.isi_free_cp_samples == 16 - 2

    def test_no_interferers_gives_zero_interference(self):
        scenario = Scenario(dot11g_allocation(), payload_length=30, snr_db=30.0)
        rx = scenario.realize(0)
        assert not np.any(rx.interference)
        assert rx.sir_db == np.inf

    def test_frame_geometry_indices(self):
        scenario = Scenario(dot11g_allocation(), payload_length=30, snr_db=30.0, pad_symbols=3)
        rx = scenario.realize(0)
        assert rx.frame_start == 3 * 80
        assert rx.data_start == rx.frame_start + 2 * 80

    def test_isi_free_samples_with_multipath(self):
        channel = ExponentialMultipathChannel(100e-9, WB.sample_rate_hz)
        scenario = Scenario(WB, payload_length=30, snr_db=30.0, channel=channel)
        rx = scenario.realize(2)
        assert 1 <= rx.isi_free_cp_samples < WB.cp_length

    def test_flat_channel_keeps_full_cp(self):
        scenario = Scenario(dot11g_allocation(), payload_length=30, snr_db=30.0)
        rx = scenario.realize(0)
        assert rx.isi_free_cp_samples == 16

    def test_deterministic_given_seed(self):
        scenario = Scenario(dot11g_allocation(), payload_length=30, snr_db=30.0)
        assert np.allclose(scenario.realize(7).composite, scenario.realize(7).composite)

    def test_multiple_interferers_sum(self):
        interferers = [
            co_channel_interferer(dot11g_allocation(), sir_db=10.0, label="a"),
            co_channel_interferer(dot11g_allocation(), sir_db=10.0, label="b"),
        ]
        scenario = Scenario(dot11g_allocation(), payload_length=30, snr_db=30.0,
                            interferers=interferers)
        rx = scenario.realize(0)
        assert len(rx.interferers) == 2
        assert rx.sir_db == pytest.approx(10.0 - 3.0, abs=1.5)
