"""Unit tests for noise, multipath and standards data."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel import awgn, multipath
from repro.standards.dot11 import DOT11_CP_TABLE, cp_overhead_fraction, isi_free_samples, table1_rows
from repro.utils.dsp import signal_power


class TestAwgn:
    def test_power_calibration(self):
        # Standard normal real and imaginary parts: mean power 2.
        noise = awgn.standard_complex_noise(200_000, rng=0)
        assert signal_power(noise) == pytest.approx(2.0, rel=0.02)

    def test_zero_samples(self):
        assert awgn.standard_complex_noise(0, rng=0).size == 0

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            awgn.standard_complex_noise(-1, rng=0)

    def test_deterministic_given_seed(self):
        assert np.array_equal(
            awgn.standard_complex_noise(16, rng=3), awgn.standard_complex_noise(16, rng=3)
        )

    def test_parts_are_independent_standard_normals(self):
        noise = awgn.standard_complex_noise(200_000, rng=1)
        for part in (noise.real, noise.imag):
            assert np.mean(part) == pytest.approx(0.0, abs=0.01)
            assert np.var(part) == pytest.approx(1.0, rel=0.02)
        assert np.corrcoef(noise.real, noise.imag)[0, 1] == pytest.approx(0.0, abs=0.01)

    def test_draws_real_parts_then_imaginary_parts_from_a_generator(self):
        # A scenario's later draws follow the noise on the same generator, so
        # the draw order is part of every packet's realisation.
        rng, twin = np.random.default_rng(8), np.random.default_rng(8)
        noise = awgn.standard_complex_noise(5, rng)
        assert noise.real.tobytes() == twin.standard_normal(5).tobytes()
        assert noise.imag.tobytes() == twin.standard_normal(5).tobytes()
        assert rng.standard_normal() == twin.standard_normal()


class TestMultipath:
    def test_flat_channel_single_tap(self):
        taps = multipath.FlatChannel().sample_taps(0)
        assert taps.shape == (1,)
        assert taps[0] == 1.0 + 0.0j

    def test_static_taps_normalised(self):
        taps = multipath.StaticTapChannel(taps=(1.0, 0.5j)).sample_taps(0)
        assert np.sum(np.abs(taps) ** 2) == pytest.approx(1.0)

    def test_flat_channel_keeps_its_gain(self):
        channel = multipath.FlatChannel(gain=0.5j)
        assert channel.sample_taps(3).tolist() == [0.5j]
        assert channel.max_taps == 1

    def test_static_taps_ignore_the_rng(self):
        channel = multipath.StaticTapChannel(taps=(1.0, 0.5j, -0.25))
        assert np.array_equal(channel.sample_taps(0), channel.sample_taps(1))
        assert channel.max_taps == 3

    def test_static_taps_without_energy_rejected(self):
        with pytest.raises(ValueError, match="no energy"):
            multipath.StaticTapChannel(taps=(0.0, 0.0)).sample_taps(0)

    def test_exponential_channel_unit_energy(self):
        channel = multipath.ExponentialMultipathChannel(100e-9, 50e6)
        taps = channel.sample_taps(0)
        assert np.sum(np.abs(taps) ** 2) == pytest.approx(1.0)
        assert taps.size == channel.n_taps

    def test_zero_delay_spread_is_single_tap(self):
        channel = multipath.ExponentialMultipathChannel(0.0, 20e6)
        assert channel.n_taps == 1

    def test_taps_cover_five_delay_spreads(self):
        # 100 ns at 50 MHz is 5 samples: ceil(5 * 5) + 1 taps.
        channel = multipath.ExponentialMultipathChannel(100e-9, 50e6)
        assert channel.n_taps == channel.max_taps == 26

    @pytest.mark.parametrize("delay_spread_s, sample_rate_hz", [(-1e-9, 20e6), (50e-9, 0.0)])
    def test_exponential_channel_argument_checks(self, delay_spread_s, sample_rate_hz):
        with pytest.raises(ValueError):
            multipath.ExponentialMultipathChannel(delay_spread_s, sample_rate_hz)

    def test_rms_delay_spread_of_two_equal_taps(self):
        # Mean delay 0.5 samples, every tap 0.5 samples from it.
        assert multipath.rms_delay_spread(np.array([1.0, 1.0j]), 10.0) == pytest.approx(0.05)

    def test_rms_delay_spread_without_energy_rejected(self):
        with pytest.raises(ValueError, match="no energy"):
            multipath.rms_delay_spread(np.zeros(3), 20e6)

    def test_delay_spread_roughly_matches_profile(self):
        channel = multipath.ExponentialMultipathChannel(200e-9, 50e6)
        spreads = [
            multipath.rms_delay_spread(channel.sample_taps(seed), 50e6) for seed in range(200)
        ]
        assert np.median(spreads) == pytest.approx(200e-9, rel=0.5)

    def test_apply_channel_length(self):
        out = multipath.apply_channel(np.ones(100), np.array([1.0, 0.5]))
        assert out.size == 101

    def test_apply_channel_empty_taps_rejected(self):
        with pytest.raises(ValueError):
            multipath.apply_channel(np.ones(10), np.array([]))

    def test_rician_first_tap_is_more_deterministic_than_rayleigh(self):
        rician = multipath.ExponentialMultipathChannel(100e-9, 50e6, rician_k_db=10.0)
        rayleigh = multipath.ExponentialMultipathChannel(100e-9, 50e6)
        rician_mags = [np.abs(rician.sample_taps(seed)[0]) for seed in range(100)]
        rayleigh_mags = [np.abs(rayleigh.sample_taps(seed)[0]) for seed in range(100)]
        assert np.std(rician_mags) / np.mean(rician_mags) < np.std(rayleigh_mags) / np.mean(rayleigh_mags)

    @settings(max_examples=20)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_unit_energy_property(self, seed):
        channel = multipath.ExponentialMultipathChannel(50e-9, 20e6)
        assert np.sum(np.abs(channel.sample_taps(seed)) ** 2) == pytest.approx(1.0)


class TestStandardsData:
    def test_table1_matches_paper(self):
        rows = table1_rows()
        assert rows[0]["CP Size"] == "16"
        assert rows[0]["Duration"] == "0.8 us"
        assert rows[1]["CP Size"] == "32 (16)"
        assert rows[1]["Duration"] == "1.6 (0.8) us"
        assert rows[3]["FFT Size"] == 512

    def test_cp_overhead_80211ag(self):
        assert cp_overhead_fraction(DOT11_CP_TABLE[0]) == pytest.approx(0.2)

    def test_isi_free_samples_grow_with_bandwidth(self):
        free = [isi_free_samples(spec, 0.1) for spec in DOT11_CP_TABLE]
        assert free == sorted(free)
        assert free[0] < free[-1]

    def test_isi_free_samples_zero_delay(self):
        assert isi_free_samples(DOT11_CP_TABLE[0], 0.0) == 16

    def test_isi_free_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            isi_free_samples(DOT11_CP_TABLE[0], -0.1)

    @pytest.mark.parametrize("spec", DOT11_CP_TABLE, ids=lambda spec: f"{spec.bandwidth_mhz}MHz")
    def test_every_width_keeps_the_4_us_symbol(self, spec):
        # The sample rate scales with the width, so the symbol (and, in real
        # time, the guard interval) keeps its 802.11a duration.
        assert spec.sample_rate_mhz == spec.bandwidth_mhz
        assert spec.symbol_duration_us == pytest.approx(4.0)
        assert spec.cp_duration_us == pytest.approx(spec.cp_size / 20.0)

    def test_short_guard_interval(self):
        wide = DOT11_CP_TABLE[1]
        assert wide.short_cp_duration_us == pytest.approx(0.8)
        assert cp_overhead_fraction(wide, short=True) == pytest.approx(16 / 144)
        assert isi_free_samples(wide, 0.0, short=True) == 16
        assert isi_free_samples(wide, 0.1, short=True) == 12

    def test_short_guard_interval_falls_back_to_the_long_one(self):
        legacy = DOT11_CP_TABLE[0]
        assert legacy.short_cp_duration_us is None
        assert cp_overhead_fraction(legacy, short=True) == cp_overhead_fraction(legacy)
        assert isi_free_samples(legacy, 0.1, short=True) == isi_free_samples(legacy, 0.1)
