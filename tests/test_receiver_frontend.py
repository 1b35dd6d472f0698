"""Unit tests for segments, channel estimation, equalisation, sync and ISI detection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.multipath import ExponentialMultipathChannel, StaticTapChannel
from repro.channel.scenario import Scenario
from repro.phy.ofdm import symbol_start_indices
from repro.phy.subcarriers import dot11g_allocation, wideband_allocation
from repro.receiver.channel_est import (
    estimate_channel_best_segment,
    estimate_channel_ls,
    smooth_channel_estimate,
)
from repro.receiver.equalizer import apply_common_phase, equalize, estimate_common_phase
from repro.receiver.frontend import FrontEnd
from repro.receiver.isi_free import cp_correlation_profile, detect_isi_free_samples
from repro.receiver.segments import extract_segments, segment_offsets, segment_phase_ramp
from repro.receiver.sync import detect_packet, synchronize


class TestSegments:
    def test_offsets_end_at_cp(self):
        offsets = segment_offsets(16, 5)
        assert list(offsets) == [12, 13, 14, 15, 16]

    def test_offsets_full_cp(self):
        assert list(segment_offsets(16, 16)) == list(range(1, 17))

    def test_invalid_segment_count(self):
        with pytest.raises(ValueError):
            segment_offsets(16, 0)
        with pytest.raises(ValueError):
            segment_offsets(16, 17)

    @pytest.mark.parametrize("n_segments", [2.5, 16.0, True])
    def test_segment_count_must_be_an_integer(self, n_segments):
        # 2.5 would give the float offsets 14.5, 15.5 and 16.5: no window is
        # the standard receiver's.
        with pytest.raises(TypeError, match="n_segments"):
            segment_offsets(16, n_segments)
        assert list(segment_offsets(16, np.int64(2))) == [15, 16]

    def test_phase_ramp_reference_is_unity(self):
        alloc = dot11g_allocation()
        assert np.allclose(segment_phase_ramp(alloc, alloc.cp_length), 1.0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=10**6))
    def test_proposition_3_1(self, n_segments, seed):
        """Different FFT segments give identical symbols after phase correction."""
        alloc = dot11g_allocation()
        scenario = Scenario(alloc, payload_length=20, snr_db=300.0)
        rx = scenario.realize(seed)
        spectra = extract_segments(
            rx.composite, alloc, rx.spec.n_data_symbols, rx.data_start, n_segments=n_segments
        )
        occupied = alloc.occupied_bin_array()
        reference = spectra[-1][:, occupied]
        for segment in spectra:
            assert np.allclose(segment[:, occupied], reference, atol=1e-8)

    def test_without_phase_correction_segments_differ(self):
        alloc = dot11g_allocation()
        scenario = Scenario(alloc, payload_length=20, snr_db=300.0)
        rx = scenario.realize(0)
        spectra = extract_segments(
            rx.composite, alloc, 2, rx.data_start, n_segments=8, correct_phase=False
        )
        occupied = alloc.occupied_bin_array()
        assert not np.allclose(spectra[0][:, occupied], spectra[-1][:, occupied], atol=1e-6)

    @pytest.mark.parametrize("correct_phase", [True, False])
    def test_matches_per_window_fft_bitwise(self, correct_phase):
        alloc = dot11g_allocation()
        rx = Scenario(alloc, payload_length=20, snr_db=20.0).realize(0)
        n_symbols, start = rx.spec.n_data_symbols, rx.data_start
        args = (rx.composite, alloc, n_symbols, start)
        full = extract_segments(*args, n_segments=6, correct_phase=correct_phase)
        for j, offset in enumerate(segment_offsets(alloc.cp_length, 6)):
            for s in range(n_symbols):
                window = start + s * alloc.symbol_length + offset
                expected = np.fft.fft(rx.composite[window : window + 64]) / np.sqrt(64)
                if correct_phase:
                    expected = expected * segment_phase_ramp(alloc, offset)
                assert full[j, s].tobytes() == expected.tobytes()
        # Keeping some bins equals slicing the full output, in the order given.
        bins = alloc.data_bin_array()  # unsorted: negative frequencies first
        kept = extract_segments(*args, n_segments=6, correct_phase=correct_phase, bins=bins)
        assert kept.tobytes() == full[:, :, bins].tobytes()
        # C order, as a plain gather gives: later reductions sum in memory order.
        assert full.flags.c_contiguous and kept.flags.c_contiguous

    def test_non_consecutive_offsets_rejected(self):
        alloc = dot11g_allocation()
        with pytest.raises(ValueError, match="consecutive"):
            extract_segments(np.zeros(1000, dtype=complex), alloc, 2, 100, offsets=[12, 14, 16])

    def test_out_of_buffer_raises(self):
        alloc = dot11g_allocation()
        with pytest.raises(ValueError):
            extract_segments(np.zeros(100, dtype=complex), alloc, 2, 0, n_segments=4)


class TestChannelEstimation:
    def _setup(self, taps, seed=0):
        alloc = dot11g_allocation()
        scenario = Scenario(alloc, payload_length=20, snr_db=60.0, channel=StaticTapChannel(taps))
        rx = scenario.realize(seed)
        occupied = alloc.occupied_bin_array()
        spectra = extract_segments(
            rx.composite, alloc, rx.spec.n_preamble_symbols, rx.preamble_start,
            n_segments=rx.isi_free_cp_samples, bins=occupied,
        )
        known = rx.spec.preamble_frequency[:, occupied]
        true_channel = np.fft.fft(np.concatenate([rx.channel_taps, np.zeros(64 - len(taps))]))
        return spectra, known, true_channel[occupied]

    def test_ls_estimate_matches_true_channel(self):
        spectra, known, true_channel = self._setup((0.9 + 0.1j, 0.3 - 0.2j))
        estimate = estimate_channel_ls(spectra[-1], known)
        assert np.allclose(estimate, true_channel, atol=0.05)

    def test_best_segment_estimate_matches_true_channel(self):
        spectra, known, true_channel = self._setup((1.0, 0.2j), seed=1)
        estimate = estimate_channel_best_segment(spectra, known)
        assert np.allclose(estimate, true_channel, atol=0.05)

    def test_unoccupied_bins_default_to_one(self):
        rx = Scenario(dot11g_allocation(), payload_length=20, snr_db=60.0).realize(0)
        estimate = FrontEnd(n_segments=1).process_reference(rx).channel_estimate
        assert estimate[0] == 1.0  # DC bin unused

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            estimate_channel_ls(np.ones((2, 64)), np.ones((3, 64)))
        with pytest.raises(ValueError):
            estimate_channel_best_segment(np.ones((4, 2, 8)), np.ones((2, 9)))

    def test_zero_reference_rejected(self):
        known = np.zeros((1, 8))
        with pytest.raises(ValueError):
            estimate_channel_ls(np.ones((1, 8)), known)

    def test_smoothing_reduces_noise(self):
        rng = np.random.default_rng(0)
        occupied = np.arange(1, 61)
        true = np.ones(64, dtype=complex)
        noisy = true + 0.3 * (rng.normal(size=64) + 1j * rng.normal(size=64))
        smoothed = smooth_channel_estimate(noisy, occupied, window=5)
        assert np.std(smoothed[occupied] - 1.0) < np.std(noisy[occupied] - 1.0)

    def test_smoothing_window_validation(self):
        with pytest.raises(ValueError):
            smooth_channel_estimate(np.ones(8, dtype=complex), np.arange(8), window=4)


class TestEqualizer:
    def test_equalize_inverts_channel(self):
        channel = np.linspace(0.5, 2.0, 8) * np.exp(1j * 0.3)
        symbols = np.ones((3, 8), dtype=complex) * channel
        assert np.allclose(equalize(symbols, channel), 1.0)

    def test_equalize_shape_mismatch(self):
        with pytest.raises(ValueError):
            equalize(np.ones((2, 8)), np.ones(4))

    def test_common_phase_estimation_and_correction(self):
        pilot_bins = np.array([1, 3, 5, 7])
        pilot_values = np.ones((4, 4))
        phase_true = np.array([0.1, -0.2, 0.3, 0.0])
        symbols = np.ones((4, 8), dtype=complex) * np.exp(1j * phase_true)[:, None]
        estimated = estimate_common_phase(symbols, pilot_bins, pilot_values)
        assert np.allclose(estimated, phase_true, atol=1e-9)
        corrected = apply_common_phase(symbols, estimated)
        assert np.allclose(np.angle(corrected[:, 1]), 0.0, atol=1e-9)

    def test_no_pilots_returns_zero_phase(self):
        assert np.allclose(estimate_common_phase(np.ones((3, 8)), np.array([], dtype=int),
                                                 np.zeros((3, 0))), 0.0)


class TestSyncAndIsiFree:
    def test_packet_detection_on_stf_frame(self):
        alloc = dot11g_allocation()
        scenario = Scenario(alloc, payload_length=30, snr_db=20.0, include_stf=True)
        rx = scenario.realize(0)
        detected, index, _ = detect_packet(rx.composite, period=16)
        assert detected
        assert abs(index - rx.frame_start) < 80

    def test_synchronize_finds_frame_start(self):
        alloc = dot11g_allocation()
        scenario = Scenario(alloc, payload_length=30, snr_db=25.0, include_stf=True)
        rx = scenario.realize(3)
        result = synchronize(rx.composite, rx.spec)
        assert abs(result.frame_start - rx.frame_start) <= 1

    def test_no_packet_no_detection(self):
        rng = np.random.default_rng(0)
        noise = rng.normal(size=2000) + 1j * rng.normal(size=2000)
        detected, _, _ = detect_packet(noise, period=16)
        assert not detected

    def test_cp_correlation_profile_flat_channel(self):
        alloc = dot11g_allocation()
        scenario = Scenario(alloc, payload_length=80, snr_db=30.0)
        rx = scenario.realize(0)
        starts = symbol_start_indices(alloc, rx.spec.n_data_symbols, rx.data_start)
        profile = cp_correlation_profile(rx.composite, alloc, starts)
        assert profile.shape == (16,)
        assert profile.min() > 0.8

    def test_isi_free_detection_flat_channel(self):
        alloc = dot11g_allocation()
        scenario = Scenario(alloc, payload_length=80, snr_db=30.0)
        rx = scenario.realize(1)
        starts = symbol_start_indices(alloc, rx.spec.n_data_symbols, rx.data_start)
        assert detect_isi_free_samples(rx.composite, alloc, starts) == 16

    def test_isi_free_detection_with_multipath(self):
        alloc = wideband_allocation()
        channel = ExponentialMultipathChannel(150e-9, alloc.sample_rate_hz)
        scenario = Scenario(alloc, payload_length=120, snr_db=30.0, channel=channel)
        rx = scenario.realize(5)
        starts = symbol_start_indices(alloc, rx.spec.n_data_symbols, rx.data_start)
        detected = detect_isi_free_samples(rx.composite, alloc, starts)
        # The threshold detector must never report fewer usable segments than
        # the genie count minus a small margin, and never more than the CP.
        assert 1 <= detected <= alloc.cp_length
        assert detected >= rx.isi_free_cp_samples - 4

    def test_threshold_validation(self):
        alloc = dot11g_allocation()
        with pytest.raises(ValueError):
            detect_isi_free_samples(np.zeros(1000, dtype=complex), alloc, np.array([0]), threshold=1.5)


class TestFrontEnd:
    def test_output_shapes(self):
        alloc = dot11g_allocation()
        scenario = Scenario(alloc, payload_length=40, snr_db=25.0)
        rx = scenario.realize(0)
        front = FrontEnd(max_segments=8).process(rx)
        assert front.n_segments == 8
        assert front.preamble.shape == (8, 2, 48)
        assert front.data.shape == (8, rx.spec.n_data_symbols, 48)
        assert front.channel_estimate.shape == (48,)
        assert front.reference_data().shape == (rx.spec.n_data_symbols, 48)

    def test_explicit_segment_count(self):
        alloc = dot11g_allocation()
        rx = Scenario(alloc, payload_length=40, snr_db=25.0).realize(0)
        front = FrontEnd(n_segments=3).process(rx)
        assert front.n_segments == 3

    def test_invalid_channel_estimator(self):
        with pytest.raises(ValueError):
            FrontEnd(channel_estimator="mmse")

    @pytest.mark.parametrize("value", [2.5, True, "3"])
    @pytest.mark.parametrize("field", ["n_segments", "max_segments"])
    def test_segment_counts_must_be_integers(self, field, value):
        with pytest.raises(TypeError, match=field):
            FrontEnd(**{field: value})
        with pytest.raises(ValueError, match=field):
            FrontEnd(**{field: 0})

    def test_clean_decode_observations_on_lattice(self):
        alloc = dot11g_allocation()
        rx = Scenario(alloc, payload_length=40, snr_db=60.0).realize(2)
        front = FrontEnd(max_segments=16).process(rx)
        reference = front.reference_data()
        deviations = np.abs(reference - rx.tx_frame.data_points)
        assert deviations.max() < 0.05

    def test_non_genie_sync_matches_genie(self):
        alloc = dot11g_allocation()
        rx = Scenario(alloc, payload_length=40, snr_db=25.0, include_stf=True).realize(4)
        genie = FrontEnd(max_segments=4, use_genie_sync=True).process(rx)
        blind = FrontEnd(max_segments=4, use_genie_sync=False).process(rx)
        assert abs(blind.frame_start - genie.frame_start) <= 1

    def test_detected_isi_free_segments(self):
        alloc = dot11g_allocation()
        rx = Scenario(alloc, payload_length=60, snr_db=30.0).realize(5)
        front = FrontEnd(use_genie_isi_free=False, max_segments=16).process(rx)
        assert 1 <= front.n_segments <= 16
