"""Unit tests for segments, channel estimation, equalisation and the front end."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.multipath import StaticTapChannel
from repro.channel.scenario import Scenario
from repro.phy.subcarriers import dot11g_allocation
from repro.receiver.channel_est import estimate_channel_best_segment, estimate_channel_ls
from repro.receiver.equalizer import equalize
from repro.receiver.frontend import FrontEnd
from repro.receiver.segments import (
    extract_segments,
    phase_ramps,
    reference_segment_index,
    scale_spectra,
    segment_offsets,
    segment_phase_ramp,
    segment_windows,
)


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

    @pytest.mark.parametrize("n_segments", [1, 5, 16])
    def test_reference_segment_is_the_standard_window(self, n_segments):
        offsets = segment_offsets(16, n_segments)
        assert offsets[reference_segment_index(n_segments)] == 16

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

    def test_cached_phase_ramps_match_segment_phase_ramp(self):
        alloc = dot11g_allocation()
        offsets = segment_offsets(alloc.cp_length, 4)
        bins = alloc.data_bin_array()
        ramps = phase_ramps(64, tuple(alloc.cp_length - offsets), tuple(bins.tolist()))
        assert ramps.shape == (4, bins.size) and not ramps.flags.writeable
        for row, offset in zip(ramps, offsets):
            assert row.tobytes() == segment_phase_ramp(alloc, offset)[bins].tobytes()

    def test_segment_windows_view_the_buffers(self):
        alloc = dot11g_allocation()
        buffers = np.arange(2 * 400, dtype=complex).reshape(2, 400)
        windows = segment_windows(buffers, alloc, n_symbols=3, n_segments=4)
        assert windows.shape == (2, 4, 3, 64) and not windows.flags.writeable
        for b in range(2):
            for j in range(4):
                for s in range(3):
                    start = j + s * alloc.symbol_length
                    assert np.array_equal(windows[b, j, s], buffers[b, start : start + 64])

    def test_scale_spectra_is_the_unitary_scaling(self):
        spectra = np.random.default_rng(0).standard_normal((3, 64)) * (1 + 2j)
        expected = spectra / np.sqrt(64)
        scale_spectra(spectra, 64)
        assert spectra.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "samples, kwargs, match",
        [
            (np.zeros(1000, dtype=complex), {}, "offsets or n_segments"),
            (np.zeros(1000, dtype=complex), {"offsets": [15, 16, 17]}, "must lie in"),
            (np.zeros((2, 500), dtype=complex), {"n_segments": 2}, "shape"),
        ],
        ids=["no-segments", "offset-past-cp", "two-dimensional"],
    )
    def test_argument_checks(self, samples, kwargs, match):
        with pytest.raises(ValueError, match=match):
            extract_segments(samples, dot11g_allocation(), 2, 100, **kwargs)

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
            rx.composite, alloc, rx.spec.n_preamble_symbols, rx.frame_start,
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

    def test_best_segment_keeps_the_most_consistent_segment_per_bin(self):
        rng = np.random.default_rng(3)
        known = np.where(rng.random((3, 5)) < 0.5, -1.0, 1.0)
        channel = np.exp(1j * np.linspace(0.0, 2.0, 5))
        # Segment j's training symbols disagree by spread[j, bin].
        spread = np.array([[0.3, 0.01, 0.2, 0.5, 0.02],
                           [0.02, 0.4, 0.3, 0.01, 0.3],
                           [0.1, 0.2, 0.01, 0.3, 0.4]])
        signs = np.array([1.0, -1.0, 0.0])[:, None]
        segments = (channel + spread[:, None, :] * signs) * known  # (P, Np, bins)
        estimate = estimate_channel_best_segment(segments, known)
        best = np.argmin(spread, axis=0)
        means = (segments / known).mean(axis=1)
        assert np.array_equal(estimate, means[best, np.arange(5)])
        assert np.allclose(estimate, channel)

    def test_best_segment_with_one_training_symbol_is_reference_ls(self):
        spectra, known, _ = self._setup((1.0, 0.2j))
        estimate = estimate_channel_best_segment(spectra[:, :1], known[:1])
        assert estimate.tobytes() == estimate_channel_ls(spectra[-1, :1], known[:1]).tobytes()

    def test_estimates_run_over_leading_packet_axes(self):
        first, known, _ = self._setup((1.0, 0.2j), seed=1)
        second, _, _ = self._setup((1.0, 0.2j), seed=2)
        batch = np.stack([first, second])
        for estimator, per_packet in [
            (estimate_channel_ls, lambda x: x[..., -1, :, :]),
            (estimate_channel_best_segment, lambda x: x),
        ]:
            together = estimator(per_packet(batch), known)
            assert together.shape == (2, known.shape[-1])
            for row, packet in zip(together, (first, second)):
                assert row.tobytes() == estimator(per_packet(packet), known).tobytes()

    def test_dead_subcarrier_is_floored(self):
        known = np.ones((2, 4))
        received = np.ones((3, 2, 4), dtype=complex)
        received[:, :, 1] = 0.0
        for estimate in (
            estimate_channel_ls(received[-1], known),
            estimate_channel_best_segment(received, known),
        ):
            assert estimate[1] == 1e-12
            assert np.all(estimate[[0, 2, 3]] == 1.0)

    def test_best_segment_argument_checks(self):
        with pytest.raises(ValueError, match="P, Np, n_bins"):
            estimate_channel_best_segment(np.ones((2, 8)), np.ones((2, 8)))
        with pytest.raises(ValueError, match="non-zero"):
            estimate_channel_best_segment(np.ones((3, 2, 8)), np.zeros((2, 8)))

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


class TestEqualizer:
    def test_equalize_inverts_channel(self):
        channel = np.linspace(0.5, 2.0, 8) * np.exp(1j * 0.3)
        symbols = np.ones((3, 8), dtype=complex) * channel
        assert np.allclose(equalize(symbols, channel), 1.0)

    def test_equalize_broadcasts_over_leading_axes(self):
        rng = np.random.default_rng(1)
        channel = rng.standard_normal((2, 1, 1, 8)) + 1j  # one estimate per packet
        symbols = rng.standard_normal((2, 3, 4, 8)) + 0j   # (B, P, Nsym, bins)
        out = equalize(symbols, channel)
        assert out.shape == symbols.shape
        for b in range(2):
            assert np.array_equal(out[b], equalize(symbols[b], channel[b, 0, 0]))

    def test_equalize_shape_mismatch(self):
        with pytest.raises(ValueError):
            equalize(np.ones((2, 8)), np.ones(4))


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

    def test_reference_index_views_the_standard_window(self):
        alloc = dot11g_allocation()
        rx = Scenario(alloc, payload_length=40, snr_db=25.0).realize(1)
        front = FrontEnd(n_segments=6).process(rx)
        assert front.reference_index == 5
        assert front.segment_offsets[front.reference_index] == alloc.cp_length
        assert np.array_equal(front.reference_data(), front.data[-1])
        assert front.frame_start == rx.frame_start

    def test_clean_decode_observations_on_lattice(self):
        alloc = dot11g_allocation()
        rx = Scenario(alloc, payload_length=40, snr_db=60.0).realize(2)
        front = FrontEnd(max_segments=16).process(rx)
        reference = front.reference_data()
        deviations = np.abs(reference - rx.tx_frame.data_points)
        assert deviations.max() < 0.05
