"""Unit and property tests for the OFDM modulation primitives."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.phy import ofdm
from repro.phy.constellation import qpsk
from repro.phy.subcarriers import dot11g_allocation, wideband_allocation
from repro.utils.bits import random_bits


def _random_grid(allocation, n_symbols, seed):
    rng = np.random.default_rng(seed)
    c = qpsk()
    data = c.map(random_bits(2 * n_symbols * allocation.n_data_subcarriers, rng)).reshape(
        n_symbols, allocation.n_data_subcarriers
    )
    pilots = np.ones((n_symbols, allocation.n_pilot_subcarriers))
    return ofdm.assemble_frequency_symbols(allocation, data, pilots)


class TestAssemble:
    def test_unused_bins_are_zero(self):
        alloc = dot11g_allocation()
        grid = _random_grid(alloc, 2, 0)
        unused = np.setdiff1d(np.arange(64), alloc.occupied_bin_array())
        assert np.allclose(grid[:, unused], 0.0)

    def test_requires_pilots_when_allocated(self):
        alloc = dot11g_allocation()
        with pytest.raises(ValueError):
            ofdm.assemble_frequency_symbols(alloc, np.ones((1, 48)))

    def test_wrong_data_count_raises(self):
        alloc = dot11g_allocation()
        with pytest.raises(ValueError):
            ofdm.assemble_frequency_symbols(alloc, np.ones((1, 40)), np.ones((1, 4)))


class TestCyclicPrefix:
    def test_add_cyclic_prefix_copies_tail(self):
        symbols = np.arange(32, dtype=complex).reshape(1, 32)
        with_cp = ofdm.add_cyclic_prefix(symbols, 8)
        assert with_cp.shape == (1, 40)
        assert np.array_equal(with_cp[0, :8], symbols[0, -8:])

    def test_remove_inverts_add(self):
        symbols = np.random.default_rng(0).normal(size=(3, 64)) + 0j
        assert np.allclose(ofdm.remove_cyclic_prefix(ofdm.add_cyclic_prefix(symbols, 16), 16), symbols)

    def test_zero_cp(self):
        symbols = np.ones((2, 16), dtype=complex)
        assert ofdm.add_cyclic_prefix(symbols, 0).shape == (2, 16)


class TestModulateDemodulate:
    @pytest.mark.parametrize("allocation", [dot11g_allocation(), wideband_allocation()])
    def test_roundtrip(self, allocation):
        grid = _random_grid(allocation, 4, 1)
        waveform = ofdm.ofdm_modulate(allocation, grid)
        assert waveform.size == 4 * allocation.symbol_length
        recovered = ofdm.ofdm_demodulate(waveform, allocation, n_symbols=4)
        assert np.allclose(recovered, grid, atol=1e-10)

    def test_unitary_power(self):
        alloc = dot11g_allocation()
        grid = _random_grid(alloc, 20, 2)
        waveform = ofdm.ofdm_modulate(alloc, grid)
        freq_power = np.mean(np.abs(grid) ** 2) * alloc.fft_size
        body = waveform.reshape(20, alloc.symbol_length)[:, alloc.cp_length:]
        time_power = np.mean(np.abs(body) ** 2) * alloc.fft_size
        assert time_power == pytest.approx(freq_power, rel=1e-9)

    def test_demodulate_window_offset_in_cp_preserves_magnitudes(self):
        alloc = dot11g_allocation()
        grid = _random_grid(alloc, 3, 3)
        waveform = ofdm.ofdm_modulate(alloc, grid)
        shifted = ofdm.ofdm_demodulate(waveform, alloc, n_symbols=3, fft_window_offset=5)
        occupied = alloc.occupied_bin_array()
        assert np.allclose(np.abs(shifted[:, occupied]), np.abs(grid[:, occupied]), atol=1e-10)

    def test_demodulate_out_of_range_offset(self):
        alloc = dot11g_allocation()
        waveform = ofdm.ofdm_modulate(alloc, _random_grid(alloc, 1, 0))
        with pytest.raises(ValueError):
            ofdm.ofdm_demodulate(waveform, alloc, n_symbols=1, fft_window_offset=17)

    def test_demodulate_insufficient_samples(self):
        alloc = dot11g_allocation()
        waveform = ofdm.ofdm_modulate(alloc, _random_grid(alloc, 1, 0))
        with pytest.raises(ValueError):
            ofdm.ofdm_demodulate(waveform, alloc, n_symbols=2)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6))
    def test_roundtrip_property(self, n_symbols, seed):
        alloc = dot11g_allocation()
        grid = _random_grid(alloc, n_symbols, seed)
        recovered = ofdm.ofdm_demodulate(ofdm.ofdm_modulate(alloc, grid), alloc, n_symbols)
        assert np.allclose(recovered, grid, atol=1e-9)


def _edge_window_loop(symbol_stream, allocation, window_length):
    """The symbol-by-symbol overlap-add that apply_edge_window vectorises."""
    symbol_stream = np.asarray(symbol_stream, dtype=complex)
    length = allocation.symbol_length
    ramp = 0.5 * (1.0 - np.cos(np.pi * (np.arange(window_length) + 0.5) / window_length))
    out = np.zeros(symbol_stream.size + window_length, dtype=complex)
    cp = allocation.cp_length
    for index in range(symbol_stream.size // length):
        symbol = symbol_stream[index * length : (index + 1) * length]
        extended = np.concatenate([symbol, symbol[cp : cp + window_length]])
        extended[:window_length] *= ramp
        extended[-window_length:] *= ramp[::-1]
        out[index * length : index * length + length + window_length] += extended
    return out[: symbol_stream.size]


class TestEdgeWindow:
    @pytest.mark.parametrize(
        "alloc",
        [dot11g_allocation(), wideband_allocation(fft_size=160, start_bin=69)],
        ids=["dot11g", "fig8-wideband"],
    )
    @pytest.mark.parametrize("window", [1, 8, "cp"])
    @pytest.mark.parametrize("n_symbols", [1, 2, 18])
    def test_matches_symbol_by_symbol_overlap_add_bitwise(self, alloc, window, n_symbols):
        window_length = alloc.cp_length if window == "cp" else window
        stream = ofdm.ofdm_modulate(alloc, _random_grid(alloc, n_symbols, 7))
        stream[::5] = -0.0  # signed zeros keep their sign only in the loop's order
        windowed = ofdm.apply_edge_window(stream, alloc, window_length)
        assert windowed.tobytes() == _edge_window_loop(stream, alloc, window_length).tobytes()

    def test_zero_window_is_identity(self):
        alloc = dot11g_allocation()
        stream = ofdm.ofdm_modulate(alloc, _random_grid(alloc, 4, 5))
        assert np.allclose(ofdm.apply_edge_window(stream, alloc, 0), stream)

    def test_output_length_preserved(self):
        alloc = dot11g_allocation()
        stream = ofdm.ofdm_modulate(alloc, _random_grid(alloc, 4, 5))
        windowed = ofdm.apply_edge_window(stream, alloc, 4)
        assert windowed.size == stream.size

    def test_reduces_out_of_band_leakage_for_unaligned_observer(self):
        # A window that straddles a symbol boundary sees less leakage outside
        # the transmitter's band when the edges are tapered.
        alloc = wideband_allocation(fft_size=160, start_bin=69)
        grid = _random_grid(alloc, 10, 6)
        stream = ofdm.ofdm_modulate(alloc, grid)
        windowed = ofdm.apply_edge_window(stream, alloc, 8)
        offset = 97  # not a symbol boundary
        far_bins = np.arange(5, 40)

        def leakage(signal):
            window = signal[offset : offset + alloc.fft_size]
            spectrum = np.fft.fft(window) / np.sqrt(alloc.fft_size)
            return np.sum(np.abs(spectrum[far_bins]) ** 2)

        assert leakage(windowed) < leakage(stream)

    def test_window_longer_than_cp_rejected(self):
        alloc = dot11g_allocation()
        stream = ofdm.ofdm_modulate(alloc, _random_grid(alloc, 2, 0))
        with pytest.raises(ValueError):
            ofdm.apply_edge_window(stream, alloc, 17)

    def test_partial_symbol_stream_rejected(self):
        alloc = dot11g_allocation()
        with pytest.raises(ValueError):
            ofdm.apply_edge_window(np.zeros(81, dtype=complex), alloc, 4)


class TestSymbolStartIndices:
    def test_spacing(self):
        alloc = dot11g_allocation()
        starts = ofdm.symbol_start_indices(alloc, 4, offset=100)
        assert list(starts) == [100, 180, 260, 340]
