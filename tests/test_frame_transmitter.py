"""Unit tests for preambles, frame specification and the transmitter."""

import numpy as np
import pytest

from repro.experiments.config import aci_scenario
from repro.phy import frame as frame_module
from repro.phy.frame import SERVICE_BITS, TAIL_BITS, FrameSpec, encode_data_field, prepare_data_bits
from repro.phy.mcs import MCS_TABLE
from repro.phy.preamble import dot11_ltf_sequence, preamble_frequency_symbols
from repro.phy.subcarriers import dot11g_allocation, wideband_allocation
from repro.phy.transmitter import OfdmTransmitter


class TestPreamble:
    def test_ltf_occupies_52_bins(self):
        ltf = dot11_ltf_sequence()
        assert np.count_nonzero(ltf) == 52
        assert set(np.unique(ltf[ltf != 0].real)) <= {-1.0, 1.0}

    def test_ltf_leaves_dc_and_band_edges_empty(self):
        ltf = dot11_ltf_sequence()
        assert ltf[0] == 0
        assert not np.any(ltf[27:38])

    def test_ltf_needs_a_64_bin_grid(self):
        with pytest.raises(ValueError, match="64-bin"):
            dot11_ltf_sequence(128)

    def test_dot11_preamble_uses_ltf(self):
        alloc = dot11g_allocation()
        preamble = preamble_frequency_symbols(alloc, 2)
        assert np.allclose(preamble[0], dot11_ltf_sequence())
        assert np.allclose(preamble[0], preamble[1])

    def test_generic_preamble_known_and_bpsk(self):
        alloc = wideband_allocation()
        a = preamble_frequency_symbols(alloc, 3, seed=5)
        b = preamble_frequency_symbols(alloc, 3, seed=5)
        assert np.allclose(a, b)
        occupied = alloc.occupied_bin_array()
        assert set(np.unique(a[:, occupied].real)) <= {-1.0, 1.0}

    def test_generic_preamble_depends_on_the_seed_only_on_occupied_bins(self):
        alloc = wideband_allocation()
        a = preamble_frequency_symbols(alloc, 2, seed=5)
        b = preamble_frequency_symbols(alloc, 2, seed=6)
        occupied = alloc.occupied_bin_array()
        assert not np.array_equal(a[:, occupied], b[:, occupied])
        assert not np.array_equal(a[0], a[1])  # each training symbol is drawn
        empty = np.setdiff1d(np.arange(alloc.fft_size), occupied)
        assert not np.any(a[:, empty]) and not np.any(b[:, empty])

    def test_preamble_needs_at_least_one_symbol(self):
        with pytest.raises(ValueError):
            preamble_frequency_symbols(dot11g_allocation(), 0)


class TestFrameSpec:
    def test_symbol_count_matches_dot11_formula(self):
        spec = FrameSpec(dot11g_allocation(), "qpsk-1/2", payload_length=100)
        n_bits = SERVICE_BITS + 8 * (100 + 4) + TAIL_BITS
        assert spec.n_data_symbols == int(np.ceil(n_bits / 48))

    def test_psdu_and_information_bit_counts(self):
        spec = FrameSpec(dot11g_allocation(), "qpsk-1/2", payload_length=100)
        assert spec.psdu_length == 104  # payload plus the CRC-32
        assert spec.n_information_bits == SERVICE_BITS + 8 * 104 + TAIL_BITS

    @pytest.mark.parametrize("mcs_name", sorted(MCS_TABLE))
    def test_nominal_rate_matches_the_mcs_table(self, mcs_name):
        # One 802.11a/g data symbol lasts 4 us, so N_DBPS / 4 us is the
        # scheme's nominal rate (6 to 54 Mbit/s).
        spec = FrameSpec(dot11g_allocation(), mcs_name, payload_length=100)
        symbol_s = dot11g_allocation().symbol_duration_s
        assert spec.data_bits_per_symbol / symbol_s == pytest.approx(
            MCS_TABLE[mcs_name].data_rate_mbps * 1e6
        )
        assert spec.duration_s == pytest.approx((2 + spec.n_data_symbols) * 4e-6)

    def test_invalid_preamble_count(self):
        with pytest.raises(ValueError, match="n_preamble_symbols"):
            FrameSpec(dot11g_allocation(), "qpsk-1/2", payload_length=10, n_preamble_symbols=0)

    def test_unknown_mcs_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown MCS"):
            FrameSpec(dot11g_allocation(), "qpsk-5/6", payload_length=10)

    @pytest.mark.parametrize("n_preamble_symbols", [1, 2, 4])
    def test_training_symbols_set_the_data_start(self, n_preamble_symbols):
        spec = FrameSpec(dot11g_allocation(), "qpsk-1/2", payload_length=20,
                         n_preamble_symbols=n_preamble_symbols)
        assert spec.preamble_frequency.shape == (n_preamble_symbols, 64)
        assert spec.data_start == n_preamble_symbols * 80
        assert spec.data_pilot_values.shape == (spec.n_data_symbols, 4)

    def test_coded_bit_budget_consistent(self):
        spec = FrameSpec(dot11g_allocation(), "64qam-2/3", payload_length=57)
        assert spec.n_coded_bits == spec.n_data_symbols * spec.coded_bits_per_symbol
        assert spec.n_padded_data_bits == spec.n_data_symbols * spec.data_bits_per_symbol

    def test_geometry(self):
        spec = FrameSpec(dot11g_allocation(), "qpsk-1/2", payload_length=20)
        assert spec.data_start == 2 * 80
        assert spec.n_samples == spec.data_start + spec.n_data_symbols * 80

    def test_psdu_roundtrip(self):
        spec = FrameSpec(dot11g_allocation(), "qpsk-1/2", payload_length=10)
        psdu = spec.build_psdu(b"0123456789")
        assert spec.check_psdu(psdu)
        assert not spec.check_psdu(psdu[:-1] + b"\x00")

    def test_build_psdu_rejects_wrong_payload_length(self):
        spec = FrameSpec(dot11g_allocation(), "qpsk-1/2", payload_length=10)
        with pytest.raises(ValueError, match="payload length 9"):
            spec.build_psdu(bytes(9))

    def test_check_psdu_rejects_wrong_length(self):
        spec = FrameSpec(dot11g_allocation(), "qpsk-1/2", payload_length=10)
        psdu = spec.build_psdu(bytes(10))
        assert not spec.check_psdu(psdu + b"\x00")
        assert not spec.check_psdu(psdu[:-1])

    def test_invalid_payload_length(self):
        with pytest.raises(ValueError):
            FrameSpec(dot11g_allocation(), "qpsk-1/2", payload_length=0)

    def test_encode_data_field_length(self):
        spec = FrameSpec(dot11g_allocation(), "16qam-1/2", payload_length=33)
        psdu = spec.build_psdu(bytes(33))
        coded = encode_data_field(spec, prepare_data_bits(spec, psdu))
        assert coded.size == spec.n_coded_bits

    def test_encode_data_field_rejects_wrong_bit_count(self):
        spec = FrameSpec(dot11g_allocation(), "qpsk-1/2", payload_length=10)
        with pytest.raises(ValueError, match="data bits"):
            encode_data_field(spec, np.zeros(spec.n_padded_data_bits - 1, dtype=np.uint8))

    def test_tail_bits_stay_zero_after_scrambling(self):
        # The encoder must end in state zero: with the tail forced back to
        # zero, encoding is unchanged by whatever the tail held before.
        spec = FrameSpec(dot11g_allocation(), "qpsk-1/2", payload_length=10)
        bits = prepare_data_bits(spec, spec.build_psdu(b"0123456789"))
        tail_start = SERVICE_BITS + 8 * spec.psdu_length
        dirty = bits.copy()
        dirty[tail_start : tail_start + TAIL_BITS] = 1
        assert np.array_equal(encode_data_field(spec, dirty), encode_data_field(spec, bits))

    def test_prepare_data_bits_rejects_wrong_psdu(self):
        spec = FrameSpec(dot11g_allocation(), "qpsk-1/2", payload_length=10)
        with pytest.raises(ValueError):
            prepare_data_bits(spec, bytes(5))


class TestTransmitter:
    @pytest.mark.parametrize("mcs", ["qpsk-1/2", "16qam-1/2", "64qam-2/3"])
    def test_frame_length_matches_spec(self, mcs):
        tx = OfdmTransmitter(dot11g_allocation(), mcs_name=mcs)
        frame = tx.random_frame(80, 0)
        assert frame.n_samples == frame.spec.n_samples
        assert frame.data_points.shape == (frame.spec.n_data_symbols, 48)

    def test_frame_is_deterministic_given_payload(self):
        tx = OfdmTransmitter(dot11g_allocation())
        a = tx.build_frame(b"x" * 40)
        b = tx.build_frame(b"x" * 40)
        assert np.allclose(a.waveform, b.waveform)

    def test_psdu_contains_payload_and_crc(self):
        tx = OfdmTransmitter(dot11g_allocation())
        frame = tx.build_frame(b"hello-world-payload")
        assert frame.psdu[:-4] == b"hello-world-payload"

    def test_symbol_stream_length(self):
        alloc = wideband_allocation()
        tx = OfdmTransmitter(alloc)
        stream = tx.symbol_stream(7, 0)
        assert stream.size == 7 * alloc.symbol_length

    def test_symbol_stream_occupies_only_allocated_band(self):
        alloc = wideband_allocation(fft_size=160, start_bin=69)
        tx = OfdmTransmitter(alloc)
        stream = tx.symbol_stream(5, 1)
        # FFT aligned with a symbol boundary: energy confined to the block.
        spectrum = np.fft.fft(stream[alloc.cp_length : alloc.cp_length + 160]) / np.sqrt(160)
        out_of_band = np.setdiff1d(np.arange(160), alloc.occupied_bin_array())
        in_band_power = np.mean(np.abs(spectrum[alloc.occupied_bin_array()]) ** 2)
        out_band_power = np.mean(np.abs(spectrum[out_of_band]) ** 2)
        assert out_band_power < 1e-20 * in_band_power

    def test_edge_window_stream_same_length(self):
        alloc = wideband_allocation()
        tx = OfdmTransmitter(alloc, edge_window_length=8)
        assert tx.symbol_stream(4, 0).size == 4 * alloc.symbol_length

    def test_negative_edge_window_rejected(self):
        with pytest.raises(ValueError):
            OfdmTransmitter(dot11g_allocation(), edge_window_length=-1)

    def test_symbol_stream_needs_positive_count(self):
        with pytest.raises(ValueError):
            OfdmTransmitter(dot11g_allocation()).symbol_stream(0, 0)

    def test_packets_of_one_scenario_share_one_frame_spec(self, monkeypatch):
        calls = []
        original = frame_module.preamble_frequency_symbols

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(frame_module, "preamble_frequency_symbols", counting)
        scenario = aci_scenario("qpsk-1/2", -10.0, payload_length=30)
        first, second = scenario.realize_batch(2, seed=3)
        assert first.spec is second.spec
        assert len(calls) == 1
        # The shared arrays cannot be changed through one packet's spec.
        assert not first.spec.preamble_frequency.flags.writeable
        assert not first.spec.data_pilot_values.flags.writeable
