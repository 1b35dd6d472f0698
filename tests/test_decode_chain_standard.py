"""Tests for the FEC decode chain and the standard receiver (end to end)."""

import numpy as np
import pytest

from repro.channel.multipath import ExponentialMultipathChannel
from repro.channel.scenario import Scenario
from repro.phy.frame import FrameSpec, encode_data_field, prepare_data_bits
from repro.phy.subcarriers import dot11g_allocation, wideband_allocation
from repro.receiver.decode_chain import decode_coded_bits, decode_coded_bits_batch
from repro.receiver.standard import StandardOfdmReceiver
from repro.utils.bits import random_bytes


class TestDecodeChain:
    @pytest.mark.parametrize("mcs", ["bpsk-1/2", "qpsk-3/4", "16qam-1/2", "64qam-2/3"])
    def test_noiseless_roundtrip(self, mcs):
        spec = FrameSpec(dot11g_allocation(), mcs, payload_length=57)
        payload = random_bytes(57, np.random.default_rng(0))
        psdu = spec.build_psdu(payload)
        coded = encode_data_field(spec, prepare_data_bits(spec, psdu))
        frame = decode_coded_bits(spec, coded)
        assert frame.crc_ok
        assert frame.payload == payload

    def test_few_bit_errors_corrected(self):
        spec = FrameSpec(dot11g_allocation(), "qpsk-1/2", payload_length=40)
        payload = random_bytes(40, np.random.default_rng(1))
        coded = encode_data_field(spec, prepare_data_bits(spec, spec.build_psdu(payload)))
        corrupted = coded.copy()
        corrupted[::97] ^= 1
        frame = decode_coded_bits(spec, corrupted)
        assert frame.crc_ok
        assert frame.payload == payload

    def test_heavy_corruption_fails_crc(self):
        spec = FrameSpec(dot11g_allocation(), "qpsk-1/2", payload_length=40)
        coded = np.random.default_rng(0).integers(0, 2, spec.n_coded_bits).astype(np.uint8)
        assert not decode_coded_bits(spec, coded).crc_ok

    def test_batch_matches_single(self):
        spec = FrameSpec(dot11g_allocation(), "16qam-1/2", payload_length=25)
        rng = np.random.default_rng(2)
        payloads = [random_bytes(25, rng) for _ in range(3)]
        coded = np.stack([
            encode_data_field(spec, prepare_data_bits(spec, spec.build_psdu(p))) for p in payloads
        ])
        frames = decode_coded_bits_batch(spec, coded)
        assert all(f.crc_ok for f in frames)
        assert [f.payload for f in frames] == payloads

    def test_wrong_length_rejected(self):
        spec = FrameSpec(dot11g_allocation(), "qpsk-1/2", payload_length=10)
        with pytest.raises(ValueError):
            decode_coded_bits(spec, np.zeros(10, dtype=np.uint8))


class TestStandardReceiverEndToEnd:
    @pytest.mark.parametrize("mcs,snr_db", [("qpsk-1/2", 20.0), ("16qam-1/2", 25.0), ("64qam-2/3", 32.0)])
    def test_clean_channel_decodes(self, mcs, snr_db):
        scenario = Scenario(dot11g_allocation(), mcs_name=mcs, payload_length=60, snr_db=snr_db)
        receiver = StandardOfdmReceiver()
        successes = sum(receiver.receive(scenario.realize(seed)).success for seed in range(5))
        assert successes == 5

    def test_decoded_payload_matches_transmitted(self):
        scenario = Scenario(dot11g_allocation(), mcs_name="qpsk-1/2", payload_length=60, snr_db=30.0)
        rx = scenario.realize(0)
        out = StandardOfdmReceiver().receive(rx)
        assert out.success
        assert out.payload == rx.tx_frame.payload

    def test_multipath_channel_decodes(self):
        alloc = dot11g_allocation()
        channel = ExponentialMultipathChannel(100e-9, alloc.sample_rate_hz)
        scenario = Scenario(alloc, mcs_name="qpsk-1/2", payload_length=60, snr_db=28.0,
                            channel=channel)
        receiver = StandardOfdmReceiver()
        successes = sum(receiver.receive(scenario.realize(seed)).success for seed in range(6))
        assert successes >= 5

    def test_wideband_allocation_decodes(self):
        scenario = Scenario(wideband_allocation(), mcs_name="16qam-1/2", payload_length=60,
                            snr_db=28.0)
        assert StandardOfdmReceiver().receive(scenario.realize(1)).success

    def test_very_low_snr_fails(self):
        scenario = Scenario(dot11g_allocation(), mcs_name="64qam-2/3", payload_length=60, snr_db=5.0)
        assert not StandardOfdmReceiver().receive(scenario.realize(0)).success

    def test_demodulate_decisions_shape(self):
        scenario = Scenario(dot11g_allocation(), mcs_name="qpsk-1/2", payload_length=60, snr_db=30.0)
        rx = scenario.realize(0)
        demod = StandardOfdmReceiver().demodulate(rx)
        assert demod.decisions.shape == (rx.spec.n_data_symbols, 48)
        assert demod.coded_bits.size == rx.spec.n_coded_bits
