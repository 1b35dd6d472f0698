"""Unit and property tests for the scrambler and CRC-32."""

import binascii

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.phy import crc, scrambler
from repro.utils.bits import random_bits


class TestScrambler:
    def test_sequence_period_127(self):
        seq = scrambler.scrambler_sequence(254)
        assert np.array_equal(seq[:127], seq[127:254])

    def test_sequence_known_all_ones_seed_prefix(self):
        # First bits of the 802.11 sequence for the all-ones state.
        seq = scrambler.scrambler_sequence(16, seed=0b1111111)
        assert list(seq[:8]) == [0, 0, 0, 0, 1, 1, 1, 0]

    def test_scramble_is_involution(self):
        bits = random_bits(500, np.random.default_rng(0))
        assert np.array_equal(scrambler.descramble(scrambler.scramble(bits)), bits)

    @given(st.integers(min_value=1, max_value=127), st.integers(min_value=0, max_value=300))
    def test_involution_property(self, seed, length):
        bits = random_bits(length, np.random.default_rng(length))
        out = scrambler.descramble(scrambler.scramble(bits, seed), seed)
        assert np.array_equal(out, bits)

    def test_different_seeds_differ(self):
        bits = np.zeros(127, dtype=np.uint8)
        a = scrambler.scramble(bits, seed=1)
        b = scrambler.scramble(bits, seed=2)
        assert not np.array_equal(a, b)

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            scrambler.scrambler_sequence(10, seed=0)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            scrambler.scrambler_sequence(-1)

    def test_sequence_is_balanced(self):
        seq = scrambler.scrambler_sequence(127)
        assert abs(int(seq.sum()) - 64) <= 1


class TestCrc32:
    def test_standard_check_value(self):
        # The CRC-32 catalogue's check value pins the algorithm itself.
        assert crc.crc32(b"123456789") == 0xCBF43926

    def test_matches_binascii(self):
        data = b"The quick brown fox jumps over the lazy dog"
        assert crc.crc32(data) == binascii.crc32(data)

    @given(st.binary(min_size=0, max_size=200))
    def test_matches_binascii_property(self, data):
        assert crc.crc32(data) == binascii.crc32(data)

    def test_append_and_check(self):
        frame = crc.append_crc32(b"hello world")
        assert crc.check_crc32(frame)
        assert len(frame) == len(b"hello world") + crc.CRC32_LENGTH_BYTES

    def test_check_detects_single_bit_error(self):
        frame = bytearray(crc.append_crc32(b"payload data"))
        frame[3] ^= 0x01
        assert not crc.check_crc32(bytes(frame))

    @given(st.binary(min_size=1, max_size=100), st.integers(min_value=0, max_value=7))
    def test_detects_any_single_bit_flip(self, data, bit):
        frame = bytearray(crc.append_crc32(data))
        frame[len(frame) // 2] ^= 1 << bit
        assert not crc.check_crc32(bytes(frame))

    def test_check_too_short(self):
        assert not crc.check_crc32(b"ab")

    def test_empty_payload(self):
        assert crc.check_crc32(crc.append_crc32(b""))
