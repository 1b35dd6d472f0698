"""Unit and property tests for repro.utils.bits."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils import bits


class TestBytesBits:
    def test_bytes_to_bits_lsb_first(self):
        out = bits.bytes_to_bits(b"\x01")
        assert list(out) == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_first_octet_is_sent_first(self):
        out = bits.bytes_to_bits(b"\x01\x80")
        assert out.dtype == np.uint8
        assert np.flatnonzero(out).tolist() == [0, 15]

    @pytest.mark.parametrize("wrap", [bytes, bytearray, lambda data: np.frombuffer(data, np.uint8)])
    def test_bytes_to_bits_accepts_every_byte_container(self, wrap):
        data = b"\x0f\xa5"
        assert np.array_equal(bits.bytes_to_bits(wrap(data)), bits.bytes_to_bits(data))

    def test_empty_roundtrip(self):
        empty = bits.bytes_to_bits(b"")
        assert empty.size == 0 and empty.dtype == np.uint8
        assert bits.bits_to_bytes(empty) == b""

    def test_bits_to_bytes_inverse(self):
        data = b"\x0f\xa5\x00\xff"
        assert bits.bits_to_bytes(bits.bytes_to_bits(data)) == data

    @given(st.binary(min_size=0, max_size=64))
    def test_roundtrip_property(self, data):
        assert bits.bits_to_bytes(bits.bytes_to_bits(data)) == data

    def test_bits_to_bytes_requires_multiple_of_8(self):
        with pytest.raises(ValueError):
            bits.bits_to_bytes(np.zeros(7, dtype=np.uint8))


class TestErrorsAndHelpers:
    def test_random_bits_deterministic_per_seed(self):
        a = bits.random_bits(100, np.random.default_rng(3))
        b = bits.random_bits(100, np.random.default_rng(3))
        assert np.array_equal(a, b)
        assert set(np.unique(a)).issubset({0, 1})

    def test_random_bits_zero_count(self):
        out = bits.random_bits(0, np.random.default_rng(0))
        assert out.size == 0 and out.dtype == np.uint8

    def test_random_bytes_length(self):
        assert len(bits.random_bytes(33, np.random.default_rng(0))) == 33

    def test_random_bytes_deterministic_per_seed(self):
        a = bits.random_bytes(64, np.random.default_rng(4))
        assert a == bits.random_bytes(64, np.random.default_rng(4))
        assert a != bits.random_bytes(64, np.random.default_rng(5))
