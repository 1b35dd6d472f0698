"""Unit and property tests for convolutional coding and Viterbi decoding."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.phy import convolutional as cc
from repro.phy.viterbi import ViterbiDecoder, viterbi_decode, viterbi_decode_batch
from repro.utils.bits import random_bits


def _terminated_bits(length, seed):
    bits = random_bits(length, np.random.default_rng(seed))
    bits[-(cc.CONSTRAINT_LENGTH - 1):] = 0
    return bits


class TestEncoder:
    def test_rate_half_output_length(self):
        coded = cc.conv_encode(np.zeros(10, dtype=np.uint8))
        assert coded.size == 20

    def test_all_zero_input_gives_all_zero_output(self):
        assert not np.any(cc.conv_encode(np.zeros(50, dtype=np.uint8)))

    def test_known_impulse_response(self):
        # A single 1 produces the generator taps on each stream.
        coded = cc.conv_encode(np.array([1, 0, 0, 0, 0, 0, 0], dtype=np.uint8))
        stream_a = coded[0::2]
        stream_b = coded[1::2]
        assert list(stream_a) == [1, 0, 1, 1, 0, 1, 1]  # 133 octal
        assert list(stream_b) == [1, 1, 1, 1, 0, 0, 1]  # 171 octal

    def test_linearity_over_gf2(self):
        rng = np.random.default_rng(0)
        a = random_bits(40, rng)
        b = random_bits(40, rng)
        lhs = cc.conv_encode((a ^ b).astype(np.uint8))
        rhs = (cc.conv_encode(a) ^ cc.conv_encode(b)).astype(np.uint8)
        assert np.array_equal(lhs, rhs)

    def test_empty_input(self):
        assert cc.conv_encode(np.array([], dtype=np.uint8)).size == 0

    def test_terminate_appends_tail(self):
        coded = cc.conv_encode(np.ones(4, dtype=np.uint8), terminate=True)
        assert coded.size == 2 * (4 + cc.CONSTRAINT_LENGTH - 1)


class TestPuncturing:
    @pytest.mark.parametrize("rate,keep_fraction", [("1/2", 1.0), ("2/3", 0.75), ("3/4", 2.0 / 3.0)])
    def test_puncture_ratio(self, rate, keep_fraction):
        coded = cc.conv_encode(np.zeros(120, dtype=np.uint8))
        punctured = cc.puncture(coded, rate)
        assert punctured.size == pytest.approx(coded.size * keep_fraction)

    @pytest.mark.parametrize("rate", ["1/2", "2/3", "3/4"])
    def test_depuncture_restores_positions(self, rate):
        bits = _terminated_bits(48, 3)
        coded = cc.conv_encode(bits)
        punctured = cc.puncture(coded, rate)
        restored, mask = cc.depuncture(punctured, rate, coded.size)
        assert restored.size == coded.size
        assert np.array_equal(restored[mask], coded[mask.astype(bool)])

    def test_depuncture_wrong_length_raises(self):
        with pytest.raises(ValueError):
            cc.depuncture(np.zeros(5, dtype=np.uint8), "3/4", 12)

    def test_unknown_rate_raises(self):
        with pytest.raises(ValueError):
            cc.puncture(np.zeros(8, dtype=np.uint8), "5/6")

    @pytest.mark.parametrize("rate", ["1/2", "2/3", "3/4"])
    def test_puncture_mask_repeats_the_pattern_like_np_resize(self, rate):
        pattern = cc.PUNCTURE_PATTERNS[rate]
        for length in range(1, 37):
            mask = cc.puncture_mask(rate, length)
            assert mask.dtype == np.bool_
            assert np.array_equal(mask, np.resize(pattern, length).astype(bool)), length

    def test_coded_length_helper(self):
        assert cc.coded_length(100, "1/2") == 200
        assert cc.coded_length(96, "3/4") == 128
        assert cc.coded_length(96, "2/3") == 144


class TestViterbi:
    @pytest.mark.parametrize("rate", ["1/2", "2/3", "3/4"])
    def test_noiseless_roundtrip(self, rate):
        bits = _terminated_bits(96, 11)
        coded = cc.conv_encode(bits)
        punctured = cc.puncture(coded, rate)
        full, mask = cc.depuncture(punctured, rate, coded.size)
        assert np.array_equal(viterbi_decode(full, mask), bits)

    def test_corrects_scattered_errors_rate_half(self):
        bits = _terminated_bits(200, 5)
        coded = cc.conv_encode(bits)
        corrupted = coded.copy()
        corrupted[::40] ^= 1  # a few well-separated errors
        assert np.array_equal(viterbi_decode(corrupted), bits)

    def test_batch_matches_single(self):
        batch = np.stack([cc.conv_encode(_terminated_bits(60, seed)) for seed in range(4)])
        decoded_batch = viterbi_decode_batch(batch)
        for row, seed in zip(decoded_batch, range(4)):
            assert np.array_equal(row, viterbi_decode(batch[seed]))

    def test_unterminated_mode(self):
        bits = random_bits(80, np.random.default_rng(2))
        coded = cc.conv_encode(bits)
        decoded = ViterbiDecoder(terminated=False).decode(coded)
        # The tail of an unterminated trellis may be ambiguous; the body must match.
        assert np.array_equal(decoded[:-6], bits[:-6])

    def test_soft_decoding_noiseless(self):
        bits = _terminated_bits(120, 9)
        coded = cc.conv_encode(bits).astype(float)
        llrs = 4.0 * (1.0 - 2.0 * coded)  # positive for 0, negative for 1
        decoded = ViterbiDecoder().decode_soft_batch(llrs[None, :])[0]
        assert np.array_equal(decoded, bits)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            viterbi_decode_batch(np.zeros((2, 7), dtype=np.uint8))

    def test_known_mask_must_be_boolean_or_01_integers(self):
        coded = cc.conv_encode(_terminated_bits(40, 4))
        _, mask = cc.depuncture(cc.puncture(coded, "3/4"), "3/4", coded.size)
        expected = viterbi_decode(coded, mask.astype(bool))
        assert np.array_equal(viterbi_decode(coded, mask.astype(np.int64)), expected)
        # A float mask would silently weight the Hamming costs.
        for bad in (mask.astype(float), 0.5 * mask, 2 * mask.astype(np.int64)):
            with pytest.raises(ValueError, match="known_mask"):
                viterbi_decode(coded, bad)
            with pytest.raises(ValueError, match="known_mask"):
                viterbi_decode_batch(coded[None, :], bad[None, :])

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**16 - 1))
    def test_random_messages_roundtrip(self, seed):
        bits = _terminated_bits(64, seed)
        assert np.array_equal(viterbi_decode(cc.conv_encode(bits)), bits)
