"""Unit tests for repro.utils.rng and repro.utils.validation."""

import numpy as np
import pytest

from repro.utils import rng as rng_utils
from repro.utils import validation


class TestRng:
    def test_ensure_rng_from_seed(self):
        a = rng_utils.ensure_rng(5)
        b = rng_utils.ensure_rng(5)
        assert a.integers(0, 1000) == b.integers(0, 1000)

    def test_ensure_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert rng_utils.ensure_rng(gen) is gen

    def test_ensure_rng_none_gives_generator(self):
        assert isinstance(rng_utils.ensure_rng(None), np.random.Generator)

    def test_child_rng_streams_independent(self):
        a = rng_utils.child_rng(1, 0).integers(0, 10**9)
        b = rng_utils.child_rng(1, 1).integers(0, 10**9)
        assert a != b

    def test_child_rng_deterministic(self):
        assert (
            rng_utils.child_rng(7, 3).integers(0, 10**9)
            == rng_utils.child_rng(7, 3).integers(0, 10**9)
        )

    def test_spawn_rngs_count(self):
        gens = rng_utils.spawn_rngs(2, 4)
        assert len(gens) == 4
        values = {g.integers(0, 10**9) for g in gens}
        assert len(values) == 4

    def test_spawn_rngs_are_the_child_streams(self):
        # Generator i of spawn_rngs(seed, n) is child_rng(seed, i): a packet
        # can be re-drawn in isolation from its index alone.
        for index, gen in enumerate(rng_utils.spawn_rngs(4, 3)):
            expected = rng_utils.child_rng(4, index).standard_normal(8)
            assert gen.standard_normal(8).tobytes() == expected.tobytes()

    def test_child_rng_stream_path_is_ordered(self):
        draws = {
            stream: rng_utils.child_rng(1, *stream).integers(0, 10**9)
            for stream in [(1,), (2,), (1, 2), (2, 1), (1, 1, 2)]
        }
        assert len(set(draws.values())) == len(draws)

    def test_ensure_rng_accepts_numpy_integer_seed(self):
        a = rng_utils.ensure_rng(np.int64(5)).integers(0, 10**9)
        assert a == rng_utils.ensure_rng(5).integers(0, 10**9)


class TestValidation:
    def test_require_positive_int(self):
        assert validation.require_positive_int(3, "x") == 3
        with pytest.raises(ValueError):
            validation.require_positive_int(0, "x")
        with pytest.raises(TypeError):
            validation.require_positive_int(1.5, "x")
        with pytest.raises(TypeError):
            validation.require_positive_int(True, "x")

    def test_require_non_negative_int(self):
        assert validation.require_non_negative_int(0, "x") == 0
        with pytest.raises(ValueError):
            validation.require_non_negative_int(-1, "x")

    @pytest.mark.parametrize("value", [1.0, True, "1"])
    def test_require_non_negative_int_rejects_non_integers(self, value):
        with pytest.raises(TypeError, match="x must be an integer"):
            validation.require_non_negative_int(value, "x")

    @pytest.mark.parametrize(
        "check", [validation.require_positive_int, validation.require_non_negative_int]
    )
    def test_integer_checks_return_python_ints(self, check):
        out = check(np.int64(3), "x")
        assert out == 3 and type(out) is int

    def test_require_positive(self):
        assert validation.require_positive(0.5, "x") == 0.5
        with pytest.raises(ValueError):
            validation.require_positive(0.0, "x")

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_require_positive_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="x must be finite and positive"):
            validation.require_positive(value, "x")

    def test_require_non_negative(self):
        assert validation.require_non_negative(0, "x") == 0.0
        assert validation.require_non_negative(2.5, "x") == 2.5
        with pytest.raises(ValueError, match="x must be finite and non-negative"):
            validation.require_non_negative(-0.1, "x")

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_require_non_negative_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="x must be finite"):
            validation.require_non_negative(value, "x")

    def test_require_unique_indices(self):
        out = validation.require_unique_indices([1, 2, 3], "bins", 10)
        assert list(out) == [1, 2, 3]
        with pytest.raises(ValueError):
            validation.require_unique_indices([1, 1], "bins", 10)
        with pytest.raises(ValueError):
            validation.require_unique_indices([10], "bins", 10)

    def test_require_unique_indices_rejects_negative_bins(self):
        with pytest.raises(ValueError, match=r"bins indices must lie in \[0, 10\)"):
            validation.require_unique_indices([-1, 2], "bins", 10)

    def test_require_unique_indices_accepts_no_bins(self):
        # An allocation without pilots validates an empty pilot set.
        out = validation.require_unique_indices((), "pilot_bins", 64)
        assert out.size == 0 and out.dtype.kind == "i"
