"""Unit tests for repro.utils.dsp."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils import dsp


class TestDbConversions:
    def test_db_to_linear_known_values(self):
        assert dsp.db_to_linear(0.0) == pytest.approx(1.0)
        assert dsp.db_to_linear(10.0) == pytest.approx(10.0)
        assert dsp.db_to_linear(-10.0) == pytest.approx(0.1)

    def test_linear_to_db_known_values(self):
        assert dsp.linear_to_db(1.0) == pytest.approx(0.0)
        assert dsp.linear_to_db(100.0) == pytest.approx(20.0)

    def test_linear_to_db_floors_zero(self):
        assert np.isfinite(dsp.linear_to_db(0.0))

    def test_linear_to_db_custom_floor(self):
        assert dsp.linear_to_db(0.0, floor=1e-3) == pytest.approx(-30.0)
        assert dsp.linear_to_db(1e-6, floor=1e-3) == pytest.approx(-30.0)
        assert dsp.linear_to_db(0.5, floor=1e-3) == pytest.approx(10 * np.log10(0.5))

    def test_linear_to_db_clamps_negative_values_to_the_floor(self):
        assert dsp.linear_to_db(-5.0) == dsp.linear_to_db(0.0) == pytest.approx(-300.0)

    @given(st.floats(min_value=-120.0, max_value=120.0))
    def test_roundtrip(self, value_db):
        assert dsp.linear_to_db(dsp.db_to_linear(value_db)) == pytest.approx(value_db, abs=1e-9)

    def test_array_input(self):
        out = dsp.db_to_linear(np.array([0.0, 10.0]))
        assert np.allclose(out, [1.0, 10.0])

    def test_linear_to_db_array_input_is_elementwise(self):
        out = dsp.linear_to_db(np.array([1.0, 10.0, 0.0]), floor=1e-6)
        assert np.allclose(out, [0.0, 10.0, -60.0])


class TestPower:
    def test_signal_power_unit_tone(self):
        tone = np.exp(1j * np.linspace(0, 20 * np.pi, 1000))
        assert dsp.signal_power(tone) == pytest.approx(1.0)

    def test_signal_power_averages_every_sample_of_a_matrix(self):
        samples = np.array([[1.0, 1j], [3.0, -3j]])
        assert dsp.signal_power(samples) == pytest.approx(5.0)

    def test_signal_power_of_real_samples(self):
        power = dsp.signal_power(np.array([1.0, -1.0, 3.0, -3.0]))
        assert isinstance(power, float)
        assert power == pytest.approx(5.0)

    def test_signal_power_empty_raises(self):
        with pytest.raises(ValueError):
            dsp.signal_power(np.array([]))
