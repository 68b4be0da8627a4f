"""Tests for repro.decay.laws."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.decay.laws import ExponentialDecay, LinearDecay

values = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
ages = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)


class TestLinearDecay:
    def test_basic(self):
        law = LinearDecay(rate=10.0)
        assert law.decay(100.0, 5.0) == pytest.approx(50.0)

    def test_floors_at_zero(self):
        assert LinearDecay(10.0).decay(5.0, 100.0) == 0.0

    def test_rejects_negative_age(self):
        with pytest.raises(ValueError):
            LinearDecay(1.0).decay(1.0, -1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinearDecay(0.0)

    @given(values, ages, ages)
    @settings(max_examples=60, deadline=None)
    def test_composes(self, v, a, b):
        law = LinearDecay(3.0)
        direct = law.decay(v, a + b)
        stepped = law.decay(law.decay(v, a), b)
        assert stepped == pytest.approx(direct, rel=1e-9, abs=1e-6)

    @given(values, ages, ages)
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_age(self, v, a, b):
        law = LinearDecay(2.0)
        lo, hi = sorted((a, b))
        assert law.decay(v, hi) <= law.decay(v, lo)


class TestExponentialDecay:
    def test_half_life(self):
        law = ExponentialDecay(half_life=10.0)
        assert law.decay(100.0, 10.0) == pytest.approx(50.0)
        assert law.half_life == pytest.approx(10.0)

    def test_tau(self):
        law = ExponentialDecay(tau=5.0)
        assert law.decay(math.e, 5.0) == pytest.approx(1.0)

    def test_requires_exactly_one_parameter(self):
        with pytest.raises(ValueError):
            ExponentialDecay()
        with pytest.raises(ValueError):
            ExponentialDecay(tau=1.0, half_life=1.0)
        with pytest.raises(ValueError):
            ExponentialDecay(tau=-1.0)

    @given(values, ages, ages)
    @settings(max_examples=60, deadline=None)
    def test_composes(self, v, a, b):
        law = ExponentialDecay(tau=7.0)
        direct = law.decay(v, a + b)
        stepped = law.decay(law.decay(v, a), b)
        assert stepped == pytest.approx(direct, rel=1e-9, abs=1e-6)

    def test_horizon_finite(self):
        assert ExponentialDecay(tau=2.0).horizon() == pytest.approx(80.0)

    def test_rejects_negative_age(self):
        with pytest.raises(ValueError):
            ExponentialDecay(tau=1.0).decay(1.0, -0.5)


class TestVectorizedLaws:
    """decay_array (and decay_factor) must agree with scalar decay."""

    @pytest.mark.parametrize("law", [
        LinearDecay(rate=3.0),
        ExponentialDecay(tau=5.0),
    ])
    def test_decay_array_matches_scalar(self, law):
        import numpy as np

        values_arr = np.array([0.0, 1.0, 10.0, 1e6, 123.456])
        ages_arr = np.array([0.0, 0.5, 5.0, 9.999, 10.0, 100.0])
        for age in ages_arr.tolist():
            out = law.decay_array(values_arr, age)
            expected = [law.decay(v, age) for v in values_arr.tolist()]
            assert out.tolist() == pytest.approx(expected)

    def test_decay_array_elementwise_ages(self):
        import numpy as np

        law = ExponentialDecay(tau=2.0)
        values_arr = np.array([1.0, 2.0, 3.0])
        ages_arr = np.array([0.0, 2.0, 4.0])
        out = law.decay_array(values_arr, ages_arr)
        expected = [law.decay(v, a)
                    for v, a in zip(values_arr.tolist(), ages_arr.tolist())]
        assert out.tolist() == pytest.approx(expected)

    def test_exponential_decay_factor_is_multiplicative(self):
        import numpy as np

        law = ExponentialDecay(tau=3.0)
        ages_arr = np.array([0.0, 1.0, 10.0])
        factors = law.decay_factor(ages_arr)
        assert (7.0 * factors).tolist() == pytest.approx(
            [law.decay(7.0, a) for a in ages_arr.tolist()]
        )
        # Only the exponential law advertises the value-linear fast path.
        assert not hasattr(LinearDecay(1.0), "decay_factor")
