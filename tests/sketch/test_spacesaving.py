"""Tests for repro.sketch.spacesaving, including the classic guarantees."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sketch.spacesaving import SpaceSaving


class TestBasics:
    def test_exact_under_capacity(self):
        ss = SpaceSaving(capacity=10)
        for key, weight in [(1, 5), (2, 3), (1, 2)]:
            ss.update(key, weight)
        assert ss.estimate(1) == 7
        assert ss.estimate(2) == 3

    def test_untracked_key_estimate_is_min_when_full(self):
        ss = SpaceSaving(capacity=2)
        ss.update(1, 10)
        ss.update(2, 20)
        assert ss.estimate(3) == 10  # min counter

    def test_untracked_before_full_is_zero(self):
        ss = SpaceSaving(capacity=5)
        ss.update(1, 10)
        assert ss.estimate(99) == 0

    def test_eviction_inherits_min(self):
        ss = SpaceSaving(capacity=2)
        ss.update(1, 10)
        ss.update(2, 20)
        ss.update(3, 1)  # evicts key 1 (min=10), inherits its count
        assert ss.estimate(3) == 11
        assert len(ss) == 2

    def test_query_threshold(self):
        ss = SpaceSaving(capacity=4)
        for k, w in [(1, 100), (2, 10), (3, 50)]:
            ss.update(k, w)
        assert set(ss.query(50.0)) == {1, 3}

    def test_validation(self):
        with pytest.raises(ValueError):
            SpaceSaving(0)
        with pytest.raises(ValueError):
            SpaceSaving(4).update(1, -1)

    def test_num_counters(self):
        assert SpaceSaving(32).num_counters == 32


class TestGuarantees:
    """The two classic Space-Saving theorems, checked empirically."""

    def _stream(self, seed, n=5000, keys=300):
        rng = random.Random(seed)
        return [
            (rng.randrange(keys) ** 2 % keys, rng.randrange(1, 100))
            for _ in range(n)
        ]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_overestimate_never_underestimates(self, seed):
        ss = SpaceSaving(capacity=64)
        truth: dict[int, int] = {}
        for key, w in self._stream(seed):
            ss.update(key, w)
            truth[key] = truth.get(key, 0) + w
        for key, true_count in truth.items():
            assert ss.estimate(key) >= true_count

    @pytest.mark.parametrize("seed", [4, 5])
    def test_error_bounded_by_total_over_capacity(self, seed):
        capacity = 64
        ss = SpaceSaving(capacity=capacity)
        truth: dict[int, int] = {}
        for key, w in self._stream(seed):
            ss.update(key, w)
            truth[key] = truth.get(key, 0) + w
        bound = ss.total / capacity
        for key in truth:
            assert ss.estimate(key) - truth[key] <= bound + 1e-9

    @pytest.mark.parametrize("seed", [6, 7])
    def test_heavy_keys_always_tracked(self, seed):
        capacity = 64
        ss = SpaceSaving(capacity=capacity)
        truth: dict[int, int] = {}
        for key, w in self._stream(seed):
            ss.update(key, w)
            truth[key] = truth.get(key, 0) + w
        tracked = ss.items()
        for key, count in truth.items():
            if count > ss.total / capacity:
                assert key in tracked

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),
                st.integers(min_value=1, max_value=20),
            ),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_total_preserved(self, stream):
        ss = SpaceSaving(capacity=8)
        for key, w in stream:
            ss.update(key, w)
        assert ss.total == sum(w for _, w in stream)
