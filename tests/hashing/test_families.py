"""Unit tests for repro.hashing.families."""

import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.hashing.families import (
    _PRIME,
    MultiplyShiftFamily,
    _AffineSign,
    _AffineSlot,
    _affine_mod_p,
)

keys = st.integers(min_value=0, max_value=(1 << 32) - 1)


@pytest.mark.parametrize("family_cls", [MultiplyShiftFamily])
class TestFamilies:
    def test_deterministic_per_seed(self, family_cls):
        h1 = family_cls(seed=3).function(0, 100)
        h2 = family_cls(seed=3).function(0, 100)
        assert [h1(k) for k in range(50)] == [h2(k) for k in range(50)]

    def test_different_indexes_differ(self, family_cls):
        family = family_cls(seed=1)
        h0 = family.function(0, 1 << 20)
        h1 = family.function(1, 1 << 20)
        same = sum(h0(k) == h1(k) for k in range(2000))
        assert same < 10  # collisions should be ~2000/2^20

    def test_different_seeds_differ(self, family_cls):
        h0 = family_cls(seed=0).function(0, 1 << 20)
        h1 = family_cls(seed=1).function(0, 1 << 20)
        same = sum(h0(k) == h1(k) for k in range(2000))
        assert same < 10

    def test_range_respected(self, family_cls):
        h = family_cls(seed=9).function(0, 7)
        assert all(0 <= h(k) < 7 for k in range(1000))

    def test_rejects_empty_range(self, family_cls):
        with pytest.raises(ValueError):
            family_cls().function(0, 0)

    def test_sign_function_balanced(self, family_cls):
        s = family_cls(seed=2).sign_function(0)
        values = [s(k) for k in range(4000)]
        assert set(values) <= {-1, 1}
        balance = sum(values) / len(values)
        assert abs(balance) < 0.1

    def test_distribution_roughly_uniform(self, family_cls):
        h = family_cls(seed=4).function(0, 10)
        buckets = [0] * 10
        for k in range(10000):
            buckets[h(k)] += 1
        assert min(buckets) > 700  # expected 1000 each


def test_equality_tells_kind_and_parameters_apart():
    """Merge validation compares functions: equal only for the same kind
    with the same parameters, and still so after a pickle round trip."""
    family = MultiplyShiftFamily(seed=5)
    assert family.function(0, 64) == MultiplyShiftFamily(seed=5).function(0, 64)
    assert family.function(0, 64) != MultiplyShiftFamily(seed=6).function(0, 64)
    assert family.function(0, 64) != family.function(0, 128)
    sign = family.sign_function(0)
    assert sign == family.sign_function(0)
    assert sign != family.sign_function(1)
    assert sign != _AffineSlot(sign.a, sign.b, 2)
    assert pickle.loads(pickle.dumps(sign)) == sign


def test_final_mod_p_subtract():
    """``a=1, b=p-1`` folds every key k >= 1 to ``k + p - 1 >= p``, the
    case the last reduction step exists for (random keys reach it with
    probability ~2^-58)."""
    keys = np.arange(20, dtype=np.uint64)
    expected = [(k + _PRIME - 1) % _PRIME for k in range(20)]
    assert _affine_mod_p(keys, 1, _PRIME - 1).tolist() == expected
    h = _AffineSlot(1, _PRIME - 1, 1 << 62)
    assert h.array(keys).tolist() == [h(k) for k in range(20)] == expected
    s = _AffineSign(1, _PRIME - 1)
    assert s.array(keys).tolist() == [s(k) for k in range(20)] == [
        2 * (v & 1) - 1 for v in expected
    ]


@pytest.mark.parametrize("family_cls", [MultiplyShiftFamily])
class TestVectorizedTwins:
    """``h.array`` must be bit-exact with ``h`` on every key."""

    def test_function_array_matches_scalar(self, family_cls):
        family = family_cls(seed=9)
        rng = np.random.default_rng(1)
        batches = [
            rng.integers(0, 2**32, size=2000, dtype=np.uint64),
            rng.integers(0, 2**64, size=2000, dtype=np.uint64),
            np.array([0, 1, 2**32 - 1, 2**32, 2**61 - 2, 2**61 - 1,
                      2**61, 2**64 - 1], dtype=np.uint64),
        ]
        for index in range(3):
            for m in (2, 7, 1024, 12345):
                h = family.function(index, m)
                for keys_arr in batches:
                    expected = [h(int(k)) for k in keys_arr]
                    assert h.array(keys_arr).tolist() == expected

    def test_sign_array_matches_scalar(self, family_cls):
        family = family_cls(seed=9)
        rng = np.random.default_rng(2)
        keys_arr = rng.integers(0, 2**64, size=2000, dtype=np.uint64)
        for index in range(3):
            s = family.sign_function(index)
            assert s.array(keys_arr).tolist() == [s(int(k)) for k in keys_arr]

    def test_negative_keys_reduce_like_uint64_wrap(self, family_cls):
        family = family_cls(seed=11)
        h = family.function(0, 4096)
        s = family.sign_function(0)
        raw = [-1, -10, -(2**40), -(2**63)]
        wrapped = np.array([k & ((1 << 64) - 1) for k in raw], dtype=np.uint64)
        assert [h(k) for k in raw] == h.array(wrapped).tolist()
        assert [s(k) for k in raw] == s.array(wrapped).tolist()
