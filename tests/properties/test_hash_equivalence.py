"""Randomized property: every hash function's array path is bit-exact.

The batch engine's correctness rests on ``h.array(keys)`` agreeing with
``h(key)`` for *every* seed, function index, range size, and key —
including the uint64 wrap of negative and arbitrary-precision keys.
~200 random seeds per family; no external property-testing dependency
(plain ``numpy.random``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hashing.families import MultiplyShiftFamily
from repro.hashing.mixers import splitmix64, splitmix64_array

pytestmark = pytest.mark.slow

NUM_SEEDS = 200
KEYS_PER_SEED = 64

FAMILIES = (MultiplyShiftFamily,)


def _random_keys(rng: np.random.Generator) -> np.ndarray:
    """Keys spanning the whole uint64 domain, small values included."""
    wide = rng.integers(0, 1 << 64, size=KEYS_PER_SEED, dtype=np.uint64)
    small = rng.integers(0, 1 << 16, size=8, dtype=np.uint64)
    return np.concatenate([wide, small])


@pytest.mark.parametrize("family_cls", FAMILIES)
@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_function_array_matches_scalar(family_cls, seed):
    rng = np.random.default_rng(seed)
    family = family_cls(seed=int(rng.integers(0, 1 << 31)))
    index = int(rng.integers(0, 8))
    range_size = int(rng.integers(1, 1 << 20))
    h = family.function(index, range_size)
    keys = _random_keys(rng)
    got = h.array(keys)
    expected = [h(int(k)) for k in keys.tolist()]
    assert got.tolist() == expected


@pytest.mark.parametrize("family_cls", FAMILIES)
@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_sign_array_matches_scalar(family_cls, seed):
    rng = np.random.default_rng(seed ^ 0xA5A5)
    family = family_cls(seed=int(rng.integers(0, 1 << 31)))
    index = int(rng.integers(0, 8))
    s = family.sign_function(index)
    keys = _random_keys(rng)
    got = s.array(keys)
    assert set(np.unique(got)) <= {-1, 1}
    expected = [s(int(k)) for k in keys.tolist()]
    assert got.tolist() == expected


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_splitmix64_array_matches_scalar(seed):
    rng = np.random.default_rng(seed ^ 0x5151)
    keys = _random_keys(rng)
    got = splitmix64_array(keys)
    expected = [splitmix64(int(k)) for k in keys.tolist()]
    assert got.tolist() == expected


@pytest.mark.parametrize("family_cls", FAMILIES)
def test_negative_and_bignum_keys_agree_via_uint64_wrap(family_cls):
    """``h(key)`` reduces any Python int mod 2^64; ``h.array`` sees the
    wrapped uint64 column and must land in the same cell."""
    family = family_cls(seed=7)
    h = family.function(0, 4096)
    mask = (1 << 64) - 1
    for key in (-1, -12345, 1 << 64, (1 << 80) + 17):
        wrapped = np.asarray([key & mask], dtype=np.uint64)
        assert h.array(wrapped)[0] == h(key)
