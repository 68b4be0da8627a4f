"""The splitmix64 64-bit integer mixer.

The standard public-domain finaliser, restricted to 64-bit arithmetic with
explicit masking.  It is used both directly (as a fast stateless hash of
integer keys) and as the seed expander for the hash families in
:mod:`repro.hashing.families`.

:func:`splitmix64_array` is the numpy counterpart of :func:`splitmix64` for
the vectorized batch-update paths; it is bit-exact with the scalar mixer
(uint64 arithmetic wraps modulo 2^64 exactly like the explicit masking).
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# 2^64 / golden ratio, the classic Fibonacci hashing multiplier.
_FIB_MULT = 0x9E3779B97F4A7C15


def splitmix64(value: int) -> int:
    """The splitmix64 finaliser: a strong 64-bit bijective mixer.

    >>> splitmix64(0) != 0
    True
    """
    z = (value + _FIB_MULT) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


# Large chunks are mixed in blocks of this many elements so every
# temporary stays small enough for the allocator to reuse hot heap memory
# (whole-array temporaries go through mmap and fault in cold pages).
_BLOCK = 16384


def _splitmix64_block(values: np.ndarray) -> np.ndarray:
    z = values + np.uint64(_FIB_MULT)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def splitmix64_array(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`splitmix64` over a uint64 array (bit-exact)."""
    values = np.asarray(values, dtype=np.uint64)
    n = values.shape[0]
    if n <= _BLOCK:
        return _splitmix64_block(values)
    out = np.empty(n, dtype=np.uint64)
    for i in range(0, n, _BLOCK):
        out[i:i + _BLOCK] = _splitmix64_block(values[i:i + _BLOCK])
    return out
