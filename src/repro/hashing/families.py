"""Seeded hash families.

A *hash family* hands out independent hash functions ``h_i: int -> [0, m)``
from a single seed.  Sketches ask for ``rows`` functions at construction time
and keep them for their lifetime, so the family objects are tiny and the
returned functions carry plain integers only.

Each function is one object that hashes both ways: ``h(key)`` maps one
Python int to a slot, and ``h.array(keys)`` maps a uint64 numpy array of
keys to an array of slots in one shot.  The two are bit-exact — the batch
update paths in :mod:`repro.core` rely on that to keep ``update_batch``
equivalent to repeated scalar ``update`` — and since a detector keeps one
object per function, its scalar and batch paths cannot hold different
functions.

The functions are module-level classes rather than closures so that every
detector holding them is *picklable* — the sharded execution engine
(:mod:`repro.engine`) ships detector shards across a process pool, which
requires the whole detector state (hash functions included) to survive a
pickle round-trip bit-exactly.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.mixers import splitmix64

_MASK64 = (1 << 64) - 1

# A Mersenne prime; multiply-shift style universal hashing mod p.
_PRIME = (1 << 61) - 1

# Large chunks are hashed in blocks of this many elements: the mod-p
# arithmetic spawns ~30 same-sized temporaries, and keeping each one small
# lets the allocator reuse hot heap memory instead of faulting in cold
# mmap pages for every intermediate (a >3x win on 100k+ element chunks).
_BLOCK = 16384


def _blocked_affine(keys: np.ndarray, a: int, b: int) -> np.ndarray:
    """:func:`_affine_mod_p` evaluated block-wise (bit-identical)."""
    keys = np.asarray(keys, dtype=np.uint64)
    n = keys.shape[0]
    if n <= _BLOCK:
        return _affine_mod_p(keys, a, b)
    out = np.empty(n, dtype=np.uint64)
    for i in range(0, n, _BLOCK):
        out[i:i + _BLOCK] = _affine_mod_p(keys[i:i + _BLOCK], a, b)
    return out


def _fold_mod_p(x: np.ndarray) -> np.ndarray:
    """One folding step of reduction mod ``p = 2^61 - 1``.

    Since ``2^61 ≡ 1 (mod p)``, ``x = q*2^61 + r ≡ q + r``; for ``x < 2^64``
    the result is below ``2^61 + 8``.
    """
    return (x >> np.uint64(61)) + (x & np.uint64(_PRIME))


def _shift32_mod_p(x: np.ndarray) -> np.ndarray:
    """``(x << 32) mod p`` for ``x < 2^64`` without overflowing uint64.

    Split ``x = xh*2^29 + xl``; then ``x << 32 = xh*2^61 + xl*2^32 ≡
    xh + xl*2^32 (mod p)``, and both addends fit comfortably in uint64.
    """
    return _fold_mod_p(
        (x >> np.uint64(29)) + ((x & np.uint64((1 << 29) - 1)) << np.uint64(32))
    )


def _affine_mod_p(keys: np.ndarray, a: int, b: int) -> np.ndarray:
    """Exact vectorized ``(a*key + b) mod p`` with ``p = 2^61 - 1``.

    ``a, b < p`` but ``a*key`` spans up to 2^125, so the product is built
    from 32-bit limbs, each partial product reduced while it still fits in
    uint64 (``2^64 ≡ 8`` and ``2^32`` handled by :func:`_shift32_mod_p`).
    """
    keys = np.asarray(keys, dtype=np.uint64)
    # a < p < 2^61, so a_hi < 2^29 and the folded-in 2^64 ≡ 8 factor can be
    # pre-multiplied into the scalar limb without overflow.
    a_hi8 = np.uint64((a >> 32) << 3)
    a_hi, a_lo = np.uint64(a >> 32), np.uint64(a & 0xFFFFFFFF)
    k_hi = keys >> np.uint64(32)
    k_lo = keys & np.uint64(0xFFFFFFFF)
    # The two cross terms share one <<32: a_hi*k_lo < 2^61 and the folded
    # a_lo*k_hi is < 2^61 + 8, so their sum stays well under 2^64.
    mid = a_hi * k_lo + _fold_mod_p(a_lo * k_hi)
    total = (
        _fold_mod_p(a_hi8 * k_hi)
        + _shift32_mod_p(mid)
        + _fold_mod_p(a_lo * k_lo)
        + np.uint64(b)
    )
    # Each addend is < 2^61 + 8, so one fold lands below p + 9.  Below p,
    # total - p wraps past 2^64 - p, so the smaller value is the residue.
    total = _fold_mod_p(total)
    return np.minimum(total, total - np.uint64(_PRIME))


class _AffineSlot:
    """``((a*key + b) mod p) mod m`` over one key or a uint64 key array.

    ``h(key)`` takes any Python int modulo 2^64 and ``h.array(keys)`` a
    uint64 array; the two agree bit for bit.  Two functions are equal iff
    they are the same class with the same parameters — what merge
    validation needs to tell "same family and seed" apart from "same
    geometry, different hashes".
    """

    __slots__ = ("a", "b", "m")

    def __init__(self, a: int, b: int, m: int) -> None:
        self.a, self.b, self.m = a, b, m

    def __call__(self, key: int) -> int:
        return ((self.a * (key & _MASK64) + self.b) % _PRIME) % self.m

    def array(self, keys: np.ndarray) -> np.ndarray:
        """The slot of every key of a uint64 array."""
        h = _blocked_affine(keys, self.a, self.b)
        m = self.m
        if m & (m - 1) == 0:
            # Power-of-two range: identical result, mask beats division.
            h &= np.uint64(m - 1)
        else:
            h %= np.uint64(m)
        return h

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and (
            (other.a, other.b, other.m) == (self.a, self.b, self.m)
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.a, self.b, self.m))


class _AffineSign(_AffineSlot):
    """Pairwise-independent +/-1 function: the ``m = 2`` slot ``s`` as
    ``2s - 1``."""

    __slots__ = ()

    def __init__(self, a: int, b: int) -> None:
        super().__init__(a, b, 2)

    def __call__(self, key: int) -> int:
        return 2 * super().__call__(key) - 1

    def array(self, keys: np.ndarray) -> np.ndarray:
        """The int64 sign of every key of a uint64 array."""
        return 2 * super().array(keys).view(np.int64) - 1


class MultiplyShiftFamily:
    """Classic ``(a*x + b) mod p mod m`` 2-universal hashing.

    Parameters are derived deterministically from the seed via splitmix64,
    so the same seed always yields the same functions.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def _params(self, index: int) -> tuple[int, int]:
        base = splitmix64(self.seed * 0x1000193 + index * 2 + 1)
        a = (splitmix64(base) % (_PRIME - 1)) + 1
        b = splitmix64(base ^ 0xDEADBEEF) % _PRIME
        return a, b

    def function(self, index: int, range_size: int) -> _AffineSlot:
        """2-universal function into ``[0, range_size)``.

        Keys are taken modulo 2^64 (two's-complement wrap for negatives) so
        ``h(key)`` agrees bit-exactly with ``h.array`` over the wrapped
        uint64 key for any Python int.
        """
        if range_size <= 0:
            raise ValueError(f"range_size must be positive, got {range_size}")
        a, b = self._params(index)
        return _AffineSlot(a, b, range_size)

    def sign_function(self, index: int) -> _AffineSign:
        """Pairwise-independent +/-1 function."""
        a, b = self._params(index ^ 0x5A5A5A5A)
        return _AffineSign(a, b)
