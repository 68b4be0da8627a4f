"""Standard Bloom filter.

The membership substrate that Section 3's time-decaying extension builds
on; also used by tests as the non-decaying baseline whose saturation
behaviour motivates windowed resets in the first place.

The bit array is packed numpy uint8, so batch insertion is a vectorized
``np.bitwise_or.at`` scatter per hash function.
"""

from __future__ import annotations

import numpy as np

from repro.core.detector import Detector, as_batch, as_uint64_keys
from repro.core.registry import register_detector
from repro.hashing.families import MultiplyShiftFamily


class BloomFilter(Detector):
    """Fixed-size bit array with ``hashes`` independent hash functions."""

    def __init__(
        self,
        bits: int = 8192,
        hashes: int = 4,
        family: MultiplyShiftFamily | None = None,
    ) -> None:
        if bits < 1 or hashes < 1:
            raise ValueError(f"need bits, hashes >= 1; got {bits}, {hashes}")
        self.bits = bits
        self.hashes = hashes
        family = family or MultiplyShiftFamily()
        self._funcs = [family.function(i, bits) for i in range(hashes)]
        self._array = np.zeros((bits + 7) // 8, dtype=np.uint8)
        self.inserted = 0

    def add(self, key: int) -> None:
        """Insert ``key``."""
        for f in self._funcs:
            i = f(key)
            self._array[i >> 3] |= 1 << (i & 7)
        self.inserted += 1

    def update(self, key: int, weight: float = 1, ts: float = 0.0) -> None:
        """Detector protocol: insert ``key`` (weight is ignored)."""
        self.add(key)

    def update_batch(self, keys, weights=None, ts=None) -> None:
        """Vectorized batch insertion (one bit-OR scatter per function)."""
        keys, _, _ = as_batch(keys, weights, ts)
        keys = as_uint64_keys(keys)
        for f in self._funcs:
            idx = f.array(keys)
            np.bitwise_or.at(
                self._array,
                (idx >> np.uint64(3)).astype(np.intp),
                (np.uint8(1) << (idx & np.uint64(7)).astype(np.uint8)),
            )
        self.inserted += len(keys)

    def __contains__(self, key: int) -> bool:
        return all(
            self._array[(i := f(key)) >> 3] & (1 << (i & 7)) for f in self._funcs
        )

    def estimate(self, key: int) -> float:
        """Membership indicator (1.0 when possibly present, else 0.0)."""
        return 1.0 if key in self else 0.0

    def reset(self) -> None:
        """Clear every bit, keeping the hash functions."""
        self._array.fill(0)
        self.inserted = 0

    def merge(self, other: "Detector") -> None:
        """Bitwise OR (same geometry and family required)."""
        if not isinstance(other, BloomFilter) or (
            other.bits != self.bits or other.hashes != self.hashes
            or other._funcs != self._funcs
        ):
            raise ValueError(
                "can only merge BloomFilter of equal geometry and hash "
                "functions"
            )
        np.bitwise_or(self._array, other._array, out=self._array)
        self.inserted += other.inserted

    @property
    def num_counters(self) -> int:
        """Bits allocated (for resource accounting)."""
        return self.bits


register_detector(
    "bloom", BloomFilter, enumerable=False, mergeable=True,
    description="Bloom filter membership (vectorized batch insertion)",
    probe=lambda det, key, now: 1.0 if key in det else 0.0,
)
