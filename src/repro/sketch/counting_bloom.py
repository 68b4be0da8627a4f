"""Counting Bloom filter.

Each cell is a small counter instead of a bit, so deletions are possible
and the *minimum* cell value doubles as a Count-Min-style frequency
overestimate.  This is the stepping stone between the plain Bloom filter
and the time-decaying variant of Section 3 (which replaces "decrement on
delete" with "decay with time").

Cells are a numpy int64 array, so batch insertion is one ``np.add.at``
scatter per hash function.
"""

from __future__ import annotations

import numpy as np

from repro.core.detector import (
    Detector,
    as_batch,
    as_uint64_keys,
    ensure_nonnegative_weights,
)
from repro.core.registry import register_detector
from repro.hashing.families import MultiplyShiftFamily


class CountingBloomFilter(Detector):
    """Bloom filter with integer cells supporting add/remove/estimate."""

    def __init__(
        self,
        cells: int = 8192,
        hashes: int = 4,
        family: MultiplyShiftFamily | None = None,
    ) -> None:
        if cells < 1 or hashes < 1:
            raise ValueError(f"need cells, hashes >= 1; got {cells}, {hashes}")
        self.cells = cells
        self.hashes = hashes
        family = family or MultiplyShiftFamily()
        self._funcs = [family.function(i, cells) for i in range(hashes)]
        self._array = np.zeros(cells, dtype=np.int64)

    def add(self, key: int, weight: int = 1) -> None:
        """Add ``weight`` to ``key``'s cells."""
        if weight < 0:
            raise ValueError(f"negative weight {weight}")
        for f in self._funcs:
            self._array[f(key)] += weight

    def update(self, key: int, weight: int = 1, ts: float = 0.0) -> None:
        """Detector protocol: alias of :meth:`add`."""
        self.add(key, weight)

    def update_batch(self, keys, weights=None, ts=None) -> None:
        """Vectorized batch insertion (one scatter-add per function)."""
        keys, weights, _ = as_batch(keys, weights, ts)
        keys = as_uint64_keys(keys)
        weights = ensure_nonnegative_weights(weights).astype(np.int64)
        for f in self._funcs:
            np.add.at(self._array, f.array(keys), weights)

    def remove(self, key: int, weight: int = 1) -> None:
        """Subtract ``weight`` from ``key``'s cells (floored at zero).

        Removing keys that were never added can produce false negatives,
        as with any counting Bloom filter; callers own that contract.
        """
        if weight < 0:
            raise ValueError(f"negative weight {weight}")
        for f in self._funcs:
            i = f(key)
            self._array[i] = max(0, int(self._array[i]) - weight)

    def estimate(self, key: int) -> int:
        """Count-Min style overestimate: the minimum cell value."""
        return int(min(self._array[f(key)] for f in self._funcs))

    def __contains__(self, key: int) -> bool:
        return self.estimate(key) > 0

    def reset(self) -> None:
        """Zero every cell, keeping the hash functions."""
        self._array.fill(0)

    def merge(self, other: "Detector") -> None:
        """Elementwise sum (same geometry and family required)."""
        if not isinstance(other, CountingBloomFilter) or (
            other.cells != self.cells or other.hashes != self.hashes
            or other._funcs != self._funcs
        ):
            raise ValueError(
                "can only merge CountingBloomFilter of equal geometry and "
                "hash functions"
            )
        self._array += other._array

    @property
    def num_counters(self) -> int:
        """Cells allocated (for resource accounting)."""
        return self.cells


register_detector(
    "counting-bloom", CountingBloomFilter, enumerable=False, mergeable=True,
    description="Counting Bloom filter (vectorized batch insertion)",
)
