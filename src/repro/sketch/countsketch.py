"""Count-Sketch (Charikar, Chen, Farach-Colton 2002).

Like Count-Min but each row also applies a +/-1 sign hash and the point
estimate is the *median* across rows, giving an unbiased two-sided estimate
with error proportional to the stream's L2 norm — tighter than Count-Min on
skewed streams, at the cost of a weaker one-sided guarantee.

Counters live in a numpy ``(rows, width)`` int64 array; ``update_batch``
scatter-adds ``sign * weight`` per row in one vectorized pass.
"""

from __future__ import annotations

import statistics

import numpy as np

from repro.core.detector import Detector, as_batch, as_uint64_keys
from repro.core.registry import register_detector
from repro.hashing.families import MultiplyShiftFamily


class CountSketch(Detector):
    """``rows x width`` signed counters with median estimation."""

    _STATE_ATTRS = ("width", "rows", "_hashes", "_signs", "_table", "total")

    def __init__(
        self,
        width: int = 1024,
        rows: int = 5,
        family: MultiplyShiftFamily | None = None,
    ) -> None:
        if width < 1 or rows < 1:
            raise ValueError(f"need width, rows >= 1; got {width}x{rows}")
        if rows % 2 == 0:
            raise ValueError("rows must be odd so the median is a cell value")
        self.width = width
        self.rows = rows
        family = family or MultiplyShiftFamily()
        self._hashes = [family.function(r, width) for r in range(rows)]
        self._signs = [family.sign_function(r) for r in range(rows)]
        self._table = np.zeros((rows, width), dtype=np.int64)
        self.total = 0

    def update(self, key: int, weight: int = 1, ts: float = 0.0) -> None:
        """Add ``weight`` to ``key`` (signed per row).

        Counters are int64; a fractional weight is truncated once, before
        the sign is applied, so scalar and batch updates stay identical.
        """
        self.total += weight
        weight = int(weight)
        for row, h, s in zip(self._table, self._hashes, self._signs):
            row[h(key)] += s(key) * weight

    def update_batch(self, keys, weights=None, ts=None) -> None:
        """Vectorized signed scatter update."""
        keys, weights, _ = as_batch(keys, weights, ts)
        keys = as_uint64_keys(keys)
        weights = np.asarray(weights)
        int_weights = weights.astype(np.int64)
        for row, h, s in zip(self._table, self._hashes, self._signs):
            np.add.at(row, h.array(keys), s.array(keys) * int_weights)
        self.total += weights.sum().item()

    def estimate(self, key: int) -> float:
        """Median-of-rows unbiased point estimate."""
        values = [
            s(key) * int(row[h(key)])
            for row, h, s in zip(self._table, self._hashes, self._signs)
        ]
        return float(statistics.median(values))

    def reset(self) -> None:
        """Zero every counter, keeping the hash functions."""
        self._table.fill(0)
        self.total = 0

    def merge(self, other: Detector) -> None:
        """Elementwise sum (same geometry and family required)."""
        if not isinstance(other, CountSketch) or (
            other.width != self.width or other.rows != self.rows
            or other._hashes != self._hashes or other._signs != self._signs
        ):
            raise ValueError(
                "can only merge CountSketch of equal geometry and hash "
                "functions"
            )
        self._table += other._table
        self.total += other.total

    @property
    def num_counters(self) -> int:
        """Total counters allocated (for resource accounting)."""
        return self.width * self.rows


register_detector(
    "countsketch", CountSketch, enumerable=False, mergeable=True,
    description="Count-Sketch (unbiased point estimates; vectorized batch)",
)
