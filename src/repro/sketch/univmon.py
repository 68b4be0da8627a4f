"""UnivMon-style universal sketching (Liu et al., SIGCOMM 2016).

Reference [4] of the paper.  UnivMon maintains ``levels`` Count-Sketches;
a key is sampled into level ``i`` when ``i`` independent hash bits of the
key are all 1 (so level i sees a ~2^-i subsample of the key space).  From
the per-level top-k views, any G-sum statistic can be estimated by the
recursive universal-sketching combination; for this library the relevant
outputs are heavy hitters (the per-window detector role UnivMon plays in
the paper's framing) and entropy (the canonical "one sketch, many tasks"
demonstration).

Per-level candidate keys are tracked by small Space-Saving summaries fed
the raw packet stream; estimates are always read back from the
Count-Sketches at query time.  Both the per-level sketches and the
candidate trackers consume the identical (key, weight) subsequence
whether packets arrive one at a time or as a columnar batch, so the batch
path is observationally equivalent to the scalar one.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.detector import (
    _SCALAR_CUTOFF,
    Detector,
    as_batch,
    as_uint64_keys,
    ensure_nonnegative_weights,
)
from repro.core.registry import AccuracyFloor, register_detector
from repro.hashing.families import MultiplyShiftFamily
from repro.sketch.countsketch import CountSketch
from repro.sketch.spacesaving import SpaceSaving


class UnivMon(Detector):
    """Universal sketch: layered, subsampled Count-Sketches + candidates.

    The batch path assigns every packet its deepest sampled level with the
    vectorized sample-bit hashes, then fans the ``depth >= level`` subset
    of the chunk into each level's Count-Sketch and Space-Saving batch
    updates.
    """

    def __init__(
        self,
        levels: int = 8,
        width: int = 512,
        rows: int = 5,
        top_k: int = 64,
        family: MultiplyShiftFamily | None = None,
    ) -> None:
        if levels < 1:
            raise ValueError(f"need at least one level, got {levels}")
        self.levels = levels
        self.top_k = top_k
        family = family or MultiplyShiftFamily()
        self._sample_bits = [
            family.function(1000 + i, 2) for i in range(levels - 1)
        ]
        self._sketches = [
            CountSketch(width=width, rows=rows, family=family)
            for _ in range(levels)
        ]
        self._trackers = [SpaceSaving(top_k) for _ in range(levels)]
        self.total = 0

    def _level_of(self, key: int) -> int:
        """Deepest level the key is sampled into (level 0 sees all)."""
        level = 0
        for bit in self._sample_bits:
            if bit(key) == 0:
                break
            level += 1
        return level

    def update(self, key: int, weight: int = 1, ts: float = 0.0) -> None:
        """Account one packet: update levels 0..level_of(key)."""
        if weight < 0:
            raise ValueError(f"negative weight {weight}")
        self.total += weight
        deepest = self._level_of(key)
        for level in range(deepest + 1):
            self._sketches[level].update(key, weight)
            self._trackers[level].update(key, weight)

    def update_batch(self, keys, weights=None, ts=None) -> None:
        """Vectorized chunk update: per-packet sampling depth, then a
        per-level fan-out into sketch and tracker batch updates."""
        keys, weights, _ = as_batch(keys, weights, ts)
        n = keys.shape[0]
        if n == 0:
            return
        if n < _SCALAR_CUTOFF:
            super().update_batch(keys, weights)
            return
        ku = as_uint64_keys(keys)
        w = ensure_nonnegative_weights(weights)
        depth = np.zeros(n, dtype=np.int64)
        alive = np.ones(n, dtype=bool)
        for bit in self._sample_bits:
            alive = alive & (bit.array(ku) == 1)
            if not alive.any():
                break
            depth += alive
        for level in range(self.levels):
            mask = depth >= level
            if not mask.any():
                break
            self._sketches[level].update_batch(ku[mask], w[mask])
            self._trackers[level].update_batch(ku[mask], w[mask])
        self.total += w.sum().item()

    def estimate(self, key: int) -> float:
        """Point estimate from the level-0 Count-Sketch."""
        return self._sketches[0].estimate(key)

    def query(
        self, threshold: float, now: float | None = None
    ) -> dict[int, float]:
        """Heavy keys (StreamingDetector protocol): level-0 candidates."""
        out: dict[int, float] = {}
        for key in self._trackers[0].items():
            estimate = self._sketches[0].estimate(key)
            if estimate >= threshold:
                out[key] = estimate
        return out

    def g_sum(self, g) -> float:
        """Universal-sketching estimator of ``sum(g(count))`` over keys.

        Uses the standard recursion: Y_L = sum over level-L top keys;
        Y_i = 2 * Y_{i+1} + sum over level-i top keys of g(w) * (1 - 2 *
        sampled_deeper(key)).
        """
        deepest = self.levels - 1
        y = 0.0
        for level in range(deepest, -1, -1):
            contribution = 0.0
            for key in self._trackers[level].items():
                w = self._sketches[level].estimate(key)
                if w <= 0:
                    continue
                if level == deepest:
                    contribution += g(w)
                else:
                    goes_deeper = self._sample_bits[level](key) == 1
                    contribution += g(w) * (1.0 - 2.0 * goes_deeper)
            y = contribution if level == deepest else 2.0 * y + contribution
        return max(y, 0.0)

    def entropy(self) -> float:
        """Empirical Shannon entropy estimate of the key distribution."""
        if self.total <= 0:
            return 0.0
        total = float(self.total)
        plogp = self.g_sum(lambda w: w * math.log2(w))
        return max(0.0, math.log2(total) - plogp / total)

    def cardinality(self) -> float:
        """Distinct-key (L0) estimate via g(w) = 1."""
        return self.g_sum(lambda w: 1.0)

    def reset(self) -> None:
        """Reset every level sketch and candidate tracker."""
        for sketch in self._sketches:
            sketch.reset()
        for tracker in self._trackers:
            tracker.reset()
        self.total = 0

    @property
    def num_counters(self) -> int:
        """Counters across all levels (for resource accounting)."""
        return sum(s.num_counters for s in self._sketches)


register_detector(
    "univmon", UnivMon,
    description="UnivMon universal sketch (vectorized level fan-out batch)",
    accuracy=AccuracyFloor(recall=0.85, f1=0.90),
)
