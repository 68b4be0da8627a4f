"""Randomized HHH (Ben Basat et al., SIGCOMM 2017), simplified.

RHHH keeps one heavy-hitter summary (Space-Saving here) per hierarchy
level.  Per packet it draws one level uniformly at random and updates only
that level's summary with the packet's generalized key — a constant-time
update, which is what made HHH feasible at line rate and in data planes.
Estimates are scaled back up by the number of levels.

Level draws come from a counter-indexed splitmix64 stream: draw ``i`` is
``splitmix64(base + i) mod num_levels``.  The stream is deterministic
under the seed, identical whether packets arrive one at a time or as a
columnar batch, and vectorizes — the batch path materialises the level
column for the whole chunk and fans each level's packets into that level's
summary batch update.

At query time, HHHs are extracted bottom-up with conditioned counts: a
prefix's estimate is discounted by the scaled estimates of the HHHs already
declared below it, mirroring the exact semantics of
:class:`repro.hhh.ExactHHH` (we omit the paper's Z-score confidence
correction; with byte weights and laptop-scale streams the plain estimator
is the behaviourally relevant part).

:class:`LevelSampledHHH` holds this structure — per-level summaries, the
sampler, the fan-out and the extraction — for RHHH and for the
time-decaying detector (:class:`repro.decay.TimeDecayingHHH`), which keeps
a decayed summary per level.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

import numpy as np

from repro.core.detector import (
    _SCALAR_CUTOFF,
    Detector,
    as_batch,
    as_uint64_keys,
    ensure_nonnegative_weights,
)
from repro.core.registry import AccuracyFloor, register_detector
from repro.hashing.mixers import splitmix64, splitmix64_array
from repro.hhh.exact_hhh import HHHItem, HHHResult
from repro.hierarchy.domain import SourceHierarchy
from repro.sketch.spacesaving import SpaceSaving


class LevelSampledHHH(Detector):
    """One summary per hierarchy level, fed every level or one sampled
    level per packet, with HHHs extracted bottom-up on conditioned counts.

    Subclasses keep their own totals and query API; ``update`` and
    ``update_batch`` hand each packet to :meth:`_fan_out` /
    :meth:`_fan_out_batch`.
    """

    def __init__(
        self,
        hierarchy: SourceHierarchy | None,
        counters_per_level: int,
        seed: int,
        sample_levels: bool,
        summary: Callable[[int], Detector],
    ) -> None:
        self.hierarchy = hierarchy or SourceHierarchy()
        if counters_per_level < 1:
            raise ValueError(
                f"counters_per_level must be >= 1, got {counters_per_level}"
            )
        self.counters_per_level = counters_per_level
        self.seed = seed
        self._levels = [
            summary(counters_per_level)
            for _ in range(self.hierarchy.num_levels)
        ]
        self._sbase = splitmix64(seed ^ 0x9E3779B97F4A7C15)
        self._draws = 0
        self.sample_levels = sample_levels

    def _draw_level(self) -> int:
        """Next level in the deterministic sampling stream."""
        level = splitmix64(self._sbase + self._draws) % self.hierarchy.num_levels
        self._draws += 1
        return level

    def _fan_out(self, key: int, weight: float, ts: float | None) -> int:
        """Update the sampled level's summary (every level's when sampling
        is off) with ``key`` generalized; returns the summaries updated."""
        hierarchy = self.hierarchy
        if self.sample_levels:
            level = self._draw_level()
            self._levels[level].update(
                hierarchy.generalize(key, level), weight, ts
            )
            return 1
        for level, summary in enumerate(self._levels):
            summary.update(hierarchy.generalize(key, level), weight, ts)
        return hierarchy.num_levels

    def _fan_out_batch(self, keys: np.ndarray, weights: np.ndarray,
                       ts: np.ndarray | None) -> int:
        """Batch twin of :meth:`_fan_out`: draw the whole level column at
        once and hand each level's packets to its summary's batch update;
        returns the summary updates made (packets times levels fed)."""
        hierarchy = self.hierarchy
        n = keys.shape[0]
        if not self.sample_levels:
            for level, summary in enumerate(self._levels):
                summary.update_batch(
                    hierarchy.generalize_array(keys, level), weights, ts
                )
            return n * hierarchy.num_levels
        draws = np.arange(
            self._draws, self._draws + n, dtype=np.uint64
        ) + np.uint64(self._sbase)
        levels = splitmix64_array(draws) % np.uint64(hierarchy.num_levels)
        self._draws += n
        for level, summary in enumerate(self._levels):
            chosen = levels == level
            if chosen.any():
                summary.update_batch(
                    hierarchy.generalize_array(keys[chosen], level),
                    weights[chosen], None if ts is None else ts[chosen],
                )
        return n

    def _scale(self) -> float:
        """Estimate scale-up factor under level sampling."""
        return float(self.hierarchy.num_levels) if self.sample_levels else 1.0

    def _extract(self, per_level: Iterable[Mapping[int, float]],
                 threshold: float) -> tuple[HHHItem, ...]:
        """HHHs at ``threshold`` over each level's ``{value: count}``,
        bottom-up: a prefix's scaled count is discounted by the
        conditioned volumes of the HHHs already declared below it."""
        hierarchy = self.hierarchy
        scale = self._scale()
        items: list[HHHItem] = []
        # Discount mass accumulated from declared HHHs, keyed by the value
        # they generalise to at each upper level.
        declared: list[tuple[int, float]] = []  # (leaf-masked value, volume)
        for level, counts in enumerate(per_level):
            for value, count in counts.items():
                estimate = count * scale
                discount = sum(
                    volume
                    for masked, volume in declared
                    if hierarchy.generalize(masked, level) == value
                )
                conditioned = estimate - discount
                if conditioned >= threshold:
                    prefix = hierarchy.prefix_at(value, level)
                    items.append(HHHItem(prefix, int(conditioned)))
                    declared.append((value, conditioned))
        items.sort()
        return tuple(items)

    def reset(self) -> None:
        """Reset every level and rewind the level-sampling stream."""
        for level in self._levels:
            level.reset()
        self._draws = 0

    @property
    def num_counters(self) -> int:
        """Counters across all levels (for resource accounting)."""
        return sum(level.num_counters for level in self._levels)


class RHHH(LevelSampledHHH):
    """Per-level Space-Saving with randomised level updates."""

    def __init__(
        self,
        hierarchy: SourceHierarchy | None = None,
        counters_per_level: int = 256,
        seed: int = 0,
        sample_levels: bool = True,
    ) -> None:
        super().__init__(
            hierarchy, counters_per_level, seed, sample_levels, SpaceSaving
        )
        self.total = 0
        self.updates = 0

    def update(self, key: int, weight: float = 1, ts: float = 0.0) -> None:
        """Account one packet (updates one sampled level, or all levels when
        ``sample_levels`` is off)."""
        if weight < 0:
            raise ValueError(f"negative weight {weight}")
        self.total += weight
        self.updates += self._fan_out(key, weight, ts)

    def update_batch(self, keys, weights=None, ts=None) -> None:
        """Vectorized chunk update: draw the whole level column at once and
        fan each level's packets into that level's batch update."""
        keys, weights, _ = as_batch(keys, weights, ts)
        n = keys.shape[0]
        if n == 0:
            return
        if n < _SCALAR_CUTOFF:
            super().update_batch(keys, weights)
            return
        w = ensure_nonnegative_weights(weights)
        self.updates += self._fan_out_batch(as_uint64_keys(keys), w, None)
        self.total += w.sum().item()

    def estimate(self, key: int, level: int) -> float:
        """Scaled volume estimate for ``key`` generalized at ``level``."""
        value = self.hierarchy.generalize(key, level)
        return self._levels[level].estimate(value) * self._scale()

    def query_hhh(self, threshold: float) -> HHHResult:
        """Extract HHHs with conditioned (discounted) estimates."""
        if threshold <= 0:
            return HHHResult((), max(threshold, 0.0), self.total)
        items = self._extract(
            (summary.items() for summary in self._levels), threshold
        )
        return HHHResult(items, threshold, self.total)

    def query(
        self, threshold: float, now: float | None = None
    ) -> dict[int, float]:
        """Leaf-level heavy keys (StreamingDetector protocol)."""
        leaf = self._levels[0]
        scale = self._scale()
        return {
            key: count * scale
            for key, count in leaf.items().items()
            if count * scale >= threshold
        }

    def reset(self) -> None:
        """Reset every level and rewind the level-sampling stream."""
        super().reset()
        self.total = 0
        self.updates = 0


register_detector(
    "rhhh", RHHH,
    description="Randomized HHH (per-level Space-Saving; vectorized batch)",
    probe=lambda det, key, now: det.estimate(key, 0),
    accuracy=AccuracyFloor(recall=0.70, f1=0.70),
)
