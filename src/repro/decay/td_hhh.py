"""The windowless, time-decaying HHH detector.

This is the algorithm the poster calls for: continuous-time HHH detection
with no window grid at all.  One decayed, enumerable summary
(:class:`repro.decay.DecayedSpaceSaving`) per hierarchy level, plus one
decayed counter for the total volume, gives at any query instant:

- the decayed byte volume of every candidate prefix at every level;
- a relative threshold ``phi * decayed_total`` matching the paper's
  percent-of-traffic thresholds;
- HHH extraction with conditioned counts, identical in semantics to
  :class:`repro.hhh.ExactHHH` but over exponentially-weighted volumes.

With ``ExponentialDecay(tau=W)`` the decayed volume of a stationary flow
equals its byte volume over a trailing window of length ``W``, so the
detector is directly comparable to a W-second window — but its "window"
slides continuously with every packet, which is why it sees the episodes
that straddle disjoint-window boundaries (the paper's hidden HHHs).

Updates are O(num_levels) per packet, or O(1) with ``sample_levels`` (the
RHHH trick carried over to continuous time).
"""

from __future__ import annotations

from repro.core.detector import (
    _SCALAR_CUTOFF,
    as_batch,
    as_uint64_keys,
    ensure_nonnegative_weights,
)
from repro.core.registry import register_detector
from repro.decay.decayed_counter import DecayedCounter
from repro.decay.decayed_spacesaving import DecayedSpaceSaving
from repro.decay.laws import DecayLaw, ExponentialDecay
from repro.hhh.exact_hhh import HHHResult
from repro.hierarchy.domain import SourceHierarchy
from repro.sketch.rhhh import LevelSampledHHH


class TimeDecayingHHH(LevelSampledHHH):
    """Continuous-time hierarchical heavy-hitter detector.

    The batch path draws the whole level-sampling column at once (a
    counter-indexed splitmix64 stream, identical to the scalar draw
    sequence) and fans each level's packets into that level's vectorized
    :class:`DecayedSpaceSaving` batch update.  Note :meth:`query` keeps
    the hierarchical contract — ``(phi, now) -> HHHResult`` — rather than
    the flat ``{key: estimate}`` protocol.
    """

    def __init__(
        self,
        law: DecayLaw | None = None,
        hierarchy: SourceHierarchy | None = None,
        counters_per_level: int = 256,
        sample_levels: bool = False,
        seed: int = 0,
    ) -> None:
        self.law = law = law or ExponentialDecay(tau=10.0)
        super().__init__(
            hierarchy, counters_per_level, seed, sample_levels,
            lambda capacity: DecayedSpaceSaving(capacity, law),
        )
        self._total = DecayedCounter(law)
        self.packets = 0

    def update(self, key: int, weight: float = 1,
               ts: float | None = None) -> None:
        """Account one packet at time ``ts``."""
        if ts is None:
            raise TypeError("TimeDecayingHHH.update() requires the packet "
                            "timestamp 'ts'")
        if weight < 0:
            raise ValueError(f"negative weight {weight}")
        self.packets += 1
        self._total.add(weight, ts)
        self._fan_out(key, weight, ts)

    def update_batch(self, keys, weights=None, ts=None) -> None:
        """Vectorized chunk update: one total-counter batch add plus a
        per-level fan-out into the decayed summaries' batch paths."""
        keys, weights, ts = as_batch(keys, weights, ts)
        if ts is None:
            raise TypeError("TimeDecayingHHH.update_batch() requires the "
                            "packet timestamp column 'ts'")
        n = keys.shape[0]
        if n == 0:
            return
        if n < _SCALAR_CUTOFF:
            super().update_batch(keys, weights, ts)
            return
        ku = as_uint64_keys(keys)
        w = ensure_nonnegative_weights(weights)
        self.packets += n
        self._total.add_batch(w, ts)
        self._fan_out_batch(ku, w, ts)

    def decayed_total(self, now: float) -> float:
        """Decayed total byte volume at ``now`` (the threshold base)."""
        return self._total.read(now)

    def estimate(self, key: int, level: int, now: float) -> float:
        """Decayed volume estimate of ``key`` generalized at ``level``."""
        value = self.hierarchy.generalize(key, level)
        return self._levels[level].estimate(value, now) * self._scale()

    def query(self, phi: float, now: float) -> HHHResult:
        """HHHs at time ``now`` with relative threshold ``phi``.

        The absolute threshold is ``phi * decayed_total(now)``, the
        continuous-time analogue of "phi percent of the bytes in the
        window".
        """
        if not 0.0 < phi <= 1.0:
            raise ValueError(f"phi must be in (0, 1], got {phi}")
        total = self.decayed_total(now)
        return self.query_absolute(phi * total, now, total_bytes=total, phi=phi)

    def query_absolute(
        self,
        threshold: float,
        now: float,
        total_bytes: float = 0.0,
        phi: float = 0.0,
    ) -> HHHResult:
        """HHHs at time ``now`` with an absolute decayed-byte threshold."""
        if threshold <= 0:
            return HHHResult((), max(threshold, 0.0), int(total_bytes), phi)
        items = self._extract(
            (summary.items(now) for summary in self._levels), threshold
        )
        return HHHResult(items, threshold, int(total_bytes), phi)

    def reset(self) -> None:
        """Reset every level, the total, and rewind the sampling stream."""
        super().reset()
        self._total = DecayedCounter(self.law)
        self.packets = 0

    @property
    def num_counters(self) -> int:
        """Counters across levels plus the total (resource accounting)."""
        return super().num_counters + 1


register_detector(
    "td-hhh", TimeDecayingHHH, timestamped=True, enumerable=False,
    description="Windowless time-decaying HHH detector "
                "(hierarchical query; vectorized batch)",
    probe=lambda det, key, now: det.estimate(key, 0, now),
)
