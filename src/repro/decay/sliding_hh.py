"""Sliding-window heavy hitters via bucketed Space-Saving.

Reference [1] of the paper (Ben-Basat et al., INFOCOM 2016) shows heavy
hitters can be tracked over sliding windows with compact state.  This module
implements the practical bucketed construction: the window of length ``W``
is split into ``num_buckets`` sub-intervals, each summarised by its own
Space-Saving instance; a query sums each key's estimates over the buckets
still inside the window and expired buckets are dropped whole.

The approximation is two-fold and one-sided in each part: per-bucket
Space-Saving overestimates by at most ``bucket_bytes / capacity``, while
bucket-granularity expiry misplaces at most one bucket's worth of the
window's head.  Finer buckets trade memory for window fidelity — the same
trade the paper's Figure 3 is about (a 10 ms bucket bound cannot be told
apart from a true sliding window at the paper's 1 s query step).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.detector import _SCALAR_CUTOFF, Detector, as_batch
from repro.core.registry import AccuracyFloor, register_detector
from repro.sketch.spacesaving import SpaceSaving


class SlidingWindowSpaceSaving(Detector):
    """Heavy hitters over the last ``window`` seconds, bucketed.

    The batch path segments a chunk by destination bucket — the running
    maximum of raw bucket indices reproduces the scalar fold-into-newest
    rule for reordered packets — and hands each segment to that bucket's
    Space-Saving batch update.  Expiry is monotone and idempotent, and
    every observation re-expires at its own ``now`` first, so expiring once
    per segment (at the running-max timestamp) leaves the same observable
    state as the scalar per-packet expiry.
    """

    def __init__(
        self,
        window: float,
        num_buckets: int = 10,
        capacity_per_bucket: int = 128,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if num_buckets < 1:
            raise ValueError(f"num_buckets must be >= 1, got {num_buckets}")
        self.window = window
        self.num_buckets = num_buckets
        self.capacity_per_bucket = capacity_per_bucket
        self.bucket_span = window / num_buckets
        # (bucket_index, SpaceSaving); bucket_index * span = bucket start.
        self._buckets: deque[tuple[int, SpaceSaving]] = deque()

    def _bucket_index(self, ts: float) -> int:
        return int(ts // self.bucket_span)

    def _expire(self, now: float) -> None:
        """Drop buckets that ended at or before ``now - window``.

        Buckets are dropped only once *fully* outside the window, so the
        estimate conservatively over-covers by at most one bucket span.
        """
        horizon = now - self.window
        while self._buckets and (self._buckets[0][0] + 1) * self.bucket_span <= horizon:
            self._buckets.popleft()

    def update(self, key: int, weight: int = 1,
               ts: float | None = None) -> None:
        """Account ``weight`` for ``key`` at time ``ts``."""
        if ts is None:
            raise TypeError("SlidingWindowSpaceSaving.update() requires the "
                            "packet timestamp 'ts'")
        if weight < 0:
            raise ValueError(f"negative weight {weight}")
        self._expire(ts)
        index = self._bucket_index(ts)
        if not self._buckets or self._buckets[-1][0] != index:
            if self._buckets and self._buckets[-1][0] > index:
                # Slightly reordered packet: fold into the newest bucket.
                index = self._buckets[-1][0]
            else:
                self._buckets.append(
                    (index, SpaceSaving(self.capacity_per_bucket))
                )
        self._buckets[-1][1].update(key, weight)

    def update_batch(self, keys, weights=None, ts=None) -> None:
        """Vectorized chunk update: segment by destination bucket, batch
        each segment into its bucket's Space-Saving."""
        keys, weights, ts = as_batch(keys, weights, ts)
        if ts is None:
            raise TypeError("SlidingWindowSpaceSaving.update_batch() requires "
                            "the packet timestamp column 'ts'")
        n = keys.shape[0]
        if n == 0:
            return
        if n < _SCALAR_CUTOFF:
            super().update_batch(keys, weights, ts)
            return
        raw = np.floor_divide(ts, self.bucket_span).astype(np.int64)
        effective = np.maximum.accumulate(raw)
        if self._buckets:
            effective = np.maximum(effective, self._buckets[-1][0])
        running_max_ts = np.maximum.accumulate(ts)
        starts = np.flatnonzero(np.r_[True, effective[1:] != effective[:-1]])
        bounds = np.r_[starts, n]
        for seg, start in enumerate(starts.tolist()):
            end = int(bounds[seg + 1])
            self._expire(float(running_max_ts[start]))
            index = int(effective[start])
            if not self._buckets or self._buckets[-1][0] != index:
                self._buckets.append(
                    (index, SpaceSaving(self.capacity_per_bucket))
                )
            self._buckets[-1][1].update_batch(keys[start:end], weights[start:end])
        self._expire(float(running_max_ts[-1]))

    def estimate(self, key: int, now: float) -> float:
        """Overestimate of the key's bytes in the last ``window`` seconds."""
        self._expire(now)
        return float(sum(b.estimate(key) for _, b in self._buckets))

    def query(self, threshold: float,
              now: float | None = None) -> dict[int, float]:
        """Keys whose windowed estimate at ``now`` reaches ``threshold``."""
        if now is None:
            raise TypeError("SlidingWindowSpaceSaving.query() requires the "
                            "query time 'now'")
        self._expire(now)
        totals: dict[int, float] = {}
        for _, bucket in self._buckets:
            for key, count in bucket.items().items():
                totals[key] = totals.get(key, 0.0) + count
        return {k: v for k, v in totals.items() if v >= threshold}

    def reset(self) -> None:
        """Drop every bucket."""
        self._buckets.clear()

    @property
    def num_counters(self) -> int:
        """Worst-case counters allocated (for resource accounting)."""
        return (self.num_buckets + 1) * self.capacity_per_bucket


def _sliding_factory(
    window: float = 10.0,
    num_buckets: int = 10,
    capacity_per_bucket: int = 128,
) -> SlidingWindowSpaceSaving:
    """Registry factory with a default 10 s window."""
    return SlidingWindowSpaceSaving(window, num_buckets, capacity_per_bucket)


register_detector(
    "sliding-spacesaving", _sliding_factory, timestamped=True,
    description="Bucketed sliding-window Space-Saving (vectorized batch)",
    accuracy=AccuracyFloor(recall=0.95, f1=0.85, truth="window", horizon=10.0),
)
