"""Per-key decayed counters.

:class:`DecayedCounter` is one lazily-decayed scalar;
:class:`ExactDecayedCounts` keeps one per key with no memory bound — the
ground truth that the bounded structures (TDBF, decayed Space-Saving) are
tested and benchmarked against.
"""

from __future__ import annotations

import numpy as np

from repro.core.detector import Detector
from repro.core.registry import AccuracyFloor, register_detector
from repro.decay.laws import DecayLaw, ExponentialDecay, same_law


class DecayedCounter:
    """A single counter with lazy (on-demand) decay."""

    __slots__ = ("law", "value", "stamp")

    def __init__(self, law: DecayLaw, value: float = 0.0, stamp: float = 0.0
                 ) -> None:
        self.law = law
        self.value = value
        self.stamp = stamp

    def add(self, weight: float, ts: float) -> None:
        """Decay to ``ts`` then add ``weight``."""
        if weight < 0:
            raise ValueError(f"negative weight {weight}")
        if ts >= self.stamp:
            self.value = self.law.decay(self.value, ts - self.stamp) + weight
            self.stamp = ts
        else:
            # Late (reordered) observation: decay the contribution instead.
            self.value += self.law.decay(weight, self.stamp - ts)

    def add_batch(self, weights: np.ndarray, ts: np.ndarray) -> None:
        """Vectorized :meth:`add` over aligned weight/timestamp columns.

        For value-linear laws (the ``decay_factor`` hook) and time-sorted
        chunks, every contribution decays by its own factor into the
        chunk-final frame and one sum applies the lot; late packets (before
        the current stamp — a sorted prefix) decay into the standing frame
        like the scalar late-packet branch.  Other laws or reordered
        chunks replay scalar adds.
        """
        weights = np.asarray(weights, dtype=np.float64)
        ts = np.asarray(ts, dtype=np.float64)
        n = weights.shape[0]
        if n == 0:
            return
        if np.any(weights < 0):
            raise ValueError("negative weight in batch")
        factor = getattr(self.law, "decay_factor", None)
        if factor is None or n < 8 or np.any(np.diff(ts) < 0):
            for weight, t in zip(weights.tolist(), ts.tolist()):
                self.add(weight, t)
            return
        late = ts < self.stamp
        if late.any():
            self.value += float(
                np.sum(weights[late] * factor(self.stamp - ts[late]))
            )
        fresh = ~late
        if fresh.any():
            frame = float(ts[-1])
            self.value = float(
                self.value * factor(frame - self.stamp)
                + np.sum(weights[fresh] * factor(frame - ts[fresh]))
            )
            self.stamp = frame

    def read(self, now: float) -> float:
        """Decayed value at time ``now`` (does not rewrite state)."""
        if now <= self.stamp:
            return self.value
        return self.law.decay(self.value, now - self.stamp)


class ExactDecayedCounts(Detector):
    """Unbounded per-key decayed counters (the decayed ground truth).

    Implements the streaming-detector protocol extended with timestamps:
    ``update(key, weight, ts)`` and ``query(threshold, now)``.
    """

    def __init__(self, law: DecayLaw) -> None:
        self.law = law
        self._counters: dict[int, DecayedCounter] = {}

    def update(self, key: int, weight: float = 1,
               ts: float | None = None) -> None:
        """Account ``weight`` for ``key`` at time ``ts``."""
        if ts is None:
            raise TypeError("ExactDecayedCounts.update() requires the packet "
                            "timestamp 'ts'")
        if weight < 0:
            raise ValueError(f"negative weight {weight}")
        counter = self._counters.get(key)
        if counter is None:
            counter = DecayedCounter(self.law)
            self._counters[key] = counter
        counter.add(weight, ts)

    def estimate(self, key: int, now: float) -> float:
        """Exact decayed volume of ``key`` at ``now`` (0 when unseen)."""
        counter = self._counters.get(key)
        return counter.read(now) if counter is not None else 0.0

    def query(self, threshold: float,
              now: float | None = None) -> dict[int, float]:
        """Keys whose decayed volume at ``now`` reaches ``threshold``."""
        if now is None:
            raise TypeError("ExactDecayedCounts.query() requires the query "
                            "time 'now'")
        out: dict[int, float] = {}
        for key, counter in self._counters.items():
            value = counter.read(now)
            if value >= threshold:
                out[key] = value
        return out

    def merge(self, other: Detector) -> None:
        """Fold another instance's counters into this one.

        Keys held by only one side are copied verbatim, so merging
        key-partitioned shards (disjoint key sets) is exact under *any*
        law.  Keys present on both sides are brought to a common frame and
        summed — exact for value-linear laws (exponential), a one-sided
        approximation otherwise.
        """
        if not isinstance(other, ExactDecayedCounts):
            raise ValueError("can only merge ExactDecayedCounts")
        if not same_law(self.law, other.law):
            raise ValueError(
                f"can only merge identical laws; got {self.law!r} "
                f"and {other.law!r}"
            )
        decay = self.law.decay
        for key, theirs in other._counters.items():
            mine = self._counters.get(key)
            if mine is None:
                self._counters[key] = DecayedCounter(
                    self.law, theirs.value, theirs.stamp
                )
                continue
            frame = max(mine.stamp, theirs.stamp)
            mine.value = (
                decay(mine.value, frame - mine.stamp)
                + decay(theirs.value, frame - theirs.stamp)
            )
            mine.stamp = frame

    def reset(self) -> None:
        """Drop all counters."""
        self._counters.clear()

    def __len__(self) -> int:
        return len(self._counters)

    @property
    def num_counters(self) -> int:
        """Live counters (unbounded ground truth grows with the key set)."""
        return len(self._counters)


def _exact_decayed_factory(law: DecayLaw | None = None) -> ExactDecayedCounts:
    """Registry factory with a default exponential law (tau = 10 s)."""
    return ExactDecayedCounts(law or ExponentialDecay(tau=10.0))


register_detector(
    "exact-decayed", _exact_decayed_factory, timestamped=True, mergeable=True,
    description="Unbounded per-key decayed counters (ground truth)",
    accuracy=AccuracyFloor(recall=0.99, f1=0.99, truth="decayed", horizon=10.0),
)
