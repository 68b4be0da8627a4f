"""On-demand time-decaying Bloom filter (Bianchi, d'Heureuse, Niccolini 2011).

The key idea of the cited paper: instead of a background sweep decaying all
cells, each cell stores ``(value, last_update_ts)`` and the decay is applied
*lazily* — only when the cell is next touched by an update or a query.  With
a composable decay law (linear, exponential) lazy application is exact, and
every packet costs exactly ``k`` reads + ``k`` writes with no timers: the
formulation that fits a match-action pipeline, where registers can only be
touched by packets passing through.

Cells are parallel numpy float64 arrays (values + stamps).  For laws that
are *linear in the value* (exponential decay, which exposes
``decay_factor``), ``update_batch`` is fully vectorized and exact: each
touched cell advances to the frame the scalar replay would leave it at
(the max of its stamp and its last in-batch touch), with contributions
decayed to that frame and late-stamped cells decaying the incoming
aggregate instead — see :func:`repro.decay.batching.apply_decayed_batch`.
Untouched cells are left alone, so estimates agree with per-packet
streaming at any query time.

This structure is the concrete "proof of concept" the poster's Section 3
commits to evaluating; :class:`repro.decay.TimeDecayingHHH` lifts it (via
enumerable decayed summaries) to hierarchical detection.
"""

from __future__ import annotations

import numpy as np

from repro.core.detector import Detector
from repro.core.registry import register_detector
from repro.decay.batching import (
    apply_decayed_batch,
    as_decayed_batch,
    merge_lazily_stamped,
)
from repro.decay.laws import DecayLaw, ExponentialDecay
from repro.hashing.families import MultiplyShiftFamily


class OnDemandTDBF(Detector):
    """Lazy-decay cell array: no ticks, no sweeps, exact decayed estimates."""

    def __init__(
        self,
        cells: int = 8192,
        hashes: int = 4,
        law: DecayLaw | None = None,
        family: MultiplyShiftFamily | None = None,
    ) -> None:
        if cells < 1 or hashes < 1:
            raise ValueError(f"need cells, hashes >= 1; got {cells}, {hashes}")
        if law is None:
            raise ValueError("a DecayLaw is required (e.g. ExponentialDecay)")
        self.cells = cells
        self.hashes = hashes
        self.law = law
        family = family or MultiplyShiftFamily()
        self._funcs = [family.function(i, cells) for i in range(hashes)]
        self._values = np.zeros(cells, dtype=np.float64)
        self._stamps = np.zeros(cells, dtype=np.float64)

    def update(self, key: int, weight: float = 1,
               ts: float | None = None) -> None:
        """Insert ``weight`` at time ``ts``: decay each touched cell to
        ``ts``, then add."""
        if ts is None:
            raise TypeError("OnDemandTDBF.update() requires the packet "
                            "timestamp 'ts'")
        if weight < 0:
            raise ValueError(f"negative weight {weight}")
        values, stamps, decay = self._values, self._stamps, self.law.decay
        for f in self._funcs:
            i = f(key)
            age = ts - stamps[i]
            if age < 0:
                # A cell may carry a newer stamp than this (slightly
                # reordered) packet; decaying the *update* backwards is the
                # standard resolution and keeps estimates one-sided.
                values[i] += self.law.decay(weight, -age)
                continue
            values[i] = decay(values[i], age) + weight
            stamps[i] = ts

    def update_batch(self, keys, weights=None, ts=None) -> None:
        """Vectorized batch insertion for value-linear laws.

        Contributions are normalised to the batch's newest-timestamp frame
        and folded in per cell by
        :func:`repro.decay.batching.apply_decayed_batch`, which reproduces
        the scalar replay exactly (including reordered and late packets).
        """
        prepared = as_decayed_batch(
            self.law, keys, weights, ts, min_dense=self.cells // 128
        )
        if prepared is None:
            super().update_batch(keys, weights, ts)
            return
        keys, weights, ts, decay_factor = prepared
        apply_decayed_batch(
            self._values, self._stamps,
            [f.array(keys) for f in self._funcs],
            weights, ts, decay_factor,
        )

    def estimate(self, key: int, now: float) -> float:
        """Decayed volume overestimate at time ``now`` (min over cells).

        Read-only: cells are decayed virtually, not rewritten, so queries
        never interfere with concurrent update paths.
        """
        values, stamps, decay = self._values, self._stamps, self.law.decay
        best = None
        for f in self._funcs:
            i = f(key)
            age = now - stamps[i]
            v = decay(float(values[i]), age) if age > 0 else float(values[i])
            if best is None or v < best:
                best = v
        return best if best is not None else 0.0

    def reset(self) -> None:
        """Zero every cell and stamp, keeping the hash functions."""
        self._values.fill(0.0)
        self._stamps.fill(0.0)

    def merge(self, other: Detector) -> None:
        """Cellwise decay-to-common-frame sum (value-linear laws only).

        Exact for exponential decay by cell linearity — merging
        key-partitioned shards reproduces the single-stream filter.
        """
        merge_lazily_stamped(self, other, ("cells", "hashes", "_funcs"))

    @property
    def num_counters(self) -> int:
        """Cells allocated; each cell is (value, stamp), twice the state of
        a plain counting-Bloom cell."""
        return self.cells


def _ondemand_factory(
    cells: int = 8192,
    hashes: int = 4,
    law: DecayLaw | None = None,
    family: MultiplyShiftFamily | None = None,
) -> OnDemandTDBF:
    """Registry factory with a default exponential law (tau = 10 s)."""
    return OnDemandTDBF(cells, hashes, law or ExponentialDecay(tau=10.0), family)


register_detector(
    "ondemand-tdbf", _ondemand_factory, timestamped=True,
    enumerable=False, mergeable=True,
    description="On-demand (lazy) time-decaying Bloom filter "
                "(vectorized batch for exponential decay)",
)
