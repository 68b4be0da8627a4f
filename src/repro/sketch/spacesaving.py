"""Space-Saving (Metwally, Agrawal, El Abbadi 2005).

Maintains exactly ``capacity`` counters.  A new key evicts the current
minimum counter and inherits its count as error.  Guarantees:

- every key with true count > N/capacity is in the table;
- each tracked estimate overestimates by at most the inherited error,
  itself bounded by N/capacity.

Counters, batch admission and reporting are the shared
:class:`repro.sketch.counter_table.CounterTable` (float64 ``counts`` plus
an ``errors`` column here); this module adds the eviction rule.
Evictions pick the minimum ``(count, key)`` pair, which the scalar and
batch paths compute identically regardless of slot layout.
"""

from __future__ import annotations

import numpy as np

from repro.core.detector import _MASK64, Detector
from repro.core.registry import AccuracyFloor, register_detector
from repro.sketch.counter_table import CounterTable


class SpaceSaving(CounterTable):
    """Fixed-capacity heavy-hitter counter table with batch admission."""

    _COLUMNS = ("counts", "errors")

    def _full_miss(self, key: int, weight: float) -> None:
        """Evict the minimum counter; ``key`` inherits its count as error."""
        table = self._table
        counts = table.cols["counts"]
        victim_slot = self._min_slot()
        victim_count = float(counts[victim_slot])
        slot = table.replace(int(table.key_col[victim_slot]), key)
        counts[slot] = victim_count + weight
        table.cols["errors"][slot] = victim_count

    def _min_slot(self) -> int:
        """Slot of the minimum live counter; ties broken by smallest key."""
        table = self._table
        counts = np.where(table.live_mask, table.cols["counts"], np.inf)
        tied = np.flatnonzero(counts == counts.min())
        if tied.size == 1:
            return int(tied[0])
        return int(tied[np.argmin(table.key_col[tied])])

    def estimate(self, key: int) -> float:
        """Overestimate of ``key``'s count (min possible count if untracked)."""
        key = int(key) & _MASK64
        table = self._table
        slot = table.slot_of.get(key, -1)
        if slot >= 0:
            return float(table.cols["counts"][slot])
        return self._min_count() if len(table) >= self.capacity else 0

    def _min_count(self) -> float:
        table = self._table
        if not len(table):
            return 0
        return float(table.cols["counts"][table.live_mask].min())

    def merge(self, other: "Detector") -> None:
        """Standard Space-Saving merge: sum estimates and errors over the
        key union, keep the ``capacity`` largest (overestimates preserved)."""
        if not isinstance(other, SpaceSaving):
            raise ValueError("can only merge SpaceSaving")
        self_counts = self.items()
        other_counts = other.items()
        self_errors = self._column("errors")
        other_errors = other._column("errors")
        self_min = self._min_count() if len(self_counts) >= self.capacity else 0
        other_min = (
            other._min_count() if len(other_counts) >= other.capacity else 0
        )
        merged: dict[int, tuple[float, float]] = {}
        for key in self_counts.keys() | other_counts.keys():
            # A key untracked on one side may still have up to that side's
            # minimum count there; fold it into the inherited error.
            c1 = self_counts.get(key)
            c2 = other_counts.get(key)
            count = (c1 if c1 is not None else self_min) + (
                c2 if c2 is not None else other_min
            )
            error = (
                self_errors.get(key, self_min if c1 is None else 0)
                + other_errors.get(key, other_min if c2 is None else 0)
            )
            merged[key] = (count, error)
        top = sorted(merged.items(), key=lambda kv: kv[1][0], reverse=True)
        top = top[: self.capacity]
        table = self._table
        table.clear()
        counts = table.cols["counts"]
        errors = table.cols["errors"]
        for key, (count, error) in top:
            slot = table.insert(key)
            counts[slot] = count
            errors[slot] = error
        self.total += other.total


register_detector(
    "spacesaving", SpaceSaving,
    description="Space-Saving top-k counter table (vectorized batch admission)",
    accuracy=AccuracyFloor(recall=0.95, f1=0.90),
)
