"""Space-Saving (Metwally, Agrawal, El Abbadi 2005).

Maintains exactly ``capacity`` counters.  A new key evicts the current
minimum counter and inherits its count as error.  Guarantees:

- every key with true count > N/capacity is in the table;
- each tracked estimate overestimates by at most the inherited error,
  itself bounded by N/capacity.

Counters live in a :class:`repro.core.flat_table.FlatTable`: float64
``counts``/``errors`` columns over an open-addressing slot array.  The
batch path pre-aggregates each chunk by key and applies the admission-free
prefix (tracked-key hits as one scatter-add, new keys bulk-inserted into
guaranteed-free slots) fully vectorized; only the eviction tail — packets
from the first possible eviction onward — replays through scalar
``update``, so eviction order is exactly the scalar algorithm's.
Evictions pick the minimum ``(count, key)`` pair, which both paths compute
identically regardless of slot layout.
"""

from __future__ import annotations

import numpy as np

from repro.core.detector import (
    Detector,
    as_batch,
    as_uint64_keys,
    ensure_nonnegative_weights,
)
from repro.core.flat_table import FlatTable, group_sums, plan_batch
from repro.core.registry import AccuracyFloor, register_detector


_MASK64 = (1 << 64) - 1
_SCALAR_CUTOFF = 16


class SpaceSaving(Detector):
    """Fixed-capacity heavy-hitter counter table with batch admission."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._table = FlatTable(capacity, {"counts": np.float64, "errors": np.float64})
        self.total = 0

    def update(self, key: int, weight: float = 1, ts: float = 0.0) -> None:
        """Account ``weight`` for ``key``."""
        if weight < 0:
            raise ValueError(f"negative weight {weight}")
        self.total += weight
        key = int(key) & _MASK64
        table = self._table
        counts = table.cols["counts"]
        slot = table.slot_of.get(key, -1)
        if slot >= 0:
            counts[slot] += weight
            return
        if len(table) < self.capacity:
            slot = table.insert(key)
            counts[slot] = weight
            return
        victim_slot = self._min_slot()
        victim_count = float(counts[victim_slot])
        table.remove(int(table.key_col[victim_slot]))
        slot = table.insert(key)
        counts[slot] = victim_count + weight
        table.cols["errors"][slot] = victim_count

    def update_batch(self, keys, weights=None, ts=None) -> None:
        """Vectorized chunk update: scatter the admission-free prefix,
        replay the eviction tail."""
        keys, weights, _ = as_batch(keys, weights, ts)
        n = keys.shape[0]
        if n == 0:
            return
        if n < _SCALAR_CUTOFF:
            super().update_batch(keys, weights)
            return
        ku = as_uint64_keys(keys)
        w = ensure_nonnegative_weights(weights).astype(np.float64)
        table = self._table
        # Eviction-free fast path: every key resolves to a slot (new keys
        # claim free ones), then one scatter-add lands the whole chunk.
        resolved = table.upsert_batch(ku, self.capacity - len(table))
        if resolved is not None:
            slots, _ = resolved
            table.cols["counts"] += np.bincount(
                slots, weights=w, minlength=table.size
            )
            self.total += w.sum().item()
            return
        slots, split = plan_batch(table, ku)
        if split:
            prefix_slots = slots[:split]
            prefix_w = w[:split]
            hits = prefix_slots >= 0
            if hits.any():
                table.cols["counts"] += np.bincount(
                    prefix_slots[hits], weights=prefix_w[hits], minlength=table.size
                )
            if not hits.all():
                miss = ~hits
                new_keys, sums = group_sums(ku[:split][miss], prefix_w[miss])
                counts = table.cols["counts"]
                for key, count in zip(new_keys.tolist(), sums.tolist()):
                    slot = table.insert(key)
                    counts[slot] = count
            self.total += prefix_w.sum().item()
        if split < n:
            update = self.update
            for key, weight in zip(ku[split:].tolist(), w[split:].tolist()):
                update(key, weight)

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

    def query(
        self, threshold: float, now: float | None = None
    ) -> dict[int, float]:
        """Tracked keys whose estimate reaches ``threshold``."""
        counts = self._table.cols["counts"]
        return {
            key: float(counts[slot])
            for key, slot in self._table.slot_of.items()
            if counts[slot] >= threshold
        }

    def items(self) -> dict[int, float]:
        """A copy of the live counter table."""
        counts = self._table.cols["counts"]
        return {
            key: float(counts[slot]) for key, slot in self._table.slot_of.items()
        }

    def _errors_map(self) -> dict[int, float]:
        errors = self._table.cols["errors"]
        return {
            key: float(errors[slot]) for key, slot in self._table.slot_of.items()
        }

    def reset(self) -> None:
        """Drop all counters."""
        self._table.clear()
        self.total = 0

    def merge(self, other: "Detector") -> None:
        """Standard Space-Saving merge: sum estimates and errors over the
        key union, keep the ``capacity`` largest (overestimates preserved)."""
        if not isinstance(other, SpaceSaving):
            raise ValueError("can only merge SpaceSaving")
        self_counts = self.items()
        other_counts = other.items()
        self_errors = self._errors_map()
        other_errors = other._errors_map()
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

    def __len__(self) -> int:
        return len(self._table)

    @property
    def num_counters(self) -> int:
        """Counters allocated (for resource accounting)."""
        return self.capacity


register_detector(
    "spacesaving", SpaceSaving,
    description="Space-Saving top-k counter table (vectorized batch admission)",
    accuracy=AccuracyFloor(recall=0.95, f1=0.90),
)
