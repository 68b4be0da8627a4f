"""Misra-Gries frequent-items summary (1982).

The decrement-based ancestor of Space-Saving: with ``capacity`` counters the
estimate *underestimates* by at most N/(capacity+1).  Weighted updates
decrement all counters by the smallest amount that frees a slot, which keeps
the classic guarantee for byte-weighted streams.

Counters, batch admission and reporting are the shared
:class:`repro.sketch.counter_table.CounterTable`; this module adds the
decrement rule, which the batch path replays in exact packet order.
"""

from __future__ import annotations

from repro.core.detector import _MASK64, Detector
from repro.core.registry import AccuracyFloor, register_detector
from repro.sketch.counter_table import CounterTable


class MisraGries(CounterTable):
    """Fixed-capacity frequent-items summary with one-sided underestimates."""

    _STATE_ATTRS = ("decremented",)

    def __init__(self, capacity: int = 256) -> None:
        super().__init__(capacity)
        self.decremented = 0

    def _full_miss(self, key: int, weight: float) -> None:
        """Decrement everyone by the amount that exhausts either the new
        key's weight or the smallest existing counter."""
        table = self._table
        counts = table.cols["counts"]
        live = table.live_mask
        min_count = float(counts[live].min())
        dec = min(weight, min_count)
        self.decremented += dec
        counts[live] -= dec
        zeroed = live & (counts == 0)
        for victim in table.key_col[zeroed].tolist():
            table.remove(victim)
        remaining = weight - dec
        if remaining > 0 and len(table) < self.capacity:
            slot = table.insert(key)
            counts[slot] = remaining

    def estimate(self, key: int) -> float:
        """Underestimate of ``key``'s count (0 when untracked)."""
        key = int(key) & _MASK64
        slot = self._table.slot_of.get(key, -1)
        return float(self._table.cols["counts"][slot]) if slot >= 0 else 0

    def reset(self) -> None:
        """Drop all counters."""
        super().reset()
        self.decremented = 0

    def merge(self, other: "Detector") -> None:
        """The classic Misra-Gries merge: add counts over the key union,
        then subtract the (capacity+1)-th largest and drop non-positives —
        keeps the N/(capacity+1) underestimate guarantee."""
        if not isinstance(other, MisraGries):
            raise ValueError("can only merge MisraGries")
        combined: dict[int, float] = self.items()
        for key, count in other.items().items():
            combined[key] = combined.get(key, 0) + count
        if len(combined) > self.capacity:
            cut = sorted(combined.values(), reverse=True)[self.capacity]
            combined = {
                k: c - cut for k, c in combined.items() if c - cut > 0
            }
            self.decremented += cut
        table = self._table
        table.clear()
        counts = table.cols["counts"]
        for key, count in combined.items():
            slot = table.insert(key)
            counts[slot] = count
        self.total += other.total
        self.decremented += other.decremented


register_detector(
    "misragries", MisraGries,
    description="Misra-Gries frequent items (vectorized batch admission)",
    accuracy=AccuracyFloor(recall=0.80, f1=0.85),
)
