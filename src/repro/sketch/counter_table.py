"""The fixed-capacity counter table Space-Saving and Misra-Gries share.

Both keep at most ``capacity`` float64 ``counts`` in a
:class:`repro.core.flat_table.FlatTable`, add a tracked key's weight to
its counter and give a new key a free counter; they differ only in what a
miss does once every counter is taken, which each subclass supplies as
:meth:`CounterTable._full_miss`.

The batch path claims slots for each chunk's admission-free prefix
(tracked-key hits and new keys that fit the free counters) with
:func:`repro.core.flat_table.admit_batch` and lands it with one
scatter-add; only the rest of the chunk replays through scalar ``update``,
so full-table misses run in exact packet order.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.detector import (
    _MASK64,
    _SCALAR_CUTOFF,
    Detector,
    as_batch,
    as_uint64_keys,
    ensure_nonnegative_weights,
)
from repro.core.flat_table import FlatTable, admit_batch


class CounterTable(Detector):
    """``capacity`` counters over a flat table, with batch admission."""

    #: The table's float64 columns; ``counts`` holds the estimates.
    _COLUMNS: tuple[str, ...] = ("counts",)
    _STATE_ATTRS = ("capacity", "_table", "total")

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._table = FlatTable(
            capacity, {name: np.float64 for name in self._COLUMNS}
        )
        self.total = 0

    def update(self, key: int, weight: float = 1, ts: float = 0.0) -> None:
        """Account ``weight`` for ``key``."""
        if weight < 0:
            raise ValueError(f"negative weight {weight}")
        self.total += weight
        key = int(key) & _MASK64
        table = self._table
        slot = table.slot_of.get(key, -1)
        if slot >= 0:
            table.cols["counts"][slot] += weight
        elif len(table) < self.capacity:
            table.cols["counts"][table.insert(key)] = weight
        else:
            self._full_miss(key, weight)

    @abc.abstractmethod
    def _full_miss(self, key: int, weight: float) -> None:
        """Account an untracked ``key`` while every counter is taken."""

    def update_batch(self, keys, weights=None, ts=None) -> None:
        """Vectorized chunk update: scatter the admission-free prefix,
        replay the rest through scalar ``update``."""
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
        slots, split = admit_batch(table, ku)
        if split:
            table.cols["counts"] += np.bincount(
                slots, weights=w[:split], minlength=table.capacity
            )
            self.total += w[:split].sum().item()
        update = self.update
        for key, weight in zip(ku[split:].tolist(), w[split:].tolist()):
            update(key, weight)

    def query(
        self, threshold: float, now: float | None = None
    ) -> dict[int, float]:
        """Tracked keys whose estimate reaches ``threshold``."""
        return {key: count for key, count in self.items().items()
                if count >= threshold}

    def items(self) -> dict[int, float]:
        """A copy of the live counter table."""
        return self._column("counts")

    def _column(self, name: str) -> dict[int, float]:
        values = self._table.cols[name]
        return {
            key: float(values[slot]) for key, slot in self._table.slot_of.items()
        }

    def reset(self) -> None:
        """Drop all counters."""
        self._table.clear()
        self.total = 0

    def __len__(self) -> int:
        return len(self._table)

    @property
    def num_counters(self) -> int:
        """Counters allocated (for resource accounting)."""
        return self.capacity
