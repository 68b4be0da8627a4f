"""Flat open-addressing key table with amortized batch admission helpers.

This is the shared fast-path primitive behind the pointer-based detector
family (Space-Saving, Misra-Gries, the decayed variants, and friends).
Each detector keeps its per-key state in named numpy columns owned by a
:class:`FlatTable`; the table provides

- scalar ``insert``/``remove``/``slot_of`` maintenance with linear-probe
  open addressing and tombstones,
- a vectorized ``lookup_batch`` that resolves a whole key column to slot
  indices in a handful of probe rounds, and
- :func:`admit_batch`, which claims slots for a chunk's admission-free
  prefix: everything before the first packet that could trigger an
  eviction (tracked-key hits plus inserts into guaranteed-free slots)
  resolves to a slot and can be applied with scatter-adds in any order,
  while the remainder is replayed through the detector's scalar
  ``update`` so eviction order stays exactly the scalar algorithm's.

Capacity discipline: callers never hold more than ``capacity`` live keys,
and the backing arrays are sized at the next power of two >= 2*capacity,
so the load factor stays <= 0.5 plus tombstones.  A deterministic in-place
rebuild clears tombstones before probe chains can degrade; one rule,
:meth:`FlatTable.rebuild_due`, says when.

Column arrays are rebuilt *in place* (same ndarray objects) so detectors
may safely cache references to them; checkpoints encode the table through
its ``__dict__`` and restore the shared arrays shared.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.mixers import splitmix64, splitmix64_array


_EMPTY = 0
_LIVE = 1
_TOMBSTONE = 2


class FlatTable:
    """Open-addressing uint64-key table with named numpy value columns."""

    def __init__(self, capacity: int, columns: dict[str, type]) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        size = 8
        while size < 2 * capacity:
            size <<= 1
        self.capacity = capacity
        self.size = size
        self._mask = size - 1
        self.key_col = np.zeros(size, dtype=np.uint64)
        self.state = np.zeros(size, dtype=np.int8)
        self.cols = {name: np.zeros(size, dtype=dt) for name, dt in columns.items()}
        # Python-dict sidecar: key -> slot, for O(1) scalar gets and
        # deterministic iteration over live keys.
        self.slot_of: dict[int, int] = {}
        self._tombstones = 0

    def __len__(self) -> int:
        return len(self.slot_of)

    def __contains__(self, key: int) -> bool:
        return key in self.slot_of

    def get(self, key: int) -> int:
        """Slot of ``key``, or -1 when untracked."""
        return self.slot_of.get(key, -1)

    @property
    def live_mask(self) -> np.ndarray:
        """Boolean mask over slots currently holding a live key."""
        return self.state == _LIVE

    def rebuild_due(self, extra: int = 0) -> bool:
        """Whether the table rebuilds before its next claims: live keys
        plus tombstones plus ``extra`` fill more than 3/4 of the slots.

        ``insert`` asks with ``extra=0`` before each claim and
        ``upsert_batch`` with its ``max_new``; a caller holding column
        copies asks first, since a rebuild moves column values.
        """
        return (len(self.slot_of) + self._tombstones + extra) * 4 > self.size * 3

    def insert(self, key: int) -> int:
        """Claim a slot for absent ``key`` and return it (columns zeroed)."""
        if len(self.slot_of) >= self.capacity:
            raise RuntimeError("flat table is at capacity; evict first")
        if self.rebuild_due():
            self._rebuild()
        mask = self._mask
        state = self.state
        h = splitmix64(key) & mask
        while state[h] == _LIVE:
            h = (h + 1) & mask
        if state[h] == _TOMBSTONE:
            self._tombstones -= 1
        slot = int(h)
        state[slot] = _LIVE
        self.key_col[slot] = key
        for col in self.cols.values():
            col[slot] = 0
        self.slot_of[key] = slot
        return slot

    def remove(self, key: int) -> None:
        """Tombstone ``key``'s slot (key must be tracked)."""
        slot = self.slot_of.pop(key)
        self.state[slot] = _TOMBSTONE
        self._tombstones += 1

    def _rebuild(self) -> None:
        """Re-place every live key, dropping tombstones (in place)."""
        mask = self._mask
        old = list(self.slot_of.items())
        snapshot = {name: col.copy() for name, col in self.cols.items()}
        self.state[:] = _EMPTY
        self.key_col[:] = 0
        self.slot_of.clear()
        self._tombstones = 0
        for key, old_slot in old:
            h = splitmix64(key) & mask
            while self.state[h] == _LIVE:
                h = (h + 1) & mask
            slot = int(h)
            self.state[slot] = _LIVE
            self.key_col[slot] = key
            for name, col in self.cols.items():
                col[slot] = snapshot[name][old_slot]
            self.slot_of[key] = slot

    def upsert_batch(self, keys: np.ndarray, max_new: int) -> np.ndarray | None:
        """Resolve every key to a slot, claiming empty slots for new keys.

        Returns the per-packet slot indices (claimed slots have their
        columns zeroed) when the chunk's distinct new keys fit within
        ``max_new`` free slots.  Otherwise the table is rolled back
        untouched and ``None`` is returned.

        Claim rounds piggyback on the probe rounds: a lane that reaches an
        EMPTY slot is definitively absent and tries to claim it in place
        (last writer per slot wins; losers keep probing).  Tombstones are
        probed past but never claimed, so live probe chains stay intact.
        """
        n = keys.shape[0]
        if max_new > 0 and self.rebuild_due(max_new):
            self._rebuild()
        key_col, state = self.key_col, self.state
        snapshot_keys = key_col.copy()
        snapshot_state = state.copy()
        mask = self._mask
        # Lanes are compacted each round: (cur_h, cur_keys, cur_idx) hold
        # only the still-unresolved packets, so late rounds touch only the
        # longest probe chains.
        cur_h = (splitmix64_array(keys) & np.uint64(mask)).astype(np.int64)
        cur_keys = keys
        cur_idx = np.arange(n)
        slots = np.full(n, -1, dtype=np.int64)
        claimed_mask = np.zeros(self.size, dtype=bool)
        # On a fresh table no lane can ever hit a live key: same-key lanes
        # probe in lockstep, so they resolve together in the claim round
        # and the whole LIVE-match test can be skipped.  The first round on
        # a fresh table additionally skips the state gather (all EMPTY).
        check_live = bool(self.slot_of) or self._tombstones > 0
        first_round = True
        while cur_idx.size:
            if not check_live and first_round:
                empty = np.ones(cur_idx.size, dtype=bool)
                resolved = np.zeros(cur_idx.size, dtype=bool)
            else:
                st = state[cur_h]
                if check_live:
                    resolved = (st == _LIVE) & (key_col[cur_h] == cur_keys)
                    if resolved.any():
                        slots[cur_idx[resolved]] = cur_h[resolved]
                else:
                    resolved = np.zeros(cur_idx.size, dtype=bool)
                empty = st == _EMPTY
            first_round = False
            if empty.any():
                all_empty = empty.all()
                if all_empty:
                    cslot = cur_h
                    ckey = cur_keys
                else:
                    cslot = cur_h[empty]
                    ckey = cur_keys[empty]
                key_col[cslot] = ckey  # last writer per slot wins
                winners = key_col[cslot] == ckey
                wslot = cslot[winners]
                state[wslot] = _LIVE
                claimed_mask[wslot] = True
                if np.count_nonzero(claimed_mask) > max_new:
                    key_col[:] = snapshot_keys
                    state[:] = snapshot_state
                    return None
                if all_empty:
                    slots[cur_idx[winners]] = wslot
                    resolved |= winners
                else:
                    widx = np.flatnonzero(empty)[winners]
                    slots[cur_idx[widx]] = wslot
                    resolved[widx] = True
            keep = ~resolved
            cur_h = (cur_h[keep] + 1) & mask
            cur_keys = cur_keys[keep]
            cur_idx = cur_idx[keep]
        claimed = np.flatnonzero(claimed_mask)
        if claimed.size:
            for col in self.cols.values():
                col[claimed] = 0
            self.slot_of.update(
                zip(key_col[claimed].tolist(), claimed.tolist())
            )
        return slots

    def lookup_batch(self, keys: np.ndarray) -> np.ndarray:
        """Resolve a uint64 key column to slot indices (-1 for untracked).

        Linear probing is vectorized across the chunk: every round advances
        only the still-unresolved lanes, so the loop runs for the longest
        probe chain (a few rounds at <= 0.5 load), not per packet.
        """
        n = keys.shape[0]
        mask = np.uint64(self._mask)
        h = (splitmix64_array(keys) & mask).astype(np.int64)
        slots = np.full(n, -1, dtype=np.int64)
        pending = np.arange(n)
        state = self.state
        key_col = self.key_col
        while pending.size:
            hp = h[pending]
            st = state[hp]
            found = (st == _LIVE) & (key_col[hp] == keys[pending])
            slots[pending[found]] = hp[found]
            pending = pending[~(found | (st == _EMPTY))]
            h[pending] = (h[pending] + 1) & self._mask
        return slots

    def clear(self) -> None:
        """Drop every key (columns re-zeroed)."""
        self.state[:] = _EMPTY
        self.key_col[:] = 0
        for col in self.cols.values():
            col[:] = 0
        self.slot_of.clear()
        self._tombstones = 0


def plan_batch(table: FlatTable, keys: np.ndarray) -> int:
    """Split a chunk into an admission-free prefix and a scalar tail.

    Returns ``split``: packets ``[0, split)`` are guaranteed not to
    trigger an eviction, since the number of *distinct* untracked keys in
    the prefix fits in the table's free slots.  Before the split point,
    hit scatter-adds and bulk inserts commute, so a vectorized application
    is exactly equivalent to the scalar replay; from ``split`` on the
    caller must replay packets through scalar ``update``.
    """
    n = keys.shape[0]
    miss_pos = np.flatnonzero(table.lookup_batch(keys) < 0)
    slack = table.capacity - len(table)
    if miss_pos.size == 0:
        return n
    _, first = np.unique(keys[miss_pos], return_index=True)
    if first.size <= slack:
        return n
    # Position of the (slack+1)-th distinct new key: the first packet that
    # could force an eviction.
    first_pos = np.sort(miss_pos[first])
    return int(first_pos[slack])


def admit_batch(table: FlatTable, keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Claim slots for a chunk's admission-free prefix.

    Returns ``(slots, split)``: packets ``[0, split)`` resolve to
    ``slots``, tracked keys to their own slots and the prefix's new keys to
    freshly claimed ones (columns zeroed, claimed in slot order), so the
    caller lands the prefix with one scatter and replays packets from
    ``split`` on through scalar ``update``.  The whole chunk is the prefix
    when its distinct new keys fit the free slots; otherwise
    :func:`plan_batch` places the split, before which they fit by
    construction.
    """
    free = table.capacity - len(table)
    slots = table.upsert_batch(keys, free)
    if slots is not None:
        return slots, keys.shape[0]
    split = plan_batch(table, keys)
    return table.upsert_batch(keys[:split], free), split


def grouped_cumsum(groups: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Inclusive running sum of ``values`` within each group, in stream order.

    ``groups`` is any integer labelling (e.g. hashed cell indices); the
    result at position ``i`` is the sum of ``values[j]`` over ``j <= i``
    with ``groups[j] == groups[i]``.  This is the workhorse for simulating
    per-packet sketch estimates over a whole chunk at once.
    """
    sort_key = groups
    if groups.size and groups.dtype.itemsize > 2:
        lo, hi = int(groups.min()), int(groups.max())
        if 0 <= lo and hi < 1 << 16:
            # numpy's stable argsort switches to radix for 16-bit ints —
            # ~15x faster on sketch-width cell labellings.
            sort_key = groups.astype(np.uint16)
    order = np.argsort(sort_key, kind="stable")
    g = groups[order]
    v = values[order]
    csum = np.cumsum(v)
    starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
    lengths = np.diff(np.r_[starts, g.size])
    offsets = np.repeat(csum[starts] - v[starts], lengths)
    out = np.empty_like(csum)
    out[order] = csum - offsets
    return out
