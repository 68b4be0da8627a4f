"""Dense key table with vectorized batch admission helpers.

This is the shared fast-path primitive behind the pointer-based detector
family (Space-Saving, Misra-Gries, the decayed variants, and friends).
Each detector keeps its per-key state in named numpy columns of
``capacity`` dense slots owned by a :class:`FlatTable`; the table provides

- scalar ``insert``/``remove``/``replace``/``slot_of`` maintenance:
  ``insert`` takes the most recently freed slot, or else the next slot
  never used, ``remove`` frees the key's slot onto that free stack, and
  ``replace`` (an eviction's one table call) hands an old key's slot
  straight to a new key, so none of them hashes or probes;
- a vectorized ``lookup_batch`` that resolves a whole key column to slot
  indices in a handful of probe rounds over a key-to-slot index, and
- :func:`admit_batch`, which claims slots for a chunk's admission-free
  prefix: everything before the first packet that could trigger an
  eviction (tracked-key hits plus inserts into guaranteed-free slots)
  resolves to a slot and can be applied with scatter-adds in any order,
  while the remainder is replayed through the detector's scalar
  ``update`` so eviction order stays exactly the scalar algorithm's.
  On a full table that prefix is the hits before the first miss, which
  one ``lookup_batch`` finds.

The index serves the batch calls only: linear-probe open addressing over
the next power of two >= 2*capacity cells, holding live keys alone, so
its load factor stays <= 0.5.  Any scalar ``insert``, ``remove`` or
``replace`` drops it (``_index`` reads ``None``), and the next batch call
rebuilds it from the live keys in one vectorized pass.

A key keeps its slot until it is removed, and column arrays are never
reallocated, so detectors may safely cache references to them;
checkpoints encode the table through its ``__dict__`` and restore the
shared arrays shared.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.mixers import splitmix64_array


_EMPTY = 0
_LIVE = 1

#: An index cell's slot while the cell is empty.
_OPEN = -1


class FlatTable:
    """``capacity`` dense slots of uint64 keys with named numpy columns."""

    _STATE_ATTRS = ("capacity", "key_col", "state", "cols", "slot_of",
                    "_free", "_unused", "_index")

    def __init__(self, capacity: int, columns: dict[str, type]) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.key_col = np.zeros(capacity, dtype=np.uint64)
        self.state = np.zeros(capacity, dtype=np.int8)
        self.cols = {
            name: np.zeros(capacity, dtype=dt) for name, dt in columns.items()
        }
        # Python-dict sidecar: key -> slot, for O(1) scalar gets and
        # deterministic iteration over live keys.
        self.slot_of: dict[int, int] = {}
        # Slots ``remove`` freed, most recent last; once it is empty,
        # ``insert`` hands out ``_unused``, the first slot never used.
        self._free: list[int] = []
        self._unused = 0
        # The batch calls' (keys, slots) index, or None while stale.
        self._index: tuple[np.ndarray, np.ndarray] | None = None

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

    def insert(self, key: int) -> int:
        """Claim a slot for absent ``key`` and return it (columns zeroed)."""
        if self._free:
            slot = self._free.pop()
        elif self._unused < self.capacity:
            slot = self._unused
            self._unused = slot + 1
        else:
            raise RuntimeError("flat table is at capacity; evict first")
        self.state[slot] = _LIVE
        self.key_col[slot] = key
        for col in self.cols.values():
            col[slot] = 0
        self.slot_of[key] = slot
        self._index = None
        return slot

    def remove(self, key: int) -> None:
        """Free ``key``'s slot (key must be tracked)."""
        slot = self.slot_of.pop(key)
        self.state[slot] = _EMPTY
        self._free.append(slot)
        self._index = None

    def replace(self, old: int, new: int) -> int:
        """Hand tracked ``old``'s slot to absent ``new`` and return it.

        The table ends as ``remove(old)`` then ``insert(new)`` leave it
        (``new`` last in ``slot_of``, the free stack as it was), except
        that the slot's columns keep ``old``'s values: the caller writes
        every one of them.
        """
        slot = self.slot_of.pop(old)
        self.key_col[slot] = new
        self.slot_of[new] = slot
        self._index = None
        return slot

    def _take(self, count: int) -> np.ndarray:
        """The next ``count`` slots, in the order ``insert`` would hand
        them out."""
        free = self._free
        reused = min(count, len(free))
        start = self._unused
        self._unused = start + count - reused
        fresh = np.arange(start, self._unused)
        if not reused:
            return fresh
        taken = free[len(free) - reused:]
        del free[len(free) - reused:]
        return np.concatenate([np.array(taken[::-1], dtype=np.int64), fresh])

    def _live_index(self) -> tuple[np.ndarray, np.ndarray]:
        """The (keys, slots) index over the live keys, rebuilt if stale."""
        if self._index is None:
            self._index = self._build_index()
        return self._index

    def _build_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Place every live key in a fresh index, vectorized: each round
        writes the still-unplaced keys into the open cells they probe
        (last writer per cell wins), and the rest move one cell on."""
        cells = max(8, 1 << (2 * self.capacity - 1).bit_length())
        mask = cells - 1
        ikeys = np.zeros(cells, dtype=np.uint64)
        islots = np.full(cells, _OPEN, dtype=np.int64)
        if not self.slot_of:
            return ikeys, islots
        slots = np.flatnonzero(self.state == _LIVE)
        keys = self.key_col[slots]
        h = (splitmix64_array(keys) & np.uint64(mask)).astype(np.int64)
        while slots.size:
            open_ = np.flatnonzero(islots[h] == _OPEN)
            ikeys[h[open_]] = keys[open_]
            placed = open_[ikeys[h[open_]] == keys[open_]]
            islots[h[placed]] = slots[placed]
            keep = np.ones(slots.size, dtype=bool)
            keep[placed] = False
            slots, keys = slots[keep], keys[keep]
            h = (h[keep] + 1) & mask
        return ikeys, islots

    def upsert_batch(self, keys: np.ndarray, max_new: int) -> np.ndarray | None:
        """Resolve every key to a slot, claiming free slots for new keys.

        Returns the per-packet slot indices (claimed slots have their
        columns zeroed) when the chunk's distinct new keys fit within
        ``max_new`` free slots.  Otherwise the table is left untouched and
        ``None`` is returned.

        Claim rounds piggyback on the probe rounds over the index: a lane
        that reaches an open cell is definitively absent and tries to
        claim it in place (last writer per cell wins; losers keep
        probing).  The claimed keys then take slots in index-cell order,
        each the slot ``insert`` would hand out next.
        """
        n = keys.shape[0]
        ikeys, islots = self._live_index()
        mask = ikeys.shape[0] - 1
        # Lanes are compacted each round: (cur_h, cur_keys, cur_idx) hold
        # only the still-unresolved packets, so late rounds touch only the
        # longest probe chains.
        cur_h = (splitmix64_array(keys) & np.uint64(mask)).astype(np.int64)
        cur_keys = keys
        cur_idx = np.arange(n)
        cells = np.empty(n, dtype=np.int64)  # every lane resolves
        # Cells claimed by this call; their slots are assigned at the end.
        claimed_mask = np.zeros(mask + 1, dtype=bool)
        # On a fresh table no lane can ever hit a live key: same-key lanes
        # probe in lockstep, so they resolve together in the claim round
        # and the whole live-match test can be skipped.  The first round on
        # a fresh table additionally skips the cell gather (all open).
        check_live = bool(self.slot_of)
        # cur_idx is the identity until the first compaction, so the
        # first round scatters into cells through its lane masks directly.
        first_round = True
        while cur_idx.size:
            if not check_live and first_round:
                empty = np.ones(cur_idx.size, dtype=bool)
                resolved = np.zeros(cur_idx.size, dtype=bool)
            else:
                st = islots[cur_h]
                if check_live:
                    resolved = (st >= 0) & (ikeys[cur_h] == cur_keys)
                    if resolved.any():
                        lanes = resolved if first_round else cur_idx[resolved]
                        cells[lanes] = cur_h[resolved]
                else:
                    resolved = np.zeros(cur_idx.size, dtype=bool)
                empty = st == _OPEN
                if not first_round:
                    # A cell this call claimed still reads open in islots.
                    empty &= ~claimed_mask[cur_h]
            if empty.any():
                all_empty = empty.all()
                if all_empty:
                    ccell = cur_h
                    ckey = cur_keys
                else:
                    ccell = cur_h[empty]
                    ckey = cur_keys[empty]
                ikeys[ccell] = ckey  # last writer per cell wins
                winners = ikeys[ccell] == ckey
                wcell = ccell[winners]
                claimed_mask[wcell] = True
                if np.count_nonzero(claimed_mask) > max_new:
                    # Every written cell was claimed: clear them all.
                    ikeys[claimed_mask] = 0
                    return None
                if all_empty:
                    lanes = winners if first_round else cur_idx[winners]
                    cells[lanes] = wcell
                    resolved |= winners
                else:
                    widx = np.flatnonzero(empty)[winners]
                    lanes = widx if first_round else cur_idx[widx]
                    cells[lanes] = wcell
                    resolved[widx] = True
            keep = ~resolved
            cur_h = (cur_h[keep] + 1) & mask
            cur_keys = cur_keys[keep]
            cur_idx = cur_idx[keep]
            first_round = False
        claimed = np.flatnonzero(claimed_mask)
        if claimed.size:
            slots = self._take(claimed.size)
            islots[claimed] = slots
            new_keys = ikeys[claimed]
            self.state[slots] = _LIVE
            self.key_col[slots] = new_keys
            for col in self.cols.values():
                col[slots] = 0
            self.slot_of.update(zip(new_keys.tolist(), slots.tolist()))
        return islots[cells]

    def lookup_batch(self, keys: np.ndarray) -> np.ndarray:
        """Resolve a uint64 key column to slot indices (-1 for untracked).

        Linear probing is vectorized across the chunk: every round advances
        only the still-unresolved lanes, so the loop runs for the longest
        probe chain (a few rounds at <= 0.5 load), not per packet.
        """
        n = keys.shape[0]
        ikeys, islots = self._live_index()
        mask = ikeys.shape[0] - 1
        h = (splitmix64_array(keys) & np.uint64(mask)).astype(np.int64)
        slots = np.full(n, -1, dtype=np.int64)
        pending = np.arange(n)
        while pending.size:
            hp = h[pending]
            st = islots[hp]
            found = (st >= 0) & (ikeys[hp] == keys[pending])
            slots[pending[found]] = st[found]
            pending = pending[~(found | (st == _OPEN))]
            h[pending] = (h[pending] + 1) & mask
        return slots

    def clear(self) -> None:
        """Drop every key (columns re-zeroed, every slot unused again)."""
        self.state[:] = _EMPTY
        self.key_col[:] = 0
        for col in self.cols.values():
            col[:] = 0
        self.slot_of.clear()
        self._free.clear()
        self._unused = 0
        self._index = None


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
    freshly claimed ones (columns zeroed; the slots ``insert`` would hand
    out next), so the caller lands the prefix with one scatter and replays
    packets from ``split`` on through scalar ``update``.  The whole chunk
    is the prefix when its distinct new keys fit the free slots;
    otherwise :func:`plan_batch` places the split, before which they fit
    by construction.  A full table claims nothing: one lookup resolves
    the chunk, and the prefix is the hits before its first miss.
    """
    free = table.capacity - len(table)
    if not free:
        slots = table.lookup_batch(keys)
        misses = np.flatnonzero(slots < 0)
        split = int(misses[0]) if misses.size else keys.shape[0]
        return slots[:split], split
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
