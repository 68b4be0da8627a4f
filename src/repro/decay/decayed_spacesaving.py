"""Space-Saving over decayed counts.

The TDBF answers "how heavy is key X right now?" but cannot *enumerate*
heavy keys — for reporting we need a bounded, enumerable summary of decayed
volumes.  Decayed Space-Saving keeps ``capacity`` lazily-decayed counters;
on a miss with a full table it evicts the counter with the smallest decayed
value and the newcomer inherits that value as its (decayed) error, exactly
mirroring classic Space-Saving's overestimate semantics but in continuous
time.

Counters live in a :class:`repro.core.flat_table.FlatTable` with float64
``values``/``stamps`` columns, so the eviction scan and the
enumeration path are vectorized.  For value-linear laws (exponential — the
``decay_factor`` hook) the batch path is vectorized too: each chunk is
grouped per key, every contribution decays by its own factor into the
key's last-touch frame, and one scatter-add lands the whole group.
The linear law (not value-linear: its zero floor), unsorted timestamps,
and chunks older than the table's newest stamp replay the exact scalar
path instead.

Past the chunk's first eviction the batch path replays packet by packet,
but evicts in heap order: under exponential decay the order of decayed
values never changes with time, so a min-heap on ``log(value) +
stamp/tau`` names each victim without scanning the counters, and the
victim's inherited value is still computed the way the scan computes it.
An eviction is one table call, ``FlatTable.replace``: the newcomer takes
the victim's slot and nothing is hashed.  A victim alone in its rounding
window, nearly every one, is decided without a candidate set.  The full
scan (``_min_slot``) stays as the scalar reference that scalar ``update``
runs; where underflow breaks the heap's order, the tail hands the rest of
its chunk to ``update``.
"""

from __future__ import annotations

import sys
from heapq import heapify, heappop, heappush, heapreplace
from math import exp, inf, log

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
from repro.core.registry import AccuracyFloor, register_detector
from repro.decay.laws import DecayLaw, ExponentialDecay


#: The priority window whose keys an eviction rechecks exactly is
#: ``_WINDOW * (|p| + _LOG_SPAN)`` wide.  A priority and the scan's decayed
#: value each round by a few ulps of the terms they sum: ``|log value|``
#: (<= 745), ``age/tau`` (<= ``_MAX_DECAY``) and ``|stamp/tau|`` (<= ``|p|``
#: + 745).  The window is ~1000 times that, and also absorbs the rounding
#: drift that up to ~10^6 zero-weight hits leave on a stale entry.
_WINDOW = 1e-12
_LOG_SPAN = 2200.0
#: Largest ``age/tau`` at which a decay factor ``exp(-age/tau)`` is still
#: a normal float (it underflows past ~708.4).  Past it the decayed value
#: of even a huge counter can round to 0, out of priority order: such an
#: eviction goes to the scan, and such a hit re-pushes its key.
_MAX_DECAY = 700.0
#: Smallest normal float: a decayed minimum below it goes to the scan.
_TINY = sys.float_info.min


class DecayedSpaceSaving(Detector):
    """Fixed-capacity enumerable summary of decayed byte volumes."""

    _STATE_ATTRS = ("capacity", "law", "_table")

    def __init__(self, capacity: int, law: DecayLaw) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.law = law
        self._table = FlatTable(
            capacity,
            {"values": np.float64, "stamps": np.float64},
        )

    def update(self, key: int, weight: float = 1,
               ts: float | None = None) -> None:
        """Account ``weight`` for ``key`` at time ``ts``."""
        if ts is None:
            raise TypeError("DecayedSpaceSaving.update() requires the packet "
                            "timestamp 'ts'")
        if weight < 0:
            raise ValueError(f"negative weight {weight}")
        key = int(key) & _MASK64
        table = self._table
        values = table.cols["values"]
        stamps = table.cols["stamps"]
        slot = table.slot_of.get(key, -1)
        if slot >= 0:
            stamp = stamps[slot]
            if ts >= stamp:
                values[slot] = self.law.decay(values[slot], ts - stamp) + weight
                stamps[slot] = ts
            else:
                # Late (reordered) observation: decay the contribution.
                values[slot] += self.law.decay(weight, stamp - ts)
            return
        if len(table) < self.capacity:
            slot = table.insert(key)
            values[slot] = weight
            stamps[slot] = ts
            return
        victim_slot, victim_value = self._min_slot(ts)
        slot = table.replace(int(table.key_col[victim_slot]), key)
        values[slot] = victim_value + weight
        stamps[slot] = ts

    def update_batch(self, keys, weights=None, ts=None) -> None:
        """Vectorized chunk update for value-linear laws.

        Hits and fresh inserts in the admission-free prefix are grouped per
        slot: each contribution decays by its own factor into the key's
        last-touch frame within the chunk, then one scatter-add applies the
        group.  The eviction tail replays packet by packet with
        heap-ordered eviction (:meth:`_replay_tail`); every non-linear-law
        or reordered chunk replays the exact scalar path.
        """
        keys, weights, ts = as_batch(keys, weights, ts)
        if ts is None:
            raise TypeError("DecayedSpaceSaving.update_batch() requires the "
                            "packet timestamp column 'ts'")
        n = keys.shape[0]
        if n == 0:
            return
        factor = getattr(self.law, "decay_factor", None)
        if factor is None or n < _SCALAR_CUTOFF or np.any(np.diff(ts) < 0):
            super().update_batch(keys, weights, ts)
            return
        ku = as_uint64_keys(keys)
        w = ensure_nonnegative_weights(weights).astype(np.float64)
        table = self._table
        values = table.cols["values"]
        stamps = table.cols["stamps"]
        if len(table) and ts[0] < stamps[table.live_mask].max():
            # Chunk starts behind a live counter: late-packet semantics are
            # per-counter; keep the exact scalar path.
            super().update_batch(ku, w, ts)
            return
        # One slot-grouped decay-and-add pass lands the admission-free
        # prefix.  Each slot's frame is its last packet's ts (sorted ts:
        # the trailing fancy-assignment write is the newest).  A slot
        # claimed here holds value 0 at stamp 0, so its age is clipped at
        # 0 rather than read as a factor that overflows for ts < -709 tau.
        slots, split = admit_batch(table, ku)
        if split:
            prefix_ts = ts[:split]
            last_ts = np.zeros(table.capacity, dtype=np.float64)
            last_ts[slots] = prefix_ts
            contrib = np.bincount(
                slots, weights=w[:split] * factor(last_ts[slots] - prefix_ts),
                minlength=table.capacity,
            )
            touched = np.zeros(table.capacity, dtype=bool)
            touched[slots] = True
            us = np.flatnonzero(touched)
            ages = np.maximum(last_ts[us] - stamps[us], 0.0)
            values[us] = values[us] * factor(ages) + contrib[us]
            stamps[us] = last_ts[us]
        if split < n:
            self._replay_tail(ku[split:], w[split:], ts[split:])

    def _replay_tail(self, keys: np.ndarray, weights: np.ndarray,
                     ts: np.ndarray) -> None:
        """Replay a chunk's eviction tail packet by packet, evicting in
        heap order; bit-identical to calling :meth:`update` per packet.

        Called only for the exponential law on sorted timestamps no older
        than any live stamp, so every hit decays its counter forwards; the
        prefix filled every free slot, so every miss evicts.  Victims come
        off a min-heap of ``(priority, key)`` built at the first eviction.
        Hits leave entries stale, since a hit lowers a priority by no more
        than rounding unless its decay factor underflows, and
        :func:`_heap_victim` refreshes them as they surface.  The loop
        works on Python-float copies of the columns, which stay aligned
        with the table: ``replace`` hands the victim's slot to the
        newcomer, and no slot ever moves.
        The copies are written back at the end, or when an eviction only
        the scan can decide hands the rest of the chunk to :meth:`update`.
        """
        table = self._table
        values = table.cols["values"]
        stamps = table.cols["stamps"]
        slot_of = table.slot_of
        # Value-linear laws (the ``decay_factor`` hook) are exponential.
        tau = self.law.tau
        max_age = _MAX_DECAY * tau
        vals = values.tolist()
        sts = stamps.tolist()
        heap = None
        oldest = -inf  # never above a live stamp
        for i, (key, weight, now) in enumerate(
            zip(keys.tolist(), weights.tolist(), ts.tolist())
        ):
            slot = slot_of.get(key, -1)
            if slot >= 0:
                # ``update``'s in-order hit: ``law.decay`` then add.  Past
                # ``max_age`` the factor can underflow and drop the priority
                # below the key's heap entry, so the key gets a fresh one.
                age = now - sts[slot]
                vals[slot] = value = vals[slot] * exp(-age / tau) + weight
                sts[slot] = now
                if age > max_age and heap is not None:
                    heappush(heap, (_priority(value, now, tau), key))
                continue
            if heap is None:
                heap = [(_priority(vals[s], sts[s], tau), k)
                        for k, s in slot_of.items()]
                heapify(heap)
            # Every live factor stays normal while the oldest stamp is
            # within ``max_age``; ``oldest`` is refreshed once it is not.
            if now - oldest > max_age:
                oldest = min(sts[s] for s in slot_of.values())
            victim = None
            if now - oldest <= max_age:
                victim = _heap_victim(heap, slot_of, vals, sts, tau, now)
            if victim is None:
                # Only the scan can decide: the reference replays the rest.
                values[:] = vals
                stamps[:] = sts
                update = self.update
                for key, weight, now in zip(
                    keys[i:].tolist(), weights[i:].tolist(), ts[i:].tolist()
                ):
                    update(key, weight, now)
                return
            victim, value = victim
            slot = table.replace(victim, key)
            vals[slot] = value = value + weight
            sts[slot] = now
            heappush(heap, (_priority(value, now, tau), key))
        values[:] = vals
        stamps[:] = sts

    def _decayed_values(self, now: float) -> np.ndarray:
        """Every slot's decayed value at ``now`` (garbage in dead slots)."""
        table = self._table
        values = table.cols["values"]
        ages = now - table.cols["stamps"]
        return np.where(
            ages <= 0, values, self.law.decay_array(values, np.maximum(ages, 0.0))
        )

    def _min_slot(self, now: float) -> tuple[int, float]:
        """Slot holding the smallest decayed value at ``now`` (ties by key)."""
        table = self._table
        decayed = np.where(table.live_mask, self._decayed_values(now), np.inf)
        best = decayed.min()
        tied = np.flatnonzero(decayed == best)
        if tied.size == 1:
            return int(tied[0]), float(best)
        return int(tied[np.argmin(table.key_col[tied])]), float(best)

    def _read(self, slot: int, now: float) -> float:
        """One counter's decayed value at ``now``."""
        table = self._table
        stamp = table.cols["stamps"][slot]
        value = table.cols["values"][slot]
        if now <= stamp:
            return float(value)
        return float(self.law.decay(value, now - stamp))

    def estimate(self, key: int, now: float) -> float:
        """Decayed overestimate of ``key``'s volume at ``now``."""
        key = int(key) & _MASK64
        table = self._table
        slot = table.slot_of.get(key, -1)
        if slot >= 0:
            return self._read(slot, now)
        if len(table) >= self.capacity:
            return self._min_slot(now)[1]
        return 0.0

    def query(self, threshold: float,
              now: float | None = None) -> dict[int, float]:
        """Tracked keys whose decayed estimate at ``now`` reaches
        ``threshold``."""
        if now is None:
            raise TypeError("DecayedSpaceSaving.query() requires the query "
                            "time 'now'")
        report = self.items(now)
        return {key: value for key, value in report.items()
                if value >= threshold}

    def items(self, now: float) -> dict[int, float]:
        """All tracked keys with their decayed values at ``now``."""
        table = self._table
        if not len(table):
            return {}
        slots = np.fromiter(
            table.slot_of.values(), dtype=np.int64, count=len(table)
        )
        decayed = self._decayed_values(now)[slots]
        return dict(zip(table.slot_of.keys(), decayed.tolist()))

    def reset(self) -> None:
        """Drop all counters."""
        self._table.clear()

    def __len__(self) -> int:
        return len(self._table)

    @property
    def num_counters(self) -> int:
        """Counters allocated (for resource accounting)."""
        return self.capacity


def _priority(value: float, stamp: float, tau: float) -> float:
    """``log(value) + stamp/tau``, which orders counters by decayed value
    at any later time under ``ExponentialDecay(tau)``.  ``-inf`` when the
    value is not positive or the sum is NaN: such a counter pops first and
    its eviction goes to the scan."""
    if value > 0:
        priority = log(value) + stamp / tau
        if priority == priority:
            return priority
    return -inf


def _heap_victim(heap: list, slot_of: dict, vals: list, sts: list,
                 tau: float, now: float) -> tuple[int, float] | None:
    """Pop the victim at ``now`` off a heap of ``(priority, key)`` entries.

    Returns the ``(key, decayed value)`` that ``_min_slot(now)`` picks,
    or ``None`` when only that scan can decide.  Every live key has an
    entry no higher than its current priority, up to rounding; entries of
    evicted keys are dropped as they surface, stale ones re-pushed.  The
    first fresh entry is the minimum up to rounding: when no other entry
    lies within its rounding window, it is the victim outright, and
    otherwise :func:`_window_victim` decides among the window's fresh
    entries.  The victim's value is computed by the scan's arithmetic
    (numpy ``exp``: ``math.exp`` can differ in the last bit).  The scan
    decides when the minimum's priority is not finite or its decayed
    value is zero or subnormal, where underflow ties or reorders counters
    whose priorities differ; the heap is then incomplete, and the caller
    drops it.
    """
    while True:
        priority, key = heap[0]
        slot = slot_of.get(key, -1)
        if slot < 0:
            heappop(heap)
            continue
        current = _priority(vals[slot], sts[slot], tau)
        if current == priority:
            break
        heapreplace(heap, (current, key))
    heappop(heap)
    if not -inf < priority < inf:
        return None
    bound = priority + _WINDOW * (abs(priority) + _LOG_SPAN)
    if heap and heap[0][0] <= bound:
        return _window_victim(heap, slot_of, vals, sts, tau, now, bound,
                              {key: (priority, slot)})
    value = _scan_decay(vals[slot], now - sts[slot], tau)
    return None if value < _TINY else (key, value)


def _window_victim(heap: list, slot_of: dict, vals: list, sts: list,
                   tau: float, now: float, bound: float,
                   candidates: dict[int, tuple[float, int]]
                   ) -> tuple[int, float] | None:
    """:func:`_heap_victim`'s victim when more than the minimum's entry
    lies within ``bound``, its rounding window.

    ``candidates`` maps the minimum's key to its ``(priority, slot)``.
    Every fresh entry up to ``bound`` joins it (dead entries and
    duplicates are dropped, stale ones re-pushed); the smallest
    ``(decayed value, key)`` wins, and the others go back on the heap.
    """
    while heap and heap[0][0] <= bound:
        priority, key = heap[0]
        slot = slot_of.get(key, -1)
        if slot < 0 or key in candidates:
            heappop(heap)
            continue
        current = _priority(vals[slot], sts[slot], tau)
        if current != priority:
            heapreplace(heap, (current, key))
            continue
        heappop(heap)
        candidates[key] = (priority, slot)
    value, victim = min(
        (_scan_decay(vals[slot], now - sts[slot], tau), key)
        for key, (_, slot) in candidates.items()
    )
    if value < _TINY:
        return None
    for key, (priority, _) in candidates.items():
        if key != victim:
            heappush(heap, (priority, key))
    return victim, value


def _scan_decay(value: float, age: float, tau: float) -> float:
    """``value`` decayed over ``age`` as ``_min_slot``'s scan computes it."""
    if age > 0:
        value = value * float(np.exp(-age / tau))
    return value


def _decayed_ss_factory(
    capacity: int = 256, law: DecayLaw | None = None
) -> DecayedSpaceSaving:
    """Registry factory with a default exponential law (tau = 10 s)."""
    return DecayedSpaceSaving(capacity, law or ExponentialDecay(tau=10.0))


register_detector(
    "decayed-spacesaving", _decayed_ss_factory, timestamped=True,
    description="Space-Saving over decayed counts (vectorized batch admission)",
    accuracy=AccuracyFloor(recall=0.95, f1=0.95, truth="decayed", horizon=10.0),
)
