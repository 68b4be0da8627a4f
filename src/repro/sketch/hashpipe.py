"""HashPipe (Sivaraman et al., SOSR 2017) — reference [5] of the paper.

Heavy-hitter detection entirely in the data plane: ``d`` pipeline stages,
each a hash-indexed table of (key, count) slots.  Per packet:

- stage 1 *always* inserts the incoming key; if the slot held a different
  key, that (key, count) pair is evicted and carried down the pipeline;
- at later stages the carried key merges on match, takes an empty slot, or
  swaps with the slot's occupant when the occupant's count is smaller (the
  carried minimum continues onward);
- whatever is still carried after the last stage is dropped.

This matches the match-action constraint of one memory access per stage and
is the canonical "disjoint window, reset every interval" detector the
poster critiques.

Stages are numpy columns (uint64 keys, float64 counts, occupancy mask).
The batch path vectorizes stage 0 by run-length analysis: slots hit by a
single distinct key collapse to one bincount (no sorting), the rest are
stably grouped per slot, maximal same-key runs are summed in one pass, the
last run per slot becomes the new slot state, and every earlier run (plus
any displaced pre-chunk occupant) is an eviction replayed — in exact
packet order — through the stage >= 1 cascade.  Since a slot's
stage-0 evolution depends only on its own packets and cascades depend only
on earlier cascades, this reproduces the scalar pipeline exactly.
"""

from __future__ import annotations

import numpy as np

from repro.core.detector import (
    _MASK64,
    _SCALAR_CUTOFF,
    Detector,
    as_batch,
    as_uint64_keys,
    ensure_nonnegative_weights,
)
from repro.core.registry import AccuracyFloor, register_detector
from repro.hashing.families import MultiplyShiftFamily


class HashPipe(Detector):
    """d-stage pipeline of hash tables with smallest-carried eviction."""

    def __init__(
        self,
        stage_slots: int = 256,
        stages: int = 4,
        family: MultiplyShiftFamily | None = None,
    ) -> None:
        if stage_slots < 1 or stages < 1:
            raise ValueError(
                f"need stage_slots, stages >= 1; got {stage_slots}, {stages}"
            )
        self.stage_slots = stage_slots
        self.stages = stages
        family = family or MultiplyShiftFamily()
        self._hashes = [family.function(s, stage_slots) for s in range(stages)]
        self._keys = [
            np.zeros(stage_slots, dtype=np.uint64) for _ in range(stages)
        ]
        self._counts = [
            np.zeros(stage_slots, dtype=np.float64) for _ in range(stages)
        ]
        self._occ = [
            np.zeros(stage_slots, dtype=bool) for _ in range(stages)
        ]
        self.total = 0

    def update(self, key: int, weight: float = 1, ts: float = 0.0) -> None:
        """Process one packet through the pipeline."""
        if weight < 0:
            raise ValueError(f"negative weight {weight}")
        self.total += weight
        key = int(key) & _MASK64
        # Stage 0: always insert.
        slot = self._hashes[0](key)
        keys0, counts0, occ0 = self._keys[0], self._counts[0], self._occ[0]
        if occ0[slot] and keys0[slot] == key:
            counts0[slot] += weight
            return
        carried = occ0[slot]
        carried_key, carried_count = int(keys0[slot]), float(counts0[slot])
        keys0[slot] = key
        counts0[slot] = weight
        occ0[slot] = True
        if carried:
            self._cascade(carried_key, carried_count)

    def _cascade(self, carried_key: int, carried_count: float) -> None:
        """Carry an evicted (key, count) pair through stages >= 1."""
        for stage in range(1, self.stages):
            slot = self._hashes[stage](carried_key)
            keys, counts, occ = (
                self._keys[stage], self._counts[stage], self._occ[stage]
            )
            if occ[slot]:
                if keys[slot] == carried_key:
                    counts[slot] += carried_count
                    return
                if counts[slot] < carried_count:
                    evicted_key = int(keys[slot])
                    evicted_count = float(counts[slot])
                    keys[slot] = carried_key
                    counts[slot] = carried_count
                    carried_key, carried_count = evicted_key, evicted_count
            else:
                keys[slot] = carried_key
                counts[slot] = carried_count
                occ[slot] = True
                return
        # Carried minimum falls off the end of the pipeline.

    def update_batch(self, keys, weights=None, ts=None) -> None:
        """Vectorized chunk update via stage-0 run-length analysis."""
        keys, weights, _ = as_batch(keys, weights, ts)
        n = keys.shape[0]
        if n == 0:
            return
        if n < _SCALAR_CUTOFF:
            super().update_batch(keys, weights)
            return
        ku = as_uint64_keys(keys)
        w = ensure_nonnegative_weights(weights).astype(np.float64)
        self.total += w.sum().item()
        h0 = self._hashes[0].array(ku)
        keys0, counts0, occ0 = self._keys[0], self._counts[0], self._occ[0]
        # Partition stage-0 slots by how many distinct keys land on them in
        # this chunk.  Single-key slots — the common case at low load — need
        # no ordering at all: their packets form one run whose sum lands in
        # one bincount.  Only multi-key slots go through the (sorted)
        # run-length machinery, on their small packet subset.  The two slot
        # sets are disjoint, so the passes commute.
        rep = np.zeros(self.stage_slots, dtype=np.uint64)
        rep[h0] = ku  # last writer; any packet disagreeing => multi-key slot
        multi_slot = np.zeros(self.stage_slots, dtype=bool)
        disagree = rep[h0] != ku
        multi_slot[h0[disagree]] = True
        multi_pp = multi_slot[h0]  # packet lands on a multi-key slot
        evict_keys: list[np.ndarray] = []
        evict_counts: list[np.ndarray] = []
        evict_pos: list[np.ndarray] = []
        # One bincount over the whole chunk; multi-key slots are simply
        # never read from it (they are excluded from s_slots).
        ssum = np.bincount(h0, weights=w, minlength=self.stage_slots)
        touched = np.zeros(self.stage_slots, dtype=bool)
        touched[h0] = True
        s_slots = np.flatnonzero(touched & ~multi_slot)
        if s_slots.size:
            skey = rep[s_slots]
            occ = occ0[s_slots]
            held_key = keys0[s_slots]
            held_count = counts0[s_slots]
            merged = occ & (held_key == skey)
            displaced = occ & ~merged
            if displaced.any():
                # First packet position per slot, computed only when a
                # pre-chunk occupant is displaced (reversed write => first
                # packet wins).
                single = ~multi_pp
                sh = h0[single]
                pos = np.flatnonzero(single)
                first_pos = np.zeros(self.stage_slots, dtype=np.int64)
                first_pos[sh[::-1]] = pos[::-1]
                evict_keys.append(held_key[displaced])
                evict_counts.append(held_count[displaced])
                evict_pos.append(first_pos[s_slots[displaced]])
            new_counts = ssum[s_slots]
            new_counts[merged] += held_count[merged]
            keys0[s_slots] = skey
            counts0[s_slots] = new_counts
            occ0[s_slots] = True
        mp = np.flatnonzero(multi_pp)
        if mp.size:
            mh = h0[mp]
            mk = ku[mp]
            order = np.argsort(mh, kind="stable")
            oslot = mh[order]
            okey = mk[order]
            # Runs: maximal consecutive same-key stretches within each
            # slot's packet-ordered subsequence.
            run_start = np.r_[
                True, (oslot[1:] != oslot[:-1]) | (okey[1:] != okey[:-1])
            ]
            run_id = np.cumsum(run_start) - 1
            run_sum = np.bincount(run_id, weights=w[mp][order])
            start_idx = np.flatnonzero(run_start)
            run_slot = oslot[start_idx]
            run_key = okey[start_idx]
            run_pos = mp[order[start_idx]]  # original position of run head
            slot_first = np.r_[True, run_slot[1:] != run_slot[:-1]]
            slot_last = np.r_[slot_first[1:], True]
            # Pre-chunk occupants: merge into a matching first run, else
            # they are displaced by it (eviction at the run head's packet).
            first_idx = np.flatnonzero(slot_first)
            touched_m = run_slot[first_idx]
            occm = occ0[touched_m]
            held_key = keys0[touched_m]
            held_count = counts0[touched_m]
            mergedm = occm & (held_key == run_key[first_idx])
            run_sum[first_idx[mergedm]] += held_count[mergedm]
            displacedm = occm & ~mergedm
            evict_keys.append(held_key[displacedm])
            evict_counts.append(held_count[displacedm])
            evict_pos.append(run_pos[first_idx[displacedm]])
            # Every non-last run is evicted by the next run's head packet.
            not_last = np.flatnonzero(~slot_last)
            evict_keys.append(run_key[not_last])
            evict_counts.append(run_sum[not_last])
            evict_pos.append(run_pos[not_last + 1])
            # Last run per slot becomes the new stage-0 state.
            last_idx = np.flatnonzero(slot_last)
            keys0[run_slot[last_idx]] = run_key[last_idx]
            counts0[run_slot[last_idx]] = run_sum[last_idx]
            occ0[run_slot[last_idx]] = True
        if evict_keys:
            ek = np.concatenate(evict_keys)
            if ek.size:
                ec = np.concatenate(evict_counts)
                ep = np.concatenate(evict_pos)
                cascade_order = np.argsort(ep)
                ek = ek[cascade_order]
                ec = ec[cascade_order]
                if self.stages == 1:
                    return  # no later stage; every carried pair is dropped
                # Bulk-place carried pairs whose stage-1 slot is empty and
                # not contested by an earlier pair: in the scalar pipeline
                # they insert there and stop, touching nothing downstream,
                # so applying them out of order is safe.  Later pairs for
                # the same slot (and pairs hitting occupied slots) replay
                # through the scalar cascade in packet order and see the
                # placed entries exactly as the scalar path would.
                h1 = self._hashes[1].array(ek)
                keys1, counts1, occ1 = (
                    self._keys[1], self._counts[1], self._occ[1]
                )
                first_of_slot = np.zeros(self.stage_slots, dtype=np.int64)
                idx = np.arange(ek.size)
                first_of_slot[h1[::-1]] = idx[::-1]  # reversed: first wins
                placeable = (first_of_slot[h1] == idx) & ~occ1[h1]
                pslots = h1[placeable]
                keys1[pslots] = ek[placeable]
                counts1[pslots] = ec[placeable]
                occ1[pslots] = True
                rest = ~placeable
                if rest.any():
                    cascade = self._cascade
                    for key, count in zip(
                        ek[rest].tolist(), ec[rest].tolist()
                    ):
                        cascade(key, count)

    def estimate(self, key: int) -> float:
        """Sum of the key's counts across stages (it may be split)."""
        key = int(key) & _MASK64
        total = 0.0
        for stage in range(self.stages):
            slot = self._hashes[stage](key)
            if self._occ[stage][slot] and self._keys[stage][slot] == key:
                total += float(self._counts[stage][slot])
        return total

    def query(
        self, threshold: float, now: float | None = None
    ) -> dict[int, float]:
        """All keys whose summed estimate reaches ``threshold``."""
        totals: dict[int, float] = {}
        for stage in range(self.stages):
            filled = np.flatnonzero(self._occ[stage])
            for key, count in zip(
                self._keys[stage][filled].tolist(),
                self._counts[stage][filled].tolist(),
            ):
                totals[key] = totals.get(key, 0.0) + count
        return {k: float(c) for k, c in totals.items() if c >= threshold}

    def reset(self) -> None:
        """Empty every stage, keeping the hash functions."""
        for stage in range(self.stages):
            self._keys[stage][:] = 0
            self._counts[stage][:] = 0
            self._occ[stage][:] = False
        self.total = 0

    @property
    def num_counters(self) -> int:
        """(key, count) slots allocated (for resource accounting)."""
        return self.stage_slots * self.stages


register_detector(
    "hashpipe", HashPipe,
    description="HashPipe d-stage in-switch pipeline (vectorized stage-0 batch)",
    accuracy=AccuracyFloor(recall=0.95, f1=0.95),
)
