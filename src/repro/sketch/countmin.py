"""Count-Min sketch (Cormode & Muthukrishnan 2005).

``rows x width`` counters; each row hashes the key independently and the
estimate is the minimum over rows, giving a one-sided overestimate with
error at most ``e * N / width`` with probability ``1 - e^-rows``.

The counter table is a numpy ``(rows, width)`` int64 array, so
``update_batch`` is a true vectorized fast path: one array hash per row and
one ``np.add.at`` scatter for a whole columnar batch of packets.

A plain Count-Min cannot *enumerate* heavy keys, so
:class:`CountMinHeavyHitters` pairs it with a candidate map of keys whose
estimate has ever crossed a tracking threshold — the standard arrangement
used when a Count-Min backs a heavy-hitter report.
"""

from __future__ import annotations

import numpy as np

from repro.core.detector import (
    _SCALAR_CUTOFF,
    Detector,
    as_batch,
    as_uint64_keys,
    ensure_nonnegative_weights,
)
from repro.core.flat_table import grouped_cumsum
from repro.core.registry import AccuracyFloor, register_detector
from repro.hashing.families import MultiplyShiftFamily


class CountMinSketch(Detector):
    """The counter array; supports point, batch, and point-query access."""

    _STATE_ATTRS = ("width", "rows", "_hashes", "_table", "total")

    def __init__(
        self,
        width: int = 1024,
        rows: int = 4,
        family: MultiplyShiftFamily | None = None,
    ) -> None:
        if width < 1 or rows < 1:
            raise ValueError(f"need width, rows >= 1; got {width}x{rows}")
        self.width = width
        self.rows = rows
        family = family or MultiplyShiftFamily()
        self._hashes = [family.function(r, width) for r in range(rows)]
        self._table = np.zeros((rows, width), dtype=np.int64)
        self.total = 0

    def update(self, key: int, weight: int = 1, ts: float = 0.0) -> None:
        """Add ``weight`` to ``key``'s counters."""
        if weight < 0:
            raise ValueError(f"negative weight {weight}")
        self.total += weight
        for row, h in zip(self._table, self._hashes):
            row[h(key)] += weight

    def update_batch(self, keys, weights=None, ts=None) -> None:
        """Vectorized scatter update."""
        keys, weights, _ = as_batch(keys, weights, ts)
        keys = as_uint64_keys(keys)
        weights = ensure_nonnegative_weights(weights)
        # Counters truncate like the scalar path's int64 setitem; `total`
        # accumulates the given weights untruncated, also like scalar.
        int_weights = weights.astype(np.int64)
        for row, h in zip(self._table, self._hashes):
            np.add.at(row, h.array(keys), int_weights)
        self.total += weights.sum().item()

    def estimate(self, key: int) -> int:
        """Point estimate (never underestimates)."""
        return int(min(row[h(key)] for row, h in zip(self._table, self._hashes)))

    def reset(self) -> None:
        """Zero every counter, keeping the hash functions."""
        self._table.fill(0)
        self.total = 0

    def merge(self, other: Detector) -> None:
        """Elementwise sum (same geometry and family required)."""
        if not isinstance(other, CountMinSketch) or (
            other.width != self.width or other.rows != self.rows
            or other._hashes != self._hashes
        ):
            raise ValueError(
                "can only merge CountMinSketch of equal geometry and hash "
                "functions"
            )
        self._table += other._table
        self.total += other.total

    @property
    def num_counters(self) -> int:
        """Total counters allocated (for resource accounting)."""
        return self.width * self.rows


class CountMinHeavyHitters(Detector):
    """Count-Min plus a candidate map, reporting keys above a threshold.

    ``track_phi`` sets how early a key enters the candidate map as a
    fraction of the stream's running total; anything that could reach a
    final report threshold above that fraction is guaranteed to be tracked.

    The batch path simulates per-packet post-update estimates for a whole
    chunk at once (initial cell values plus within-cell running sums), so
    candidate admission is vectorized.  The lazy candidate prune fires only
    when a *new* key is admitted while the map is over its bound; if a
    chunk triggers a prune, the sketch state is advanced to that packet and
    the remainder of the chunk replays scalar.
    """

    def __init__(
        self,
        width: int = 1024,
        rows: int = 4,
        track_phi: float = 0.001,
        family: MultiplyShiftFamily | None = None,
    ) -> None:
        if not 0.0 < track_phi < 1.0:
            raise ValueError(f"track_phi must be in (0, 1), got {track_phi}")
        self.sketch = CountMinSketch(width, rows, family)
        self.track_phi = track_phi
        self._candidates: dict[int, int] = {}

    def update(self, key: int, weight: int = 1, ts: float = 0.0) -> None:
        """Account one packet."""
        self.sketch.update(key, weight)
        estimate = self.sketch.estimate(key)
        if estimate >= self.track_phi * self.sketch.total:
            admitted = key not in self._candidates
            self._candidates[key] = estimate
            # Lazily prune candidates that can no longer qualify, bounding
            # the candidate map at ~1/track_phi live entries plus
            # stragglers.  Only a new admission can grow the map, so only
            # admissions need to check the bound.
            if admitted and len(self._candidates) > 4 / self.track_phi:
                self._prune()

    def _prune(self) -> None:
        """Drop candidates whose estimate fell below the tracking floor."""
        floor = self.track_phi * self.sketch.total
        estimate_fn = self.sketch.estimate
        pruned: dict[int, int] = {}
        for k in self._candidates:
            e = estimate_fn(k)
            if e >= floor:
                pruned[k] = e
        self._candidates = pruned

    def update_batch(self, keys, weights=None, ts=None) -> None:
        """Vectorized chunk update via simulated per-packet estimates."""
        keys, weights, _ = as_batch(keys, weights, ts)
        n = keys.shape[0]
        if n == 0:
            return
        if n < _SCALAR_CUTOFF:
            super().update_batch(keys, weights)
            return
        sketch = self.sketch
        ku = as_uint64_keys(keys)
        w = ensure_nonnegative_weights(weights)
        iw = w.astype(np.int64)
        # Post-update estimate of packet i's key at packet i: the row
        # minimum of (initial cell value + running weight scattered into
        # that cell so far), exactly as the scalar path would read it.
        cells_rows = []
        est = None
        for row, h in zip(sketch._table, sketch._hashes):
            cells = h.array(ku)
            cells_rows.append(cells)
            vals = row[cells] + grouped_cumsum(cells, iw)
            est = vals if est is None else np.minimum(est, vals)
        totals = sketch.total + np.cumsum(w)
        crossing = est >= self.track_phi * totals
        cpos = np.flatnonzero(crossing)
        ck = ku[cpos]
        # Simulate admissions in chunk order to find the first prune, if
        # any: the map only grows on new-key admissions, so the chunk can
        # be applied wholesale up to (and including) that packet.
        prune_at = -1
        if cpos.size:
            uk, first = np.unique(ck, return_index=True)
            bound = 4 / self.track_phi
            count = len(self._candidates)
            for idx in np.argsort(first).tolist():
                k = int(uk[idx])
                if k in self._candidates:
                    continue
                count += 1
                if count > bound:
                    prune_at = int(cpos[first[idx]])
                    break
        stop = n if prune_at < 0 else prune_at + 1
        for row, cells in zip(sketch._table, cells_rows):
            np.add.at(row, cells[:stop], iw[:stop])
        sketch.total += w[:stop].sum().item()
        # Each crossing key's candidate value is its estimate at its last
        # crossing within the applied span.
        applied = cpos[cpos < stop]
        if applied.size:
            ak = ku[applied]
            ruk, ridx = np.unique(ak[::-1], return_index=True)
            last = applied[ak.shape[0] - 1 - ridx]
            for k, v in zip(ruk.tolist(), est[last].tolist()):
                self._candidates[int(k)] = int(v)
        if prune_at >= 0:
            self._prune()
            tail_keys = keys[stop:].tolist()
            tail_weights = w[stop:].tolist()
            for k, wt in zip(tail_keys, tail_weights):
                self.update(k, wt)

    def query(
        self, threshold: float, now: float | None = None
    ) -> dict[int, float]:
        """Tracked keys whose current estimate reaches ``threshold``."""
        out: dict[int, float] = {}
        for key in self._candidates:
            estimate = self.sketch.estimate(key)
            if estimate >= threshold:
                out[key] = float(estimate)
        return out

    def reset(self) -> None:
        """Zero the sketch and drop all candidates."""
        self.sketch.reset()
        self._candidates.clear()

    def merge(self, other: Detector) -> None:
        """Merge sketches, union candidates, and re-prune."""
        if not isinstance(other, CountMinHeavyHitters):
            raise ValueError("can only merge CountMinHeavyHitters")
        self.sketch.merge(other.sketch)
        floor = self.track_phi * self.sketch.total
        merged: dict[int, int] = {}
        for key in self._candidates.keys() | other._candidates.keys():
            estimate = self.sketch.estimate(key)
            if estimate >= floor:
                merged[key] = estimate
        self._candidates = merged

    @property
    def num_counters(self) -> int:
        """Counters used, including candidate map entries."""
        return self.sketch.num_counters + len(self._candidates)


register_detector(
    "countmin", CountMinSketch, enumerable=False, mergeable=True,
    description="Count-Min sketch (point estimates; vectorized batch path)",
)
register_detector(
    "countmin-hh", CountMinHeavyHitters,
    description="Count-Min with candidate tracking for heavy-hitter reports",
    probe=lambda det, key, now: det.sketch.estimate(key),
    accuracy=AccuracyFloor(recall=0.95, f1=0.95),
)
