"""Time-decaying Bloom filter, synchronous-tick variant.

The straightforward reading of Bianchi et al. 2011: a counting-Bloom-style
cell array whose cells all erode according to a decay law.  This variant
applies the decay to *every* cell on an explicit :meth:`tick` (as a software
implementation with a background timer would); the lazy per-cell variant
that avoids the sweep — the form suitable for match-action hardware — is
:class:`repro.decay.OnDemandTDBF`.

Cells are a numpy float64 array, so the tick sweep is vectorized.  For
laws that are linear in the value (exponential decay, which exposes
``decay_factor``), ``update_batch`` is fully vectorized too: one tick to
the batch's last timestamp, each contribution pre-decayed by its own age
against that tick, then one scatter-add per hash function — exactly what a
per-packet replay produces, because multiplicative decay distributes over
sums.  Other laws keep the exact scalar replay.

Queries estimate the *decayed volume* of a key (minimum over its cells,
exactly like a counting Bloom filter), so a key is "currently heavy" when
its estimate is above a threshold — no window, no reset, no counter
overflow: decay continuously drains what insertions add.
"""

from __future__ import annotations

import numpy as np

from repro.core.detector import Detector
from repro.core.registry import register_detector
from repro.decay.batching import as_decayed_batch
from repro.decay.laws import DecayLaw, ExponentialDecay
from repro.hashing.families import MultiplyShiftFamily


class TimeDecayingBloomFilter(Detector):
    """Cell array + decay law with explicit synchronous ticks."""

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
        self._array = np.zeros(cells, dtype=np.float64)
        self._clock = 0.0

    @property
    def clock(self) -> float:
        """Time up to which all cells have been decayed."""
        return self._clock

    def tick(self, now: float) -> None:
        """Advance the filter's clock, decaying every cell."""
        age = now - self._clock
        if age < 0:
            raise ValueError(f"clock moving backwards: {self._clock} -> {now}")
        if age == 0:
            return
        self._array = self.law.decay_array(self._array, age)
        self._clock = now

    def update(self, key: int, weight: float = 1,
               ts: float | None = None) -> None:
        """Insert ``weight`` for ``key`` at time ``ts`` (ticks forward first)."""
        if ts is None:
            raise TypeError("TimeDecayingBloomFilter.update() requires the "
                            "packet timestamp 'ts'")
        if weight < 0:
            raise ValueError(f"negative weight {weight}")
        if ts > self._clock:
            self.tick(ts)
        for f in self._funcs:
            self._array[f(key)] += weight

    def update_batch(self, keys, weights=None, ts=None) -> None:
        """Vectorized batch insertion for value-linear laws.

        Under scalar replay each packet is inserted *undecayed* at the
        clock frame current when it arrives — the running max of the clock
        and the timestamps seen so far (stale packets do not rewind the
        clock).  The batch path reproduces that exactly: one tick to the
        final frame, each contribution decayed by final_frame -
        insertion_frame, then one scatter-add per hash function.
        """
        # No min_dense threshold: the scalar path ticks the whole cell
        # array per packet, so the one-tick batch path wins at any size.
        prepared = as_decayed_batch(self.law, keys, weights, ts)
        if prepared is None:
            super().update_batch(keys, weights, ts)
            return
        keys, weights, ts, decay_factor = prepared
        frames = np.maximum(np.maximum.accumulate(ts), self._clock)
        newest = float(frames[-1])
        if newest > self._clock:
            self.tick(newest)
        contributions = weights * decay_factor(newest - frames)
        for f in self._funcs:
            np.add.at(self._array, f.array(keys), contributions)

    def estimate(self, key: int, now: float | None = None) -> float:
        """Decayed volume overestimate (minimum over the key's cells)."""
        if now is not None and now > self._clock:
            self.tick(now)
        return float(min(self._array[f(key)] for f in self._funcs))

    def reset(self) -> None:
        """Zero every cell and rewind the clock."""
        self._array = np.zeros(self.cells, dtype=np.float64)
        self._clock = 0.0

    @property
    def num_counters(self) -> int:
        """Cells allocated (for resource accounting)."""
        return self.cells


def _tdbf_factory(
    cells: int = 8192,
    hashes: int = 4,
    law: DecayLaw | None = None,
    family: MultiplyShiftFamily | None = None,
) -> TimeDecayingBloomFilter:
    """Registry factory with a default exponential law (tau = 10 s)."""
    return TimeDecayingBloomFilter(
        cells, hashes, law or ExponentialDecay(tau=10.0), family
    )


register_detector(
    "tdbf", _tdbf_factory, timestamped=True, enumerable=False,
    description="Time-decaying Bloom filter, synchronous ticks "
                "(vectorized batch for exponential decay)",
)
