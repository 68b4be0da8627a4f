"""Time-decaying Count-Min sketch — the "extension" of the TDBF.

The paper's Section 3 cites the time-decaying Bloom filter "and its
extension".  The natural extension from membership to frequency is a
Count-Min whose cells are lazily-decayed ``(value, timestamp)`` pairs: the
same on-demand decay as :class:`repro.decay.OnDemandTDBF` applied to the
row-array geometry of a Count-Min, giving continuous-time frequency
overestimates with d-row min-noise instead of the TDBF's k-cell min.

Compared per cell to the TDBF: identical state (one value + one stamp),
identical update cost; the difference is purely the indexing geometry
(rows x width vs one flat array), which lowers collision noise for point
queries at equal memory.  The batch path mirrors the TDBF's: exact
vectorized scatter updates for value-linear laws (exponential), scalar
replay otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.core.detector import Detector
from repro.core.registry import register_detector
from repro.decay.batching import (
    apply_decayed_batch,
    as_decayed_batch,
    merge_lazily_stamped,
)
from repro.decay.laws import DecayLaw, ExponentialDecay
from repro.hashing.families import MultiplyShiftFamily


class DecayedCountMin(Detector):
    """Count-Min over lazily-decayed cells."""

    def __init__(
        self,
        width: int = 1024,
        rows: int = 4,
        law: DecayLaw | None = None,
        family: MultiplyShiftFamily | None = None,
    ) -> None:
        if width < 1 or rows < 1:
            raise ValueError(f"need width, rows >= 1; got {width}x{rows}")
        if law is None:
            raise ValueError("a DecayLaw is required (e.g. ExponentialDecay)")
        self.width = width
        self.rows = rows
        self.law = law
        family = family or MultiplyShiftFamily()
        self._hashes = [family.function(r, width) for r in range(rows)]
        self._values = np.zeros((rows, width), dtype=np.float64)
        self._stamps = np.zeros((rows, width), dtype=np.float64)

    def update(self, key: int, weight: float = 1,
               ts: float | None = None) -> None:
        """Decay each touched cell to ``ts``, then add ``weight``."""
        if ts is None:
            raise TypeError("DecayedCountMin.update() requires the packet "
                            "timestamp 'ts'")
        if weight < 0:
            raise ValueError(f"negative weight {weight}")
        decay = self.law.decay
        for h, values, stamps in zip(self._hashes, self._values, self._stamps):
            i = h(key)
            age = ts - stamps[i]
            if age >= 0:
                values[i] = decay(float(values[i]), age) + weight
                stamps[i] = ts
            else:
                # Late packet: decay its contribution instead of the cell.
                values[i] += decay(weight, -age)

    def update_batch(self, keys, weights=None, ts=None) -> None:
        """Vectorized batch insertion for value-linear laws (per row)."""
        prepared = as_decayed_batch(
            self.law, keys, weights, ts, min_dense=self.width // 128
        )
        if prepared is None:
            super().update_batch(keys, weights, ts)
            return
        keys, weights, ts, decay_factor = prepared
        for h, values, stamps in zip(self._hashes, self._values, self._stamps):
            apply_decayed_batch(
                values, stamps, [h.array(keys)], weights, ts, decay_factor
            )

    def estimate(self, key: int, now: float) -> float:
        """Decayed frequency overestimate (min over rows) at ``now``."""
        decay = self.law.decay
        best = None
        for h, values, stamps in zip(self._hashes, self._values, self._stamps):
            i = h(key)
            age = now - stamps[i]
            v = decay(float(values[i]), age) if age > 0 else float(values[i])
            if best is None or v < best:
                best = v
        return best if best is not None else 0.0

    def reset(self) -> None:
        """Zero every cell and stamp, keeping the hash functions."""
        self._values.fill(0.0)
        self._stamps.fill(0.0)

    def merge(self, other: Detector) -> None:
        """Cellwise decay-to-common-frame sum (value-linear laws only).

        Exact for exponential decay: each cell is a linear functional of
        its updates, so merging key-partitioned shards reproduces the
        single-stream sketch.  Requires equal geometry and an identically
        parameterised value-linear law on both sides.
        """
        merge_lazily_stamped(self, other, ("width", "rows", "_hashes"))

    @property
    def num_counters(self) -> int:
        """Cells allocated (for resource accounting)."""
        return self.width * self.rows


def _decayed_cm_factory(
    width: int = 1024,
    rows: int = 4,
    law: DecayLaw | None = None,
    family: MultiplyShiftFamily | None = None,
) -> DecayedCountMin:
    """Registry factory with a default exponential law (tau = 10 s)."""
    return DecayedCountMin(width, rows, law or ExponentialDecay(tau=10.0), family)


register_detector(
    "decayed-countmin", _decayed_cm_factory, timestamped=True,
    enumerable=False, mergeable=True,
    description="Lazily-decayed Count-Min "
                "(vectorized batch for exponential decay)",
)
