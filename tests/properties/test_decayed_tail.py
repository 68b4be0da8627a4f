"""Randomized property: decayed Space-Saving's heap-ordered eviction tail is
the per-packet ``update`` replay, bit for bit.

``DecayedSpaceSaving.update_batch`` replays a chunk's eviction tail with
victims taken off a heap instead of a scan of every counter.  This suite
pits it against the same detector with the tail replayed through scalar
``update`` (the scan), over streams built to break the heap's order:
capacities from 1 up, taus from 1 ms to 10^6 s, weights from 5e-324 to
1e300 with zeros, equal-timestamp runs, gaps around the ~708-745 tau where
decay factors underflow, and chunk sizes from the scalar cutoff up.  Every
column, the key order, the report and the state digest must match after
every chunk.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.decay.decayed_spacesaving import DecayedSpaceSaving
from repro.decay.laws import ExponentialDecay

pytestmark = pytest.mark.slow

SEEDS = 400


class ScanTail(DecayedSpaceSaving):
    """The reference: the eviction tail replayed through scalar ``update``."""

    def _replay_tail(self, keys, weights, ts) -> None:
        for key, weight, t in zip(keys.tolist(), weights.tolist(),
                                  ts.tolist()):
            self.update(key, weight, t)


def _random_stream(rng: np.random.Generator, tau: float, pool: int):
    n = int(rng.integers(200, 3000))
    weights = [
        lambda: rng.integers(40, 1500, n).astype(float),
        lambda: rng.exponential(100.0, n),
        lambda: rng.choice([0.0, 1.0, 40.0], n),
        lambda: rng.choice([5e-324, 1e-310, 1e-300, 1.0, 1e300], n),
        lambda: 10.0 ** rng.uniform(-300, 300, n),
        lambda: np.where(rng.random(n) < 0.5, 0.0,
                         10.0 ** rng.uniform(-320, 5, n)),
    ][int(rng.integers(0, 6))]()
    steps = rng.choice([0.0, 1e-3, 1e-2, 1.0], n, p=[0.3, 0.3, 0.3, 0.1])
    gaps = rng.random(n) < 0.005
    steps = steps + gaps * tau * rng.choice(
        [10.0, 700.0, 708.0, 720.0, 750.0, 1e4], n)
    ts = float(rng.choice([0.0, 1.7e9])) + np.cumsum(steps)
    keys = (rng.zipf(1.3, n) % pool).astype(np.uint64)
    return keys * np.uint64(0x9E3779B97F4A7C15), weights, ts


@pytest.mark.parametrize("seed", range(SEEDS))
def test_heap_tail_matches_scan_tail(seed):
    rng = np.random.default_rng(seed)
    capacity = int(rng.choice([1, 3, 8, 31, 64]))
    tau = float(rng.choice([1e-3, 0.1, 10.0, 1e6]))
    keys, weights, ts = _random_stream(
        rng, tau, int(capacity * rng.choice([1.5, 3, 10])) + 1)
    chunk = int(rng.choice([16, 100, 1000, 8192]))
    heap, scan = (cls(capacity, ExponentialDecay(tau=tau))
                  for cls in (DecayedSpaceSaving, ScanTail))
    for start in range(0, len(keys), chunk):
        part = slice(start, start + chunk)
        heap.update_batch(keys[part], weights[part], ts[part])
        scan.update_batch(keys[part], weights[part], ts[part])
        a, b = heap._table, scan._table
        for column in ("values", "stamps"):
            assert a.cols[column].tobytes() == b.cols[column].tobytes()
        assert list(a.slot_of.items()) == list(b.slot_of.items())
    now = float(ts[-1]) + 1.0
    assert (list(heap.query(0.0, now).items())
            == list(scan.query(0.0, now).items()))
    assert heap.state_digest() == scan.state_digest()
