"""Tests for repro.decay.decayed_spacesaving."""

import random
import sys

import numpy as np
import pytest

from repro.core import flat_table
from repro.core.flat_table import plan_batch
from repro.decay import decayed_spacesaving
from repro.decay.decayed_counter import ExactDecayedCounts
from repro.decay.decayed_spacesaving import DecayedSpaceSaving
from repro.decay.laws import ExponentialDecay, LinearDecay
from repro.hashing import mixers
from repro.trace.presets import caida_like_day


class TestDecayedSpaceSaving:
    def test_exact_under_capacity(self):
        ss = DecayedSpaceSaving(8, ExponentialDecay(tau=10.0))
        ss.update(1, 100.0, ts=0.0)
        ss.update(2, 50.0, ts=0.0)
        assert ss.estimate(1, now=0.0) == pytest.approx(100.0)

    def test_eviction_inherits_decayed_min(self):
        ss = DecayedSpaceSaving(2, LinearDecay(rate=1.0))
        ss.update(1, 10.0, ts=0.0)
        ss.update(2, 20.0, ts=0.0)
        # At t=5 key 1 has decayed to 5; key 3 inherits that.
        ss.update(3, 1.0, ts=5.0)
        assert ss.estimate(3, now=5.0) == pytest.approx(6.0)
        assert len(ss) == 2

    def test_never_underestimates_vs_exact(self):
        rng = random.Random(0)
        law = ExponentialDecay(tau=5.0)
        ss = DecayedSpaceSaving(32, law)
        exact = ExactDecayedCounts(law)
        for i in range(4000):
            key = rng.randrange(200)
            w = float(rng.randrange(1, 20))
            ts = i * 0.01
            ss.update(key, w, ts)
            exact.update(key, w, ts)
        now = 40.0
        for key in range(200):
            assert ss.estimate(key, now) >= exact.estimate(key, now) - 1e-6

    def test_heavy_decayed_keys_tracked(self):
        rng = random.Random(1)
        law = ExponentialDecay(tau=5.0)
        ss = DecayedSpaceSaving(32, law)
        exact = ExactDecayedCounts(law)
        for i in range(4000):
            key = 7 if rng.random() < 0.3 else rng.randrange(500)
            ts = i * 0.01
            ss.update(key, 10.0, ts)
            exact.update(key, 10.0, ts)
        now = 40.0
        total = sum(exact.query(0.0, now).values())
        report = ss.query(0.1 * total, now)
        assert 7 in report

    def test_query_and_items(self):
        ss = DecayedSpaceSaving(4, LinearDecay(rate=1.0))
        ss.update(1, 100.0, ts=0.0)
        ss.update(2, 3.0, ts=0.0)
        assert set(ss.query(50.0, now=0.0)) == {1}
        assert set(ss.items(now=0.0)) == {1, 2}

    def test_decayed_values_in_items(self):
        ss = DecayedSpaceSaving(4, LinearDecay(rate=10.0))
        ss.update(1, 100.0, ts=0.0)
        assert ss.items(now=5.0)[1] == pytest.approx(50.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DecayedSpaceSaving(0, LinearDecay(1.0))

    def test_num_counters(self):
        assert DecayedSpaceSaving(16, LinearDecay(1.0)).num_counters == 16


# -- the batch path's eviction tail ------------------------------------------

FRESH_KEY = 10**9  # never in a fill: the chunk's first packet misses


@pytest.mark.parametrize("capacity", [64, 4])
@pytest.mark.parametrize("start", [-1e4, -1e6])
def test_batch_matches_scalar_update_at_negative_times(start, capacity):
    """A counter the batch path claims starts at value 0, stamp 0.  Far
    below ts 0 its age is negative, and decaying it by that age would
    read 0 * inf = NaN; each claimed key must hold its own volume, on
    the eviction-free path (64 counters) and the prefix path (4)."""
    keys = np.arange(32, dtype=np.uint64) % 8
    weights = 100.0 + np.arange(32.0)
    ts = start + np.linspace(0.0, 1.0, 32)
    batch, scalar = (DecayedSpaceSaving(capacity, ExponentialDecay(tau=10.0))
                     for _ in range(2))
    batch.update_batch(keys, weights, ts)
    for key, weight, t in zip(keys.tolist(), weights.tolist(), ts.tolist()):
        scalar.update(key, weight, t)
    now = float(ts[-1])
    expected = scalar.query(0.0, now)
    got = batch.query(0.0, now)
    assert len(expected) == min(capacity, 8)
    assert set(got) == set(expected)
    for key, value in expected.items():
        assert got[key] == pytest.approx(value, rel=1e-9)


def _tail_case(name, rng):
    """``(capacity, fill, chunk)`` for one tail scenario; ``fill`` and
    ``chunk`` are ``(keys, weights, ts)`` columns."""
    if name == "ties":
        # Equal weights and stamps: fill keys tie, broken by key.
        fill = (range(32), [1.0] * 32, [0.0] * 32)
        n = 600
        keys = rng.integers(0, 96, n)
        return 32, fill, (keys, np.ones(n), np.ones(n))
    if name == "capacity-1":
        n = 300
        keys = rng.integers(0, 4, n)
        weights = rng.integers(1, 1500, n).astype(float)
        return 1, ([0], [10.0], [0.0]), (keys, weights,
                                         np.sort(rng.uniform(0, 5, n)))
    capacity = 48
    fill_keys = rng.permutation(4 * capacity)[:capacity]
    fill_ts = np.sort(rng.uniform(0.0, 1.0, capacity))
    n = 2000
    keys = rng.integers(0, 4 * capacity, n)
    ts = np.repeat(np.sort(rng.uniform(1.0, 30.0, n // 8)), 8)
    if name == "equal-ts-blocks":
        fill_w = rng.integers(40, 1500, capacity).astype(float)
        weights = rng.integers(40, 1500, n).astype(float)
    elif name == "zero-weights":
        # A zero-weight hit, or a zero-weight newcomer inheriting the
        # victim's value, stores an equal true value at a new stamp, so
        # equal counters differ in priority and decayed value by rounding.
        fill_w = np.full(capacity, 40.0)
        fill_ts = np.full(capacity, 0.5)
        weights = rng.choice([0.0, 0.0, 0.0, 40.0], n)
    elif name == "subnormal-weights":
        tiny = [5e-324, 3 * 5e-324, 1e-310, 1e-300, 40.0]
        fill_w = rng.choice(tiny, capacity)
        weights = rng.choice(tiny, n)
    elif name == "gap":
        # A 10^4 s gap decays every old counter to exactly 0 (tau = 10).
        fill_w = rng.integers(40, 1500, capacity).astype(float)
        weights = rng.integers(40, 1500, n).astype(float)
        ts = ts + 1e4
    else:
        raise ValueError(name)
    return capacity, (fill_keys, fill_w, fill_ts), (keys, weights, ts)


def _filled(capacity, fill):
    det = DecayedSpaceSaving(capacity, ExponentialDecay(tau=10.0))
    for key, weight, ts in zip(*fill):
        det.update(int(key), float(weight), float(ts))
    return det


def _assert_tail_matches_scalar(capacity, fill, keys, weights, ts):
    keys = np.asarray(keys, dtype=np.uint64)
    weights = np.asarray(weights, dtype=np.float64)
    ts = np.asarray(ts, dtype=np.float64)
    batch, scalar = _filled(capacity, fill), _filled(capacity, fill)
    # The table is full and the first packet misses, so the whole chunk
    # takes the eviction tail.
    assert len(keys) >= 16 and plan_batch(batch._table, keys) == 0
    batch.update_batch(keys, weights, ts)
    for key, weight, t in zip(keys.tolist(), weights.tolist(), ts.tolist()):
        scalar.update(key, weight, t)
    a, b = batch._table, scalar._table
    for column in ("values", "stamps"):
        assert a.cols[column].tobytes() == b.cols[column].tobytes()
    assert a.key_col.tobytes() == b.key_col.tobytes()
    assert a.state.tobytes() == b.state.tobytes()
    assert list(a.slot_of.items()) == list(b.slot_of.items())
    now = float(ts[-1]) + 1.0
    assert (list(batch.query(0.0, now).items())
            == list(scalar.query(0.0, now).items()))
    assert batch.state_digest() == scalar.state_digest()


@pytest.mark.parametrize("name", [
    "ties", "equal-ts-blocks", "zero-weights", "subnormal-weights", "gap",
    "capacity-1",
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eviction_tail_matches_scalar_update_bit_for_bit(name, seed):
    capacity, fill, (keys, weights, ts) = _tail_case(
        name, np.random.default_rng(seed))
    keys = np.array(keys, dtype=np.uint64)
    keys[0] = FRESH_KEY
    _assert_tail_matches_scalar(capacity, fill, keys, weights, ts)


EDGE_CASES = {
    # Key 1's zero-weight hit re-expresses its value at t = 0.72.  At
    # t = 1.35 both keys decay to the same float, though key 1's priority
    # is an ulp higher: the scan's tie goes to key 1.
    "rounding-tie": (
        2, ([1, 2, 1], [40.0, 40.0, 0.0], [0.5, 0.5, 0.72]),
        ([100] * 16, [0.0] * 16, [1.35] * 16),
    ),
    # At tau = 10 a 750 s age underflows the scan's decay factor: the
    # 1e300 counter reads 0 and is the scan's victim, although its true
    # value (~1e-26) ranks above the 1e-30 counters by priority.
    "huge-counter-underflows": (
        8, ([1] + list(range(2, 9)), [1e300] + [1e-30] * 7,
            [0.0] + [7490.0] * 7),
        (FRESH_KEY + np.arange(32), [1e-30] * 32, np.linspace(7500, 7510, 32)),
    ),
    # Key 100 evicts key 2 and builds the heap.  A hit 800 tau after its
    # last touch underflows key 1's factor, dropping it from 1e300 to
    # 1e-300, far below its heap entry and below key 3; key 200 must
    # evict key 1.
    "hit-underflows": (
        4, ([1, 2, 3, 4], [1e300, 1.0, 1.0, 1.0], [0.0] * 4),
        ([100, 3, 1] + [4, 100] * 6 + [200], [1.0, 1.0, 1e-300] + [1.0] * 13,
         [0.0, 5000.0] + [8000.0] * 13 + [8000.5]),
    ),
    # Subnormal values round key 1's decayed value to key 2's (1e-323)
    # though key 2's priority is lower by 0.005: the scan's tie goes to
    # key 1.
    "subnormal-tie": (
        2, ([1, 2], [3 * 5e-324, 2 * 5e-324], [0.0, 4.0]),
        ([100] * 16, [0.0] * 16, [4.0] * 16),
    ),
}


@pytest.mark.parametrize("edge", sorted(EDGE_CASES))
def test_eviction_tail_matches_scalar_update_at_edges(edge):
    capacity, fill, chunk = EDGE_CASES[edge]
    _assert_tail_matches_scalar(capacity, fill, *chunk)


def test_eviction_tail_fails_like_scalar_update_on_a_nan_counter():
    """A NaN weight makes a NaN counter, whose eviction only the scan can
    judge: both paths raise at the same packet, with equal tables."""
    fill = ([1, 2, 3, 4], [1.0, 2.0, 3.0, 4.0], [0.0] * 4)
    keys = np.array([100, 2] + list(range(200, 214)), dtype=np.uint64)
    weights = np.array([1.0, np.nan] + [1.0] * 14)
    ts = np.arange(1.0, 17.0)
    batch, scalar = _filled(4, fill), _filled(4, fill)
    with pytest.raises(ValueError):
        batch.update_batch(keys, weights, ts)
    with pytest.raises(ValueError):
        for key, weight, t in zip(keys.tolist(), weights.tolist(),
                                  ts.tolist()):
            scalar.update(key, weight, t)
    assert batch.state_digest() == scalar.state_digest()


def _caida_chunks():
    """A 30 s caida day as 8,192-packet ``(keys, weights, ts)`` chunks."""
    trace = caida_like_day(0, duration=30.0)
    return [(trace.src[start:start + 8192], trace.length[start:start + 8192],
             trace.ts[start:start + 8192])
            for start in range(0, len(trace), 8192)]


def _count_evictions(monkeypatch, table):
    """The key each eviction's ``replace`` call evicts, in order."""
    evictions = []
    replace = table.replace
    monkeypatch.setattr(table, "replace", lambda old, new: (
        evictions.append(old) or replace(old, new)))
    return evictions


def test_eviction_tail_scans_only_on_underflow(monkeypatch):
    """The batch tail takes victims off its heap: no full counter scan
    while no decayed minimum underflows.  Counts work, not time."""
    det = DecayedSpaceSaving(64, ExponentialDecay(tau=10.0))
    scans = []
    scan = det._min_slot
    monkeypatch.setattr(det, "_min_slot",
                        lambda now: scans.append(now) or scan(now))
    evictions = _count_evictions(monkeypatch, det._table)
    for chunk in _caida_chunks():
        det.update_batch(*chunk)
    assert len(evictions) > 1000
    assert scans == []


def test_eviction_tail_hashes_no_key(monkeypatch):
    """The batch tail hands each victim's slot to the newcomer: no key is
    hashed per eviction, and each ``update_batch`` call hashes a handful
    of key columns and builds the batch index at most once.  A call that
    finds the table full claims no slot: it builds the index and looks
    the chunk up, with no claim round and no split planning.  Counts
    work, not time."""
    det = DecayedSpaceSaving(256, ExponentialDecay(tau=10.0))
    table = det._table
    scalar_hashes, column_hashes, builds, claims, plans = [], [], [], [], []
    # Every module-level reference to the scalar mixer counts its calls.
    mix, mix_array = mixers.splitmix64, mixers.splitmix64_array
    for module in list(sys.modules.values()):
        if getattr(module, "splitmix64", None) is mix:
            monkeypatch.setattr(
                module, "splitmix64",
                lambda key: scalar_hashes.append(key) or mix(key),
            )
    monkeypatch.setattr(
        flat_table, "splitmix64_array",
        lambda keys: column_hashes.append(keys.size) or mix_array(keys),
    )
    build = table._build_index
    monkeypatch.setattr(table, "_build_index",
                        lambda: builds.append(1) or build())
    upsert = table.upsert_batch
    monkeypatch.setattr(table, "upsert_batch", lambda keys, max_new: (
        claims.append(keys.size) or upsert(keys, max_new)))
    plan = flat_table.plan_batch
    monkeypatch.setattr(flat_table, "plan_batch", lambda table, keys: (
        plans.append(keys.size) or plan(table, keys)))
    evictions = _count_evictions(monkeypatch, table)
    full, other = [], []
    for chunk in _caida_chunks():
        before = [len(work) for work in (builds, column_hashes, claims, plans)]
        calls = full if len(table) == table.capacity else other
        det.update_batch(*chunk)
        calls.append([len(work) - at for work, at in zip(
            (builds, column_hashes, claims, plans), before)])
    assert len(evictions) > 1000
    assert scalar_hashes == []
    assert full
    for built, hashed, _, _ in full + other:
        assert built <= 1 and hashed <= 4
    for _, hashed, claimed, planned in full:
        assert claimed == planned == 0 and hashed <= 2


def test_eviction_tail_decides_lone_minima_without_a_candidate_set(
        monkeypatch):
    """Nearly every victim is alone within its rounding window, so at
    most 1% of evictions gather the window's entries into a candidate
    set.  Counts work, not time."""
    det = DecayedSpaceSaving(256, ExponentialDecay(tau=10.0))
    evictions = _count_evictions(monkeypatch, det._table)
    windows = []
    window_victim = decayed_spacesaving._window_victim
    monkeypatch.setattr(decayed_spacesaving, "_window_victim",
                        lambda *args: windows.append(1) or window_victim(*args))
    for chunk in _caida_chunks():
        det.update_batch(*chunk)
    assert len(evictions) > 1000
    assert len(windows) <= 0.01 * len(evictions)
