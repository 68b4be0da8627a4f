"""Sharded-then-merged must equal single-stream for ``mergeable`` entries.

The ``mergeable`` registry flag is the contract the sharded engine trusts
for merge-based combination: feeding key-partitioned sub-streams to N
replicas and folding them back with ``merge`` reproduces the detector a
single stream would have built — exactly for counter arrays (elementwise
sums / ORs), up to float rounding for the lazily-decayed structures
(regrouped products of ``exp``).

Parameterized over the whole registry so newly-registered detectors are
held to the flag they declare.
"""

import numpy as np
import pytest

from repro.core import detector_names, get_spec
from repro.engine import ShardedDetector

N_PACKETS = 600
NUM_SHARDS = 3

MERGEABLE = [n for n in detector_names() if get_spec(n).mergeable]


@pytest.fixture(scope="module")
def stream():
    """A skewed, time-sorted (keys, weights, ts) packet stream."""
    rng = np.random.default_rng(17)
    universe = rng.integers(0, 2**32, size=48, dtype=np.uint64)
    ranks = np.arange(1, len(universe) + 1, dtype=np.float64)
    popularity = (1.0 / ranks) / (1.0 / ranks).sum()
    keys = rng.choice(universe, size=N_PACKETS, p=popularity)
    weights = rng.integers(40, 1500, size=N_PACKETS, dtype=np.int64)
    ts = np.sort(rng.uniform(0.0, 30.0, size=N_PACKETS))
    return keys, weights, ts


def test_registry_marks_mergeable_detectors():
    """The engine's merge-based combination has detectors to work with."""
    assert "countmin" in MERGEABLE
    assert "exact-decayed" in MERGEABLE


@pytest.mark.parametrize("name", detector_names())
def test_mergeable_flag_matches_merge_support(name):
    """A detector marked mergeable must accept a same-geometry merge; the
    flag is what the engine dispatches on, so it cannot lie."""
    spec = get_spec(name)
    detector, other = spec.factory(), spec.factory()
    if spec.mergeable:
        detector.merge(other)  # empty merge must be accepted
    else:
        # Unflagged detectors either lack merge or define an approximate
        # one (Space-Saving, Misra-Gries, the Count-Min tracker); both are
        # fine — the engine combines them by concatenated reports instead.
        pass


@pytest.mark.parametrize("name", MERGEABLE)
def test_sharded_then_merged_equals_single_stream(name, stream):
    keys, weights, ts = stream
    spec = get_spec(name)

    single = spec.factory()
    single.update_batch(
        keys, weights, ts if spec.timestamped else None
    )

    sharded = ShardedDetector(spec.factory, NUM_SHARDS)
    sharded.update_batch(
        keys, weights, ts if spec.timestamped else None
    )
    merged = sharded.merged()

    now = float(ts[-1])
    probe_keys = np.unique(keys).tolist() + [111, 2**40 + 5]  # + absent
    for key in probe_keys:
        expected = spec.estimate(single, key, now)
        got = spec.estimate(merged, key, now)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-9), (
            f"{name}: merged estimate mismatch for key {key}"
        )

    if spec.enumerable:
        threshold = float(weights.sum()) / 50.0
        if spec.timestamped:
            expected_report = single.query(threshold, now)
            got_report = merged.query(threshold, now)
        else:
            expected_report = single.query(threshold)
            got_report = merged.query(threshold)
        assert set(expected_report) == set(got_report), name
        for key, value in expected_report.items():
            assert got_report[key] == pytest.approx(value, rel=1e-9), name


@pytest.mark.parametrize("name", MERGEABLE)
def test_merge_order_does_not_matter(name, stream):
    """Folding shards in reverse gives the same detector (commutative
    combination is what lets the engine merge in any completion order)."""
    keys, weights, ts = stream
    spec = get_spec(name)
    sharded = ShardedDetector(spec.factory, NUM_SHARDS)
    sharded.update_batch(keys, weights, ts if spec.timestamped else None)

    forward = spec.factory()
    for shard in sharded.shards:
        forward.merge(shard)
    backward = spec.factory()
    for shard in reversed(sharded.shards):
        backward.merge(shard)

    now = float(ts[-1])
    for key in np.unique(keys)[:20].tolist():
        assert spec.estimate(forward, key, now) == pytest.approx(
            spec.estimate(backward, key, now), rel=1e-9, abs=1e-9
        ), name


def test_merge_rejects_wrong_type():
    for name in MERGEABLE:
        spec = get_spec(name)
        with pytest.raises(ValueError):
            spec.factory().merge(get_spec("misragries").factory())


def test_merge_rejects_different_hash_families():
    """Same geometry but different seeds hashes keys to different cells;
    summing those tables silently corrupts estimates, so merge must refuse."""
    from repro.hashing.families import MultiplyShiftFamily

    for name in ("countmin", "countsketch", "bloom", "counting-bloom",
                 "decayed-countmin", "ondemand-tdbf"):
        spec = get_spec(name)
        default = spec.factory()
        reseeded = spec.factory(family=MultiplyShiftFamily(seed=7))
        with pytest.raises(ValueError, match="hash"):
            default.merge(reseeded)


def test_decayed_merge_rejects_law_mismatch():
    """Value-linear merges require identically-parameterised laws."""
    from repro.decay.laws import ExponentialDecay, LinearDecay

    spec = get_spec("decayed-countmin")
    a = spec.factory(law=ExponentialDecay(tau=10.0))
    b = spec.factory(law=ExponentialDecay(tau=5.0))
    with pytest.raises(ValueError, match="law"):
        a.merge(b)
    c = spec.factory(law=LinearDecay(rate=1.0))
    d = spec.factory(law=LinearDecay(rate=1.0))
    with pytest.raises(ValueError, match="value-linear"):
        c.merge(d)


def test_decayed_merge_rejects_laws_that_round_to_the_same_repr():
    """Law comparison is by exact parameters, not by repr (whose rounded
    tau formatting would conflate nearby laws)."""
    from repro.decay.laws import ExponentialDecay

    near_a = ExponentialDecay(tau=10.0001)
    near_b = ExponentialDecay(tau=10.0004)
    assert repr(near_a) == repr(near_b)  # the trap this test guards
    spec = get_spec("decayed-countmin")
    with pytest.raises(ValueError, match="law"):
        spec.factory(law=near_a).merge(spec.factory(law=near_b))
    exact = get_spec("exact-decayed")
    with pytest.raises(ValueError, match="law"):
        exact.factory(law=near_a).merge(exact.factory(law=near_b))
