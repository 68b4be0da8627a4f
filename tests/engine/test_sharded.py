"""ShardedDetector: the Detector contract over key-partitioned replicas."""

import numpy as np
import pytest

from repro.core import detector_names, get_spec, make_detector
from repro.engine import ShardedDetector, shard_of_key


@pytest.fixture(scope="module")
def stream():
    rng = np.random.default_rng(23)
    keys = rng.integers(0, 2**32, size=1200, dtype=np.uint64)
    weights = rng.integers(40, 1500, size=1200, dtype=np.int64)
    ts = np.sort(rng.uniform(0.0, 30.0, size=1200))
    return keys, weights, ts


def test_scalar_update_routes_like_batch(stream):
    """Per-packet and columnar ingestion land every key on the same shard
    with identical shard state."""
    keys, weights, _ = stream
    one = ShardedDetector(lambda: make_detector("countmin"), 4)
    two = ShardedDetector(lambda: make_detector("countmin"), 4)
    for key, weight in zip(keys.tolist(), weights.tolist()):
        one.update(key, weight)
    two.update_batch(keys, weights)
    for a, b in zip(one.shards, two.shards):
        assert (a._table == b._table).all()
        assert a.total == b.total


def test_estimate_routes_to_owning_shard(stream):
    keys, weights, _ = stream
    sharded = ShardedDetector(lambda: make_detector("countmin"), 4)
    sharded.update_batch(keys, weights)
    for key in keys[:100].tolist():
        owner = sharded.shards[shard_of_key(key, 4)]
        assert sharded.estimate(key) == owner.estimate(key)


def test_shard_estimates_bounded_by_single_stream(stream):
    """A shard's table holds only its own keys, so its (still one-sided)
    estimate never exceeds the single-stream estimate."""
    keys, weights, _ = stream
    single = make_detector("countmin")
    single.update_batch(keys, weights)
    sharded = ShardedDetector(lambda: make_detector("countmin"), 4)
    sharded.update_batch(keys, weights)
    true = {}
    for key, weight in zip(keys.tolist(), weights.tolist()):
        true[key] = true.get(key, 0) + weight
    for key, volume in list(true.items())[:200]:
        assert volume <= sharded.estimate(key) <= single.estimate(key)


def test_query_is_union_of_disjoint_shard_reports(stream):
    """Per-shard reports are key-disjoint and their union is the sharded
    report."""
    keys, weights, _ = stream
    small = keys % np.uint64(40)  # few distinct keys → enumerable reports
    sharded = ShardedDetector(lambda: make_detector("spacesaving"), 3)
    sharded.update_batch(small, weights)
    reports = [shard.query(10_000.0) for shard in sharded.shards]
    seen: set[int] = set()
    for report in reports:
        assert not (seen & set(report))
        seen |= set(report)
    combined = sharded.query(10_000.0)
    assert set(combined) == seen


def test_spacesaving_report_matches_single_stream_when_capacity_suffices(
    stream,
):
    keys, weights, _ = stream
    small = keys % np.uint64(40)
    single = make_detector("spacesaving")
    single.update_batch(small, weights)
    sharded = ShardedDetector(lambda: make_detector("spacesaving"), 3)
    sharded.update_batch(small, weights)
    assert single.query(10_000.0) == sharded.query(10_000.0)


def test_merged_reproduces_single_stream_countmin(stream):
    keys, weights, _ = stream
    single = make_detector("countmin")
    single.update_batch(keys, weights)
    sharded = ShardedDetector(lambda: make_detector("countmin"), 4)
    sharded.update_batch(keys, weights)
    merged = sharded.merged()
    assert (merged._table == single._table).all()
    assert merged.total == single.total


def test_merge_shardwise(stream):
    """Merging two ShardedDetectors equals one that saw both streams."""
    keys, weights, _ = stream
    half = len(keys) // 2
    both = ShardedDetector(lambda: make_detector("countmin"), 3)
    both.update_batch(keys, weights)
    first = ShardedDetector(lambda: make_detector("countmin"), 3)
    first.update_batch(keys[:half], weights[:half])
    second = ShardedDetector(lambda: make_detector("countmin"), 3)
    second.update_batch(keys[half:], weights[half:])
    first.merge(second)
    for a, b in zip(first.shards, both.shards):
        assert (a._table == b._table).all()


def test_merge_rejects_mismatched_shard_count():
    a = ShardedDetector(lambda: make_detector("countmin"), 2)
    b = ShardedDetector(lambda: make_detector("countmin"), 3)
    with pytest.raises(ValueError, match="shard count"):
        a.merge(b)


def test_reset_clears_every_shard(stream):
    keys, weights, _ = stream
    sharded = ShardedDetector(lambda: make_detector("countmin"), 3)
    sharded.update_batch(keys, weights)
    sharded.reset()
    assert all(shard.total == 0 for shard in sharded.shards)
    assert sharded.estimate(int(keys[0])) == 0


def test_num_counters_scales_with_shards():
    single = make_detector("countmin")
    sharded = ShardedDetector(lambda: make_detector("countmin"), 4)
    assert sharded.num_counters == 4 * single.num_counters


def test_timestamped_detector_sharding(stream):
    """Continuous-time detectors shard too: ts columns are routed with
    their rows and per-key estimates match the owning shard."""
    keys, weights, ts = stream
    sharded = ShardedDetector(lambda: make_detector("exact-decayed"), 3)
    sharded.update_batch(keys, weights.astype(np.float64), ts)
    single = make_detector("exact-decayed")
    single.update_batch(keys, weights.astype(np.float64), ts)
    now = float(ts[-1]) + 1.0
    for key in keys[:100].tolist():
        assert sharded.estimate(key, now) == pytest.approx(
            single.estimate(key, now), rel=1e-12
        )
    assert sharded.query(50_000.0, now) == pytest.approx(
        single.query(50_000.0, now)
    )


def test_empty_batch_is_noop():
    sharded = ShardedDetector(lambda: make_detector("countmin"), 3)
    sharded.update_batch(np.empty(0, dtype=np.uint64))
    assert all(shard.total == 0 for shard in sharded.shards)


def test_bad_shard_count():
    with pytest.raises(ValueError, match="num_shards"):
        ShardedDetector(lambda: make_detector("countmin"), 0)


def test_every_registry_detector_shards(stream):
    """The sharded engine is detector-agnostic: every registry entry
    ingests a partitioned batch and answers its usual surface."""
    keys, weights, ts = stream
    for name in detector_names():
        spec = get_spec(name)
        sharded = ShardedDetector(spec.factory, 2)
        sharded.update_batch(
            keys[:200], weights[:200], ts[:200] if spec.timestamped else None
        )
        # Point estimates answer through the spec's uniform surface on the
        # owning shard.
        owner = sharded.shards[shard_of_key(int(keys[0]), 2)]
        assert spec.estimate(owner, int(keys[0]), float(ts[199])) >= 0.0
