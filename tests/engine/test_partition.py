"""Key → shard partitioning: exactness, determinism, scalar/vector parity."""

import numpy as np
import pytest

from repro.engine import partition_batch, shard_ids, shard_of_key


@pytest.fixture(scope="module")
def columns():
    rng = np.random.default_rng(11)
    keys = rng.integers(0, 2**32, size=2000, dtype=np.uint64)
    weights = rng.integers(40, 1500, size=2000, dtype=np.int64)
    ts = np.sort(rng.uniform(0.0, 60.0, size=2000))
    return keys, weights, ts


class TestShardIds:
    def test_scalar_matches_vectorized(self, columns):
        keys, _, _ = columns
        for num_shards in (1, 2, 3, 7):
            ids = shard_ids(keys, num_shards)
            for key, sid in zip(keys[:300].tolist(), ids[:300].tolist()):
                assert shard_of_key(key, num_shards) == sid

    def test_deterministic(self, columns):
        keys, _, _ = columns
        assert (shard_ids(keys, 4) == shard_ids(keys, 4)).all()

    def test_range(self, columns):
        keys, _, _ = columns
        ids = shard_ids(keys, 5)
        assert ids.min() >= 0 and ids.max() < 5

    def test_reasonable_balance(self, columns):
        """The routing hash spreads a uniform key population: no shard is
        empty and none holds the majority."""
        keys, _, _ = columns
        counts = np.bincount(shard_ids(keys, 4), minlength=4)
        assert counts.min() > 0
        assert counts.max() < len(keys) * 0.5

    def test_negative_and_huge_keys(self):
        """Object-dtype key columns (arbitrary Python ints) route like
        scalars."""
        keys = np.asarray([-10, 5, 2**63 + 11, -(2**40)], dtype=np.object_)
        ids = shard_ids(keys, 3)
        for key, sid in zip([-10, 5, 2**63 + 11, -(2**40)], ids.tolist()):
            assert shard_of_key(key, 3) == sid

    def test_bad_shard_count(self):
        with pytest.raises(ValueError, match="num_shards"):
            shard_of_key(1, 0)
        with pytest.raises(ValueError, match="num_shards"):
            shard_ids(np.array([1], dtype=np.uint64), 0)


class TestPartitionBatch:
    def test_rows_partition_exactly(self, columns):
        keys, weights, ts = columns
        parts = partition_batch(keys, weights, ts, 4)
        assert sum(len(p[0]) for p in parts) == len(keys)
        ids = shard_ids(keys, 4)
        for s, (part_keys, part_weights, part_ts) in enumerate(parts):
            mask = ids == s
            assert (np.sort(part_keys) == np.sort(keys[mask])).all()
            assert part_weights.sum() == weights[mask].sum()
            assert len(part_ts) == int(mask.sum())

    def test_time_order_preserved_per_shard(self, columns):
        keys, weights, ts = columns
        for _, _, part_ts in partition_batch(keys, weights, ts, 4):
            assert (np.diff(part_ts) >= 0).all()

    def test_single_shard_passthrough(self, columns):
        keys, weights, ts = columns
        [(k, w, t)] = partition_batch(keys, weights, ts, 1)
        assert k is keys and w is weights and t is ts

    def test_none_ts_stays_none(self, columns):
        keys, weights, _ = columns
        for _, _, part_ts in partition_batch(keys, weights, None, 3):
            assert part_ts is None

    def test_empty_batch(self):
        empty = np.empty(0, dtype=np.uint64)
        parts = partition_batch(empty, np.empty(0, dtype=np.int64), None, 3)
        assert len(parts) == 3
        assert all(len(p[0]) == 0 for p in parts)
