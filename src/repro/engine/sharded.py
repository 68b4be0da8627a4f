"""Key-partitioned detector sharding.

:class:`ShardedDetector` hash-partitions the key space across ``N``
independent replicas of one detector (built by the same zero-argument
factory, hence identical geometry and hash functions) and implements the
full :class:`repro.core.Detector` contract on top:

- ``update`` routes one packet to its owning shard;
- ``update_batch`` splits the columnar batch once
  (:func:`repro.engine.partition.partition_batch`) and feeds every shard
  its sub-batch through the vectorized fast path — optionally fanned out
  across a :class:`repro.engine.ParallelRunner` process pool;
- ``query`` concatenates per-shard reports.  Key partitioning makes the
  union exact bookkeeping: every key's entire state lives in exactly one
  shard, so reports are disjoint and no cross-shard reconciliation is
  needed;
- ``merged()`` folds all shards into one fresh detector via ``merge`` —
  for detectors whose registry entry is ``mergeable`` this reproduces the
  single-stream detector exactly, which is what
  ``tests/core/test_merge_equivalence.py`` asserts registry-wide.

Because each shard sees only its own keys, a sharded deployment reports
the same heavy hitters as a single-stream one by construction; what
changes is capacity (counters scale with ``N``) and throughput (shards
update in parallel).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.checkpoint import CheckpointError, pack_state, unpack_state
from repro.core.detector import Detector, as_batch
from repro.engine.partition import partition_batch, shard_of_key
from repro.engine.runner import ParallelRunner


class ShardedDetector(Detector):
    """N key-partitioned replicas of one detector behind the one contract.

    Parameters
    ----------
    detector_factory:
        Zero-argument callable building one replica.  Factories are
        deterministic (seeded hash families), so all replicas share
        geometry and hash functions — the precondition for ``merge``.
    num_shards:
        How many replicas to partition the key space across.
    runner:
        Optional :class:`ParallelRunner` executing the per-shard batch
        updates; ``None`` runs them inline (equivalent to a serial
        runner without the indirection).
    """

    def __init__(
        self,
        detector_factory: Callable[[], Detector],
        num_shards: int,
        runner: ParallelRunner | None = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.detector_factory = detector_factory
        self.num_shards = num_shards
        self.runner = runner
        self.shards: list[Detector] = [
            detector_factory() for _ in range(num_shards)
        ]

    # -- the Detector contract -------------------------------------------

    def update(self, key: int, weight: float = 1,
               ts: float | None = None) -> None:
        """Route one packet to its owning shard."""
        shard = self.shards[shard_of_key(key, self.num_shards)]
        if ts is None:
            shard.update(key, weight)
        else:
            shard.update(key, weight, ts)

    def update_batch(self, keys, weights=None, ts=None) -> None:
        """Partition the columns once, then batch-update every shard."""
        if self.num_shards == 1 and self.runner is None:
            # Degenerate sharding: hand the batch straight to the one
            # replica — no routing hash, no as_batch round trip.
            self.shards[0].update_batch(keys, weights, ts)
            return
        keys, weights, ts = as_batch(keys, weights, ts)
        if len(keys) == 0:
            return
        parts = partition_batch(keys, weights, ts, self.num_shards)
        if self.runner is None:
            for shard, (part_keys, part_weights, part_ts) in zip(
                self.shards, parts
            ):
                if len(part_keys):
                    shard.update_batch(part_keys, part_weights, part_ts)
        else:
            self.shards = self.runner.update_shards(self.shards, parts)

    def query(
        self, threshold: float, now: float | None = None
    ) -> dict[int, float]:
        """Concatenated per-shard reports (disjoint by key partitioning)."""
        out: dict[int, float] = {}
        for shard in self.shards:
            if now is None:
                out.update(shard.query(threshold))
            else:
                out.update(shard.query(threshold, now))
        return out

    def reset(self) -> None:
        """Reset every shard in place."""
        for shard in self.shards:
            shard.reset()

    def merge(self, other: Detector) -> None:
        """Shard-wise merge with an identically-partitioned instance."""
        if not isinstance(other, ShardedDetector) or (
            other.num_shards != self.num_shards
        ):
            raise ValueError(
                "can only merge a ShardedDetector with the same shard count"
            )
        for mine, theirs in zip(self.shards, other.shards):
            mine.merge(theirs)

    @property
    def num_counters(self) -> int:
        """Counters across all shards (capacity scales with the count)."""
        return sum(shard.num_counters for shard in self.shards)

    def save_state(self) -> dict[str, object]:
        """Shard-wise snapshot (the factory and runner are runtime wiring,
        not state, and restore targets an identically-configured instance
        anyway)."""
        return pack_shards([shard.save_state() for shard in self.shards])

    def load_state(self, state: dict[str, object]) -> None:
        """Restore shard states in place; shard count must match."""
        for shard, shard_state in zip(
            self.shards, unpack_shards(state, self.num_shards)
        ):
            shard.load_state(shard_state)

    # -- sharding-specific surface ----------------------------------------

    def estimate(self, key: int, *args: float) -> float:
        """Point estimate from the owning shard (exact routing: a key's
        whole state lives in one shard)."""
        shard = self.shards[shard_of_key(key, self.num_shards)]
        return shard.estimate(key, *args)  # type: ignore[attr-defined]

    def merged(self) -> Detector:
        """All shards folded into one fresh detector via ``merge``.

        For registry-``mergeable`` detectors the result is the
        single-stream detector, exactly.
        """
        combined = self.detector_factory()
        for shard in self.shards:
            combined.merge(shard)
        return combined

    def __repr__(self) -> str:
        return (
            f"ShardedDetector(num_shards={self.num_shards}, "
            f"runner={self.runner!r})"
        )


def pack_shards(states: list[dict[str, object]]) -> dict[str, object]:
    """The sharded artifact: one detector envelope per logical shard, in
    shard order.  The serial engine and the serve pool both write it, so
    either restores the other's checkpoints whatever the worker layout."""
    return pack_state(ShardedDetector, states)


def unpack_shards(state: object, num_shards: int) -> list[dict[str, object]]:
    """The shard envelopes of a :func:`pack_shards` artifact.

    The artifact's checksum covers every nested shard payload, so a
    damaged file fails here, before any shard is touched.
    """
    shards = unpack_state(ShardedDetector, state)
    if not isinstance(shards, list):
        raise CheckpointError("sharded checkpoint payload must be a list")
    if len(shards) != num_shards:
        raise CheckpointError(
            f"checkpoint has {len(shards)} shards; this detector has "
            f"{num_shards}"
        )
    return shards
