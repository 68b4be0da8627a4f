"""Sharded parallel execution engine.

The scaling layer between the detectors and the window/experiment
drivers: key-partitioned detector shards
(:class:`~repro.engine.sharded.ShardedDetector`), vectorized key → shard
partitioning (:mod:`repro.engine.partition`), and serial/process-pool
execution backends (:class:`~repro.engine.runner.ParallelRunner`).

Reported heavy hitters are equivalent to a single-stream deployment by
construction — each key's whole state lives in exactly one shard — while
updates fan out across shards (and, with the process backend, across
cores).  Registry metadata (``mergeable``) says which detectors can
additionally be folded back into one single-stream-equivalent detector
via ``merge``.
"""

from repro.engine.partition import (
    SHARD_SALT,
    partition_batch,
    shard_ids,
    shard_of_key,
)
from repro.engine.runner import ParallelRunner
from repro.engine.serve import (
    ServeDetector,
    ServeError,
    ServePool,
    TenantError,
    WorkerCrashError,
)
from repro.engine.sharded import ShardedDetector
from repro.engine.shm import ChunkRing

__all__ = [
    "ChunkRing",
    "ParallelRunner",
    "SHARD_SALT",
    "ServeDetector",
    "ServeError",
    "ServePool",
    "ShardedDetector",
    "TenantError",
    "WorkerCrashError",
    "partition_batch",
    "shard_ids",
    "shard_of_key",
]
