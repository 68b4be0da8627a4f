"""Execution plans and the seeded plan space.

An :class:`ExecutionPlan` pins down *one way* to run a workload through
the streaming stack: which detector, which stream spec, how the stream is
chunked, how the key space is sharded, where checkpoint/restore cycles
interrupt the run, in which order shards are folded, and whether the run
goes through the serve pool or the serial pipeline.  Plans are plain
frozen data — serializable, hashable, comparable — so a fuzz-case
artifact can carry them verbatim and replay them later.

:class:`PlanSpace` is the generator: seeded, deterministic sampling of
:class:`PlanPair`\\ s along the *equivalence axes* the layer contracts
promise.  Each axis names one contract already enforced somewhere in the
test suite for one interleaving; the fuzz harness re-checks it across
many sampled interleavings:

``chunking``
    Re-chunking a stream never changes observations
    (``tests/core/test_batch_equivalence.py``: batch ≡ scalar, so any
    chunk boundary placement is equivalent — decayed structures up to
    float rounding).
``sharding``
    Key-partitioned shards folded via ``merged()`` reproduce the
    single-stream detector for registry-``mergeable`` entries
    (``tests/core/test_merge_equivalence.py``).
``checkpoint``
    Freezing a pipeline mid-stream and resuming is bit-identical to never
    stopping (``tests/core/test_checkpoint_equivalence.py``,
    ``tests/stream/test_pipeline.py``).
``serve``
    The serve pool emits bit-identically to the serial sharded pipeline
    with the same chunk size and shard count
    (``tests/stream/test_serve.py``).
``merge-order``
    ``merge`` is order-insensitive: folding shards in any permutation
    yields the same detector (up to float rounding for decayed
    structures).
``serve-churn``
    A serve tenant's emissions are independent of sibling tenant churn:
    admitting and retiring other tenants mid-``run()`` never perturbs it
    (``tests/stream/test_serve.py``, the tenant-isolation contract).
``serve-crash``
    A worker SIGKILLed mid-run is recovered from the tenant's
    ``checkpoint_every`` auto-checkpoint bit-identically to a run with
    no crash at all (``tests/engine/test_serve_recovery.py``).

Axis eligibility comes from registry metadata: report-comparing axes
(chunking, checkpoint, serve) need ``enumerable`` detectors; merge-based
axes (sharding, merge-order) need ``mergeable`` ones and compare probed
point estimates over the observed key set instead of thresholded reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

from repro.core.registry import detector_names, get_spec

#: The equivalence axes the plan space samples, in round-robin order.
AXES = ("chunking", "sharding", "checkpoint", "serve", "merge-order",
        "serve-churn", "serve-crash")

#: Axes whose plans threshold-query and diff full emission reports.
REPORT_AXES = ("chunking", "checkpoint", "serve", "serve-churn",
               "serve-crash")

#: Axes whose plans fold shards via ``merge`` and diff probed estimates.
MERGE_AXES = ("sharding", "merge-order")


class FuzzError(ValueError):
    """An invalid plan, plan pair, or plan-space configuration."""


@dataclass(frozen=True)
class ExecutionPlan:
    """One fully-pinned way to run a workload through the real stack.

    Workload knobs (shared by both plans of a pair):

    - ``detector`` — registry name;
    - ``stream`` — stream spec string (seeds normalised in, so the string
      alone reproduces the packets);
    - ``take`` — packet budget (bounds infinite sources);
    - ``skip`` — packets dropped off the front (the shrinker raises this
      to bisect the divergence-triggering range);
    - ``emit`` — emission policy spelling (``"2s"``, ``"500p"``, ...);
    - ``phi``/``key`` — report threshold and key column.

    Interleaving knobs (where the two plans of a pair differ):

    - ``chunk`` — packets per columnar chunk;
    - ``shards`` — key-partition count (1 = plain detector);
    - ``probe`` — query via probed point estimates over observed keys with
      shards folded through ``merged()`` (the merge-axis mode) instead of
      thresholded ``query`` reports;
    - ``restart_at`` — pipeline checkpoint/restore cycles: after chunk
      index ``i`` the pipeline is frozen, torn down, rebuilt around a
      fresh detector, and restored;
    - ``merge_order`` — the shard fold order for ``probe`` plans
      (``None`` = natural order);
    - ``serve_workers`` — run through a :class:`repro.stream.ServeRuntime`
      with this many pool workers (0 = serial pipeline);
    - ``checkpoint_every`` — per-tenant auto-checkpoint cadence in
      emissions (serve plans only; 0 = off);
    - ``crash_at`` — SIGKILL one worker at this scheduler turn (serve
      plans only, requires ``checkpoint_every``; 0 = no crash);
    - ``churn`` — scheduler turns at which a sibling tenant is admitted
      (and retired two turns later), exercising live tenant churn around
      the tenant under test (serve plans only).
    """

    detector: str
    stream: str
    take: int = 512
    skip: int = 0
    emit: str = "2s"
    phi: float = 0.02
    key: str = "src"
    chunk: int = 128
    shards: int = 1
    probe: bool = False
    restart_at: tuple[int, ...] = field(default_factory=tuple)
    merge_order: tuple[int, ...] | None = None
    serve_workers: int = 0
    checkpoint_every: int = 0
    crash_at: int = 0
    churn: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.take < 1:
            raise FuzzError(f"take must be >= 1, got {self.take}")
        if self.skip < 0:
            raise FuzzError(f"skip must be >= 0, got {self.skip}")
        if self.chunk < 1:
            raise FuzzError(f"chunk must be >= 1, got {self.chunk}")
        if self.shards < 1:
            raise FuzzError(f"shards must be >= 1, got {self.shards}")
        if self.serve_workers < 0:
            raise FuzzError(
                f"serve_workers must be >= 0, got {self.serve_workers}"
            )
        if not 0.0 < self.phi <= 1.0:
            raise FuzzError(f"phi must be in (0, 1], got {self.phi}")
        object.__setattr__(
            self, "restart_at", tuple(sorted(set(self.restart_at)))
        )
        if any(i < 1 for i in self.restart_at):
            raise FuzzError(
                f"restart_at indices must be >= 1, got {self.restart_at}"
            )
        if self.merge_order is not None:
            order = tuple(self.merge_order)
            object.__setattr__(self, "merge_order", order)
            if sorted(order) != list(range(self.shards)):
                raise FuzzError(
                    f"merge_order {order} is not a permutation of "
                    f"range({self.shards})"
                )
            if not self.probe:
                raise FuzzError("merge_order requires probe mode")
        if self.probe and self.restart_at:
            raise FuzzError(
                "probe plans cannot interleave checkpoint restarts (the "
                "probe adapter's observed-key window is not checkpointed)"
            )
        if self.serve_workers:
            if self.probe:
                raise FuzzError("serve plans cannot use probe mode")
            if self.restart_at:
                raise FuzzError(
                    "serve plans cannot interleave checkpoint restarts"
                )
            if self.serve_workers > self.shards:
                raise FuzzError(
                    f"serve_workers {self.serve_workers} exceeds shards "
                    f"{self.shards}"
                )
        if self.checkpoint_every < 0:
            raise FuzzError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.crash_at < 0:
            raise FuzzError(f"crash_at must be >= 0, got {self.crash_at}")
        object.__setattr__(self, "churn", tuple(sorted(set(self.churn))))
        if any(t < 1 for t in self.churn):
            raise FuzzError(
                f"churn turns must be >= 1, got {self.churn}"
            )
        if (self.checkpoint_every or self.crash_at or self.churn) \
                and not self.serve_workers:
            raise FuzzError(
                "checkpoint_every/crash_at/churn require a serve plan "
                "(serve_workers >= 1)"
            )
        if self.crash_at and not self.checkpoint_every:
            raise FuzzError(
                "crash_at requires checkpoint_every >= 1 (a tenant "
                "without auto-checkpoints cannot survive the crash)"
            )

    def with_(self, **changes: object) -> "ExecutionPlan":
        """A copy with ``changes`` applied (shrinker mutation helper)."""
        return replace(self, **changes)  # type: ignore[arg-type]

    def to_dict(self) -> dict[str, object]:
        """A JSON-clean dict that :meth:`from_dict` round-trips."""
        return {
            "detector": self.detector,
            "stream": self.stream,
            "take": self.take,
            "skip": self.skip,
            "emit": self.emit,
            "phi": self.phi,
            "key": self.key,
            "chunk": self.chunk,
            "shards": self.shards,
            "probe": self.probe,
            "restart_at": list(self.restart_at),
            "merge_order": (
                None if self.merge_order is None else list(self.merge_order)
            ),
            "serve_workers": self.serve_workers,
            "checkpoint_every": self.checkpoint_every,
            "crash_at": self.crash_at,
            "churn": list(self.churn),
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "ExecutionPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        if not isinstance(data, dict):
            raise FuzzError(
                f"plan must be a dict, got {type(data).__name__}"
            )
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise FuzzError(f"unknown plan fields: {sorted(unknown)}")
        kwargs = dict(data)
        if kwargs.get("restart_at") is not None:
            kwargs["restart_at"] = tuple(kwargs["restart_at"])  # type: ignore[arg-type]
        if kwargs.get("merge_order") is not None:
            kwargs["merge_order"] = tuple(kwargs["merge_order"])  # type: ignore[arg-type]
        if kwargs.get("churn") is not None:
            kwargs["churn"] = tuple(kwargs["churn"])  # type: ignore[arg-type]
        return cls(**kwargs)  # type: ignore[arg-type]

    def describe(self) -> str:
        """A compact one-line label for logs and divergence reports."""
        parts = [f"chunk={self.chunk}"]
        if self.shards > 1:
            parts.append(f"shards={self.shards}")
        if self.probe:
            parts.append("probe")
        if self.restart_at:
            parts.append(f"restart@{','.join(map(str, self.restart_at))}")
        if self.merge_order is not None:
            parts.append(f"order={''.join(map(str, self.merge_order))}")
        if self.serve_workers:
            parts.append(f"serve={self.serve_workers}w")
        if self.checkpoint_every:
            parts.append(f"ckpt={self.checkpoint_every}")
        if self.crash_at:
            parts.append(f"crash@{self.crash_at}")
        if self.churn:
            parts.append(f"churn@{','.join(map(str, self.churn))}")
        return f"{self.detector}[{' '.join(parts)}]"


@dataclass(frozen=True)
class PlanPair:
    """Two plans one equivalence axis promises are observationally equal."""

    axis: str
    a: ExecutionPlan
    b: ExecutionPlan

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise FuzzError(
                f"unknown axis {self.axis!r}; known: {', '.join(AXES)}"
            )
        for shared in ("detector", "stream", "take", "skip", "emit",
                       "phi", "key"):
            if getattr(self.a, shared) != getattr(self.b, shared):
                raise FuzzError(
                    f"plan pair must share {shared!r}: "
                    f"{getattr(self.a, shared)!r} != "
                    f"{getattr(self.b, shared)!r}"
                )

    def with_workload(self, **changes: object) -> "PlanPair":
        """Both plans with the same workload ``changes`` (shrinker)."""
        return PlanPair(
            self.axis, self.a.with_(**changes), self.b.with_(**changes)
        )

    def describe(self) -> str:
        return f"{self.axis}: {self.a.describe()} vs {self.b.describe()}"


def eligible_detectors(axis: str) -> tuple[str, ...]:
    """Registry detectors the given axis can exercise, sorted by name."""
    if axis in REPORT_AXES:
        return tuple(
            n for n in detector_names() if get_spec(n).enumerable
        )
    if axis in MERGE_AXES:
        return tuple(
            n for n in detector_names() if get_spec(n).mergeable
        )
    raise FuzzError(f"unknown axis {axis!r}; known: {', '.join(AXES)}")


#: Scenario names the workload sampler draws from (all reseedable).
_SCENARIOS = ("zipf", "ddos-burst", "flash-crowd", "portscan", "calm")

_CHUNKS = (16, 32, 48, 64, 96, 128, 192, 256)
_EMITS = ("1s", "2s", "250p", "500p")
_PHIS = (0.01, 0.02, 0.05)


class PlanSpace:
    """Seeded, deterministic sampler of equivalent plan pairs.

    Pair ``i`` is derived from ``(seed, i)`` alone, so the space is both
    reproducible (same seed → same pairs, across runs and machines) and
    resumable (a fuzz-case artifact records the pair index).  Axes rotate
    round-robin and detectors rotate within each axis's eligible pool, so
    a short budget still covers every axis and many detectors before the
    sampler revisits anything.

    Parameters
    ----------
    seed:
        Base seed for the whole space.
    detectors:
        Optional registry-name whitelist; axes left with no eligible
        detector are dropped (raises if nothing at all is eligible).
    axes:
        Which equivalence axes to sample (default: all).
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        detectors: Sequence[str] | None = None,
        axes: Sequence[str] | None = None,
    ) -> None:
        self.seed = seed
        wanted = tuple(axes) if axes is not None else AXES
        for axis in wanted:
            if axis not in AXES:
                raise FuzzError(
                    f"unknown axis {axis!r}; known: {', '.join(AXES)}"
                )
        if detectors is not None:
            for name in detectors:
                try:
                    get_spec(name)  # validate eagerly, with suggestions
                except KeyError as exc:
                    raise FuzzError(exc.args[0]) from None
        pools: dict[str, tuple[str, ...]] = {}
        for axis in wanted:
            pool = eligible_detectors(axis)
            if detectors is not None:
                pool = tuple(n for n in pool if n in set(detectors))
            if pool:
                pools[axis] = pool
        if not pools:
            raise FuzzError(
                "no (axis, detector) combination is eligible: report axes "
                "need enumerable detectors, merge axes need mergeable ones"
            )
        self.axes = tuple(pools)
        self.pools = pools

    def _rng(self, index: int) -> random.Random:
        # Seeding from a string hashes via SHA-512 (stable across runs
        # and processes, unlike object hashes under PYTHONHASHSEED).
        return random.Random(f"repro-fuzz:{self.seed}:{index}")

    def pair(self, index: int) -> PlanPair:
        """The ``index``-th plan pair of this space (pure function)."""
        axis = self.axes[index % len(self.axes)]
        pool = self.pools[axis]
        detector = pool[(index // len(self.axes)) % len(pool)]
        rng = self._rng(index)
        base = self._workload(rng, detector)
        build = getattr(self, "_pair_" + axis.replace("-", "_"))
        return build(rng, base)

    def pairs(self) -> Iterator[PlanPair]:
        """Plan pairs in index order, forever (consumers bound it)."""
        index = 0
        while True:
            yield self.pair(index)
            index += 1

    # -- workload sampling -------------------------------------------------

    def _workload(self, rng: random.Random, detector: str) -> ExecutionPlan:
        return ExecutionPlan(
            detector=detector,
            stream=self._stream(rng),
            take=rng.randrange(256, 1537),
            emit=rng.choice(_EMITS),
            phi=rng.choice(_PHIS),
            key=rng.choice(("src", "dst")),
        )

    def _stream(self, rng: random.Random) -> str:
        # A small seed pool keeps the trace LRU cache warm across pairs;
        # the per-atom seed still varies the packets between workloads.
        s = rng.randrange(0, 16)
        shape = rng.randrange(6)
        one = rng.choice(_SCENARIOS)
        two = rng.choice(_SCENARIOS)
        if shape == 0:
            return f"{one}:duration=6,seed={s}"
        if shape == 1:
            return f"repeat:{one}:duration=3,seed={s}"
        if shape == 2:
            return (
                f"{one}:duration=4,seed={s}"
                f"+{two}:duration=4,seed={s + 1}"
            )
        if shape == 3:
            return (
                f"{one}:duration=4,seed={s}"
                f"&{two}:duration=4,seed={s + 1}"
            )
        if shape == 4:
            return f"{one}:duration=6,seed={s}@x4"
        return f"repeat:{one}:duration=3,seed={s}&{two}:duration=5,seed={s + 1}"

    # -- per-axis pair construction ----------------------------------------

    def _pair_chunking(
        self, rng: random.Random, base: ExecutionPlan
    ) -> PlanPair:
        c1, c2 = rng.sample(_CHUNKS, 2)
        return PlanPair(
            "chunking", base.with_(chunk=c1), base.with_(chunk=c2)
        )

    def _pair_sharding(
        self, rng: random.Random, base: ExecutionPlan
    ) -> PlanPair:
        chunk = rng.choice(_CHUNKS)
        shards = rng.choice((2, 3, 4))
        base = base.with_(chunk=chunk, probe=True)
        return PlanPair("sharding", base, base.with_(shards=shards))

    def _pair_checkpoint(
        self, rng: random.Random, base: ExecutionPlan
    ) -> PlanPair:
        chunk = rng.choice(_CHUNKS)
        base = base.with_(chunk=chunk)
        # Restart points must land strictly inside the run to interrupt
        # anything; pad take so there are at least 4 full chunks.
        nchunks = base.take // chunk
        if nchunks < 4:
            base = base.with_(take=chunk * 4)
            nchunks = 4
        count = rng.choice((1, 1, 2))
        points = tuple(sorted(rng.sample(range(1, nchunks), count)))
        return PlanPair("checkpoint", base, base.with_(restart_at=points))

    def _pair_serve(
        self, rng: random.Random, base: ExecutionPlan
    ) -> PlanPair:
        chunk = rng.choice((64, 128, 256))
        shards = rng.choice((2, 3, 4))
        workers = rng.randrange(1, shards + 1)
        base = base.with_(chunk=chunk, shards=shards)
        return PlanPair("serve", base, base.with_(serve_workers=workers))

    def _pair_serve_churn(
        self, rng: random.Random, base: ExecutionPlan
    ) -> PlanPair:
        chunk = rng.choice((64, 128, 256))
        shards = rng.choice((2, 3))
        workers = rng.randrange(1, shards + 1)
        base = base.with_(chunk=chunk, shards=shards, serve_workers=workers)
        # Churn turns must land while the tenant under test still has
        # chunks to stream, or nothing interleaves with it.
        nturns = max(2, base.take // chunk)
        count = min(rng.choice((1, 2)), nturns)
        turns = tuple(sorted(rng.sample(range(1, nturns + 1), count)))
        return PlanPair("serve-churn", base, base.with_(churn=turns))

    def _pair_serve_crash(
        self, rng: random.Random, base: ExecutionPlan
    ) -> PlanPair:
        chunk = rng.choice((64, 128, 256))
        shards = rng.choice((2, 3))
        workers = rng.randrange(1, shards + 1)
        base = base.with_(
            chunk=chunk, shards=shards, serve_workers=workers,
            checkpoint_every=rng.choice((1, 2)),
        )
        # The kill must fire before the stream ends to interrupt anything.
        nturns = max(2, base.take // chunk)
        return PlanPair(
            "serve-crash", base,
            base.with_(crash_at=rng.randrange(1, nturns + 1)),
        )

    def _pair_merge_order(
        self, rng: random.Random, base: ExecutionPlan
    ) -> PlanPair:
        chunk = rng.choice(_CHUNKS)
        shards = rng.choice((3, 4))
        natural = tuple(range(shards))
        shuffled = natural
        while shuffled == natural:
            shuffled = tuple(rng.sample(range(shards), shards))
        base = base.with_(chunk=chunk, shards=shards, probe=True)
        return PlanPair(
            "merge-order",
            base.with_(merge_order=natural),
            base.with_(merge_order=shuffled),
        )

    def __repr__(self) -> str:
        return (
            f"PlanSpace(seed={self.seed}, axes={list(self.axes)})"
        )
