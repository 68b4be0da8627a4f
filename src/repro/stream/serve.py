"""Multi-tenant streaming serve runtime over one persistent shard pool.

:class:`ServeRuntime` is the deployment shape of ROADMAP's "millions of
users" item: one :class:`repro.engine.ServePool` (N persistent worker
processes, each owning its logical shards for the life of the run) serves
*many* concurrent tenant streams.  Each tenant is an ordinary
:class:`repro.stream.StreamPipeline` whose detector happens to be a
:class:`repro.engine.ServeDetector` handle — the pipeline code is
untouched, which is what keeps serve emissions observationally equivalent
to the serial path (bit-identical, enforced by
``tests/stream/test_serve.py``).

Equivalence hinges on one transport invariant the runtime maintains: the
pool's slot capacity equals the tenant chunk size, so every pipeline
sub-slice ships as exactly *one* shared-memory slot write and therefore
reaches each shard detector as exactly one ``update_batch`` call — the
same batch boundaries the serial sharded engine produces.  (Vectorized
detectors aggregate per batch, so different boundaries would reorder
candidate admission even when final counts agree.)

Tenants advance round-robin, one chunk per turn, so a hot tenant cannot
starve the others, and the pool pipelines throughout: while workers fold
tenant A's chunk, the main process is already partitioning tenant B's.
A tenant failure (:class:`repro.engine.TenantError`) retires that tenant
— recorded in :attr:`ServeRuntime.failed`, its shard detectors dropped —
without killing workers or sibling tenants.

The runtime is churn-tolerant and supervised:

* **Live admission/retirement** — :meth:`ServeRuntime.add_tenant` and
  :meth:`ServeRuntime.retire_tenant` are legal while :meth:`run` is
  iterating; the round-robin scheduler picks new tenants up (and drops
  retired ones) at turn boundaries, and every yield point leaves all
  pipelines at a chunk boundary, so mid-run checkpoints stay on the
  serial batch grid.

* **Worker crash recovery** — a dead worker process surfaces as
  :class:`repro.engine.serve.WorkerCrashError`; with ``recover=True``
  (the default) the runtime respawns it and rebuilds each tenant from
  its last auto-checkpoint (``add_tenant(..., checkpoint_every=N)``
  checkpoints every N emissions), replaying the chunks it has pushed
  since that checkpoint from its own log (upstream backup): recovery
  reads nothing from the source, so it costs the checkpoint gap rather
  than the stream's age, and it works for sources that cannot be read
  twice.  Already-delivered emissions are suppressed during replay, so
  the emission stream the consumer sees is bit-identical to an
  uninterrupted run.  Tenants with no recoverable checkpoint are retired
  into :attr:`failed` instead of killing the pool.

* **Rebalance** — :meth:`rebalance` checkpoints a tenant, retires it
  here, and resumes it on a new worker layout (same or another runtime
  with equal shard count) bit-identically, without stopping siblings;
  the new placement reads on from the chunks the tenant has not pushed
  yet, so rebalance reads no source twice either.

Checkpoints are the migration unit: :meth:`ServeRuntime.checkpoint_tenant`
emits the standard ``repro-hhh/stream-checkpoint/v2`` artifact, so a
tenant frozen here resumes bit-identically on another pool (any worker
count, same shard count), under the serial pipeline, or back here via
``add_tenant(..., resume=ckpt, fast_forward=True)`` — a cold resume like
that one, unlike in-process recovery, regenerates a deterministic source
and skips what the checkpoint consumed.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Iterator

from repro.core.detector import Detector
from repro.core.registry import get_enumerable_spec
from repro.engine.serve import (
    ServeError,
    ServePool,
    TenantError,
    WorkerCrashError,
)
from repro.stream.emission import Emission, parse_emission_policy
from repro.stream.pipeline import StreamPipeline
from repro.stream.source import StreamSource, parse_stream_spec, skip_packets
from repro.trace.container import Trace


class _TenantRun:
    """One tenant's live streaming state inside the runtime."""

    __slots__ = (
        "name", "pipeline", "chunks", "remaining", "done",
        # crash recovery: the checkpoint cadence (emissions), the last
        # checkpoint taken, and the chunks pushed since it (``log``; None
        # for a tenant without checkpoints).
        "checkpoint_every", "ckpt", "ckpt_emissions", "log",
        # logged chunks still to push again after a restore, ahead of
        # ``chunks``.
        "replay",
        # delivered-emission high-water mark (replay suppression).
        "yielded",
        # the add_tenant settings, for rebalance re-admission.
        "settings",
    )

    def __init__(
        self,
        name: str,
        pipeline: StreamPipeline,
        chunks: Iterator[Trace],
        remaining: int | None,
        checkpoint_every: int | None,
        settings: dict[str, object],
    ) -> None:
        self.name = name
        self.pipeline = pipeline
        self.chunks = chunks
        self.remaining = remaining
        self.done = False
        self.checkpoint_every = checkpoint_every
        self.ckpt: dict[str, object] | None = None
        self.ckpt_emissions = pipeline.emissions
        self.log: list[Trace] | None = (
            None if checkpoint_every is None else []
        )
        self.replay: list[Trace] = []
        self.yielded = pipeline.emissions
        self.settings = settings

    def next_chunk(self) -> Trace | None:
        """The next chunk to push: pending replay first, then the source.

        Pops replayed chunks one per call, so a replayed chunk is held
        only by the log (until the next checkpoint empties it).
        """
        if self.replay:
            return self.replay.pop(0)
        chunk = next(self.chunks, None)
        while chunk is not None and not len(chunk):
            # A composed source may legally yield a zero-length chunk
            # (e.g. at a splice boundary); only None is end-of-stream.
            chunk = next(self.chunks, None)
        return chunk

    def drop_log(self) -> None:
        """Release the logged and pending chunks; the tenant will not
        be pushed to again."""
        self.log = None
        self.replay = []


class _UnreadChunks(StreamSource):
    """The chunks a tenant has not pushed yet: its pending replay, then
    its live chunk iterator.  Read-once, like the iterator it drains."""

    def __init__(self, replay: list[Trace], chunks: Iterator[Trace]) -> None:
        self._replay = replay
        self._chunks = chunks

    def segments(self) -> Iterator[Trace]:
        while self._replay:
            yield self._replay.pop(0)
        yield from self._chunks


class ServeRuntime:
    """Drive many tenant streams over one persistent shard-worker pool.

    Parameters
    ----------
    workers, shards:
        Pool shape (see :class:`repro.engine.ServePool`); ``shards``
        defaults to ``workers``.
    chunk_size:
        Packets per stream chunk, and the pool's slot capacity — the two
        are deliberately one knob (see the module docstring).
    recover:
        Supervise worker crashes (the default): respawn dead workers and
        rebuild tenants from their last ``checkpoint_every`` checkpoint,
        failing only the tenants that have none.  With ``recover=False``
        a crash propagates as :class:`WorkerCrashError` out of ``run()``.

    Attributes
    ----------
    on_turn:
        Optional hook called as ``on_turn(turn)`` after every scheduler
        turn (a monotonically increasing count across all tenants).  The
        runtime is at a chunk boundary when it fires, so the hook may
        admit/retire/rebalance tenants — or inject crashes, which is how
        the tests and the fuzz harness drive deterministic churn.
    recoveries:
        One record per completed crash recovery:
        ``{"workers": (...), "failed": (...), "seconds": float}``
        (respawn + state-restore time; the replay that follows runs at
        normal streaming speed inside ``run()``).
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        shards: int | None = None,
        chunk_size: int = 8192,
        recover: bool = True,
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = chunk_size
        self.pool = ServePool(workers, shards, chunk_capacity=chunk_size)
        self.recover = recover
        self._tenants: dict[str, _TenantRun] = {}
        #: Tenant failures observed so far: name -> error message.
        self.failed: dict[str, str] = {}
        self.on_turn: Callable[[int], None] | None = None
        self.recoveries: list[dict[str, object]] = []
        self._turns = 0
        self._closed = False

    # -- tenant lifecycle --------------------------------------------------

    def add_tenant(
        self,
        name: str,
        detector: str | Callable[[], Detector],
        source: str | StreamSource,
        *,
        emit: str = "2s",
        phi: float = 0.02,
        key: str = "src",
        timestamped: bool | None = None,
        reset_on_emit: bool = True,
        emit_partial: bool = True,
        max_packets: int | None = None,
        resume: dict[str, object] | None = None,
        fast_forward: bool = False,
        checkpoint_every: int | None = None,
    ) -> StreamPipeline:
        """Register one tenant stream; returns its pipeline.

        ``detector`` is a registry name (must be enumerable) or a picklable
        detector factory; ``source`` is a stream spec string or a
        :class:`StreamSource`.  ``resume`` restores a prior
        ``repro-hhh/stream-checkpoint/v2`` artifact before any packet
        flows, and ``fast_forward`` additionally skips the packets that
        artifact already consumed (for deterministic sources replayed from
        the start).  ``max_packets`` bounds this tenant; with ``resume`` it
        counts the checkpointed packets as already consumed.

        ``checkpoint_every=N`` auto-checkpoints the tenant every ``N``
        emissions (and once at admission), which is what makes it
        recoverable after a worker crash; without it a crash retires the
        tenant into :attr:`failed`.  A recoverable tenant keeps the chunks
        it has pushed since its last checkpoint — up to ``N`` emissions'
        worth, the same gap a crash replays — so ``N`` trades checkpoint
        cost against that memory.

        Legal while :meth:`run` is iterating: the scheduler picks the new
        tenant up at the next turn boundary.
        """
        self._check_open()
        if name in self._tenants:
            raise ServeError(f"tenant {name!r} already registered")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if isinstance(detector, str):
            spec = get_enumerable_spec(detector, ServeError)
            factory: Callable[[], Detector] = spec.factory
            if timestamped is None:
                timestamped = spec.timestamped
        else:
            factory = detector
            if timestamped is None:
                timestamped = False
        if isinstance(source, str):
            source = parse_stream_spec(source)
        handle = self.pool.open_tenant(name, factory)
        try:
            pipeline = StreamPipeline(
                handle,
                parse_emission_policy(emit),
                phi=phi,
                key=key,
                timestamped=timestamped,
                reset_on_emit=reset_on_emit,
                emit_partial=emit_partial,
            )
            if resume is not None:
                pipeline.restore(resume)
                if fast_forward:
                    source = skip_packets(source, pipeline.packets)
            remaining = None
            if max_packets is not None:
                if max_packets < 1:
                    raise ValueError(
                        f"max_packets must be >= 1, got {max_packets}"
                    )
                remaining = max_packets - pipeline.packets
                if remaining <= 0:
                    raise ValueError(
                        f"tenant {name!r} resumes at packet "
                        f"{pipeline.packets}, at or past max_packets "
                        f"{max_packets}"
                    )
            settings = {
                "detector": detector,
                "emit": emit,
                "phi": phi,
                "key": key,
                "timestamped": timestamped,
                "reset_on_emit": reset_on_emit,
                "emit_partial": emit_partial,
                "max_packets": max_packets,
                "checkpoint_every": checkpoint_every,
            }
            run = _TenantRun(
                name, pipeline, source.chunks(self.chunk_size),
                remaining, checkpoint_every, settings,
            )
            if checkpoint_every is not None:
                # Admission-time checkpoint: the tenant is recoverable
                # from its very first turn, not only after N emissions.
                run.ckpt = pipeline.checkpoint()
                run.ckpt_emissions = pipeline.emissions
        except BaseException:
            self.pool.close_tenant(name)
            raise
        self._tenants[name] = run
        return pipeline

    def retire_tenant(
        self, name: str, *, checkpoint: bool = True
    ) -> dict[str, object] | None:
        """Drop one tenant now (legal mid-``run``); siblings are untouched.

        Returns the tenant's final ``repro-hhh/stream-checkpoint/v2``
        artifact (its migration unit — resume it anywhere) unless
        ``checkpoint=False``.  The name becomes free for re-admission.
        """
        self._check_open()
        run = self._tenants.get(name)
        if run is None:
            raise ServeError(f"unknown tenant {name!r}")
        if name in self.failed:
            raise ServeError(
                f"tenant {name!r} failed: {self.failed[name]}"
            )
        artifact = run.pipeline.checkpoint() if checkpoint else None
        run.done = True
        del self._tenants[name]
        self.pool.close_tenant(name)
        return artifact

    def rebalance(
        self, name: str, target: "ServeRuntime | None" = None
    ) -> StreamPipeline:
        """Move one live tenant to a new shard/worker layout, bit-exactly.

        Checkpoints the tenant, retires it here, and re-admits it on
        ``target`` (default: this runtime, e.g. after its pool gained
        respawned workers) with the same settings, resuming from the
        checkpoint and reading on from the chunks the tenant has not
        pushed yet.  Siblings keep streaming; the moved tenant continues
        bit-identically when the target's shard count and chunk size
        match this runtime's (the checkpoint pins the shard count; the
        chunk grid pins batch boundaries).

        Every check the target's admission makes runs before the tenant
        is retired here, so a refused move leaves the tenant where it
        is, with its pipeline state.  A tenant that has consumed its
        ``max_packets`` has nothing left to move and is refused.
        """
        self._check_open()
        target = self if target is None else target
        run = self._tenants.get(name)
        if run is None:
            raise ServeError(f"unknown tenant {name!r}")
        if name in self.failed:
            raise ServeError(
                f"tenant {name!r} failed: {self.failed[name]}"
            )
        target._check_open()
        if target.pool.num_shards != self.pool.num_shards:
            raise ServeError(
                f"rebalance target serves {target.pool.num_shards} shards; "
                f"tenant {name!r} is checkpointed at "
                f"{self.pool.num_shards} (the shard count is the "
                "checkpoint-compatibility unit)"
            )
        if target is not self and name in target._tenants:
            raise ServeError(
                f"tenant {name!r} already registered on the target runtime"
            )
        max_packets = run.settings["max_packets"]
        if max_packets is not None and (
            run.pipeline.packets >= max_packets  # type: ignore[operator]
        ):
            raise ServeError(
                f"tenant {name!r} has finished: it consumed "
                f"{run.pipeline.packets} packets, at max_packets "
                f"{max_packets}; a finished tenant stays where it is"
            )
        settings = dict(run.settings)
        unread = _UnreadChunks(run.replay, run.chunks)
        artifact = self.retire_tenant(name, checkpoint=True)
        pipeline = target.add_tenant(
            name,
            settings["detector"],  # type: ignore[arg-type]
            unread,
            emit=settings["emit"],  # type: ignore[arg-type]
            phi=settings["phi"],  # type: ignore[arg-type]
            key=settings["key"],  # type: ignore[arg-type]
            timestamped=settings["timestamped"],  # type: ignore[arg-type]
            reset_on_emit=settings["reset_on_emit"],  # type: ignore[arg-type]
            emit_partial=settings["emit_partial"],  # type: ignore[arg-type]
            max_packets=settings["max_packets"],  # type: ignore[arg-type]
            resume=artifact,
            checkpoint_every=settings["checkpoint_every"],  # type: ignore[arg-type]
        )
        # A tenant moved mid-replay has delivered emissions past its
        # checkpoint; the new placement must not deliver them again.
        target._tenants[name].yielded = run.yielded
        return pipeline

    def pipeline(self, name: str) -> StreamPipeline:
        """The named tenant's pipeline (live or finished — not failed)."""
        if name in self.failed:
            raise ServeError(
                f"tenant {name!r} failed: {self.failed[name]}"
            )
        try:
            return self._tenants[name].pipeline
        except KeyError:
            raise ServeError(f"unknown tenant {name!r}") from None

    @property
    def tenants(self) -> tuple[str, ...]:
        """Registered tenant names in registration order."""
        return tuple(self._tenants)

    def checkpoint_tenant(self, name: str) -> dict[str, object]:
        """Freeze one tenant into a stream-checkpoint migration artifact."""
        return self.pipeline(name).checkpoint()

    # -- the run loop ------------------------------------------------------

    def run(self) -> Iterator[tuple[str, Emission]]:
        """Advance all tenants round-robin, yielding emissions online.

        Each turn feeds one chunk to one tenant, so concurrent streams
        interleave fairly while the pool overlaps their partition and
        update stages.  Yields ``(tenant_name, emission)`` as boundaries
        fall; returns when every tenant is finished or failed.  Every
        yield point leaves all pipelines at a chunk boundary, so the
        consumer may admit, retire, or rebalance tenants between
        emissions.  Worker crashes are recovered in place when
        ``recover`` is set (see the class docstring).
        """
        self._check_open()
        while True:
            live = [
                run for run in self._tenants.values() if not run.done
            ]
            if not live:
                # Final barrier: flush outstanding acks (which may be the
                # first observation of a crash) before declaring done.
                try:
                    self.pool.barrier()
                except WorkerCrashError as exc:
                    self._handle_crash(exc)
                    continue
                self._sweep_deferred()
                if any(
                    not run.done for run in self._tenants.values()
                ):
                    continue  # recovery rewound someone; keep going
                return
            for run in live:
                if run.done:
                    continue  # retired/failed mid-round by the consumer
                out: list[tuple[str, Emission]] = []
                try:
                    self._step(run, out)
                except WorkerCrashError as exc:
                    self._handle_crash(exc)
                self._turns += 1
                if self.on_turn is not None:
                    self.on_turn(self._turns)
                # Emissions collected before a crash came from completed
                # sync queries, so they are valid and delivered; replay
                # suppression keeps them exactly-once.
                yield from out
                self._sweep_deferred()

    def _step(
        self, run: _TenantRun, out: list[tuple[str, Emission]]
    ) -> None:
        """Feed one chunk to one tenant, retiring it on error or EOS."""
        try:
            chunk = run.next_chunk()
            if chunk is None:
                self._finish_run(run, out)
                return
            if run.remaining is not None:
                if len(chunk) > run.remaining:
                    chunk = chunk.slice_index(0, run.remaining)
                run.remaining -= len(chunk)
            if run.log is not None:
                # Logged before the push, so a crash mid-push replays it.
                run.log.append(chunk)
            for emission in run.pipeline.push(chunk):
                self._collect(run, emission, out)
            if run.remaining is not None and run.remaining <= 0:
                self._finish_run(run, out)
            elif (
                run.checkpoint_every is not None
                and run.pipeline.emissions - run.ckpt_emissions
                >= run.checkpoint_every
            ):
                run.ckpt = run.pipeline.checkpoint()
                run.ckpt_emissions = run.pipeline.emissions
                run.log = []
        except TenantError as exc:
            self._fail(run.name, str(exc))

    def _finish_run(
        self, run: _TenantRun, out: list[tuple[str, Emission]]
    ) -> None:
        for emission in run.pipeline.finish():
            self._collect(run, emission, out)
        run.done = True

    def _collect(
        self,
        run: _TenantRun,
        emission: Emission,
        out: list[tuple[str, Emission]],
    ) -> None:
        if emission.index < run.yielded:
            return  # crash-recovery replay of an already-delivered emission
        run.yielded = emission.index + 1
        out.append((run.name, emission))

    # -- crash recovery ----------------------------------------------------

    def _handle_crash(self, exc: WorkerCrashError) -> None:
        """Respawn dead workers and rewind tenants to their checkpoints.

        Tenants with an auto-checkpoint are restored from it and queue
        the chunks they pushed since it for replay ahead of their live
        chunk iterators, so no source is read again; the scheduler then
        replays the gap (emissions already delivered are suppressed).
        Tenants without one retire into :attr:`failed`.  Retries if
        another worker dies mid-recovery.
        """
        if not self.recover:
            raise exc
        started = perf_counter()
        revived: tuple[int, ...] = ()
        newly_failed: list[str] = []
        for _ in range(self.pool.num_workers + 2):
            try:
                revived = tuple(
                    sorted(set(revived) | set(self.pool.respawn_dead()))
                )
                for run in list(self._tenants.values()):
                    if run.name in self.failed:
                        continue
                    if run.ckpt is None:
                        newly_failed.append(run.name)
                        self._fail(
                            run.name,
                            f"worker crash ({exc}) with no recoverable "
                            "checkpoint; admit with checkpoint_every=N "
                            "to survive crashes",
                        )
                        continue
                    try:
                        self._restore_run(run)
                    except TenantError as err:
                        newly_failed.append(run.name)
                        self._fail(run.name, str(err))
                break
            except WorkerCrashError as again:
                exc = again
        else:  # pragma: no cover - workers dying faster than respawns
            raise exc
        self.recoveries.append({
            "workers": revived,
            "failed": tuple(newly_failed),
            "seconds": perf_counter() - started,
        })

    def _restore_run(self, run: _TenantRun) -> None:
        """Rewind one tenant to its last checkpoint and queue its log.

        The logged chunks go ahead of any replay still pending from an
        earlier crash; the live chunk iterator is not touched.
        """
        run.pipeline.restore(run.ckpt)
        run.replay = run.log + run.replay  # type: ignore[operator]
        run.log = []
        max_packets = run.settings["max_packets"]
        run.remaining = (
            None if max_packets is None
            else max_packets - run.pipeline.packets  # type: ignore[operator]
        )
        # Replay even previously-finished tenants: their emissions are
        # all suppressed, but the final detector/pipeline state must be
        # rebuilt for post-run checkpoints and queries.
        run.done = False

    def _sweep_deferred(self) -> None:
        """Retire tenants whose *asynchronous* updates failed.

        Async failures surface out of band (the pool defers them to the
        next sync point); sweeping after every step pins each one to its
        tenant before another tenant's turn can observe it.
        """
        for tenant, message in self.pool.take_tenant_errors():
            self._fail(str(tenant), message)

    def _fail(self, name: str, message: str) -> None:
        self.failed.setdefault(name, message)
        run = self._tenants.get(name)
        if run is not None:
            run.done = True
            run.drop_log()
        try:
            self.pool.close_tenant(name)
        except (ServeError, TenantError):  # pragma: no cover - double fault
            pass

    # -- lifecycle ---------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ServeError("serve runtime is closed")

    def close(self) -> None:
        """Release the pool and every tenant's logged chunks."""
        if self._closed:
            return
        self._closed = True
        for run in self._tenants.values():
            run.drop_log()
        self.pool.close()

    def __enter__(self) -> "ServeRuntime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ServeRuntime(pool={self.pool!r}, "
            f"chunk_size={self.chunk_size}, "
            f"tenants={list(self._tenants)}, failed={list(self.failed)})"
        )
