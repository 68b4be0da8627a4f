"""Persistent shard-worker pool with zero-copy shared-memory handoff.

The process backend of :class:`repro.engine.ParallelRunner` pickles every
shard detector out *and back* on every batch — fine for whole-window
fan-out, ruinous for streaming.  :class:`ServePool` inverts the
ownership: ``W`` long-lived worker processes each *own* a fixed subset of
the ``S`` logical shards (shard ``s`` lives on worker ``s % W``) for the
life of the pool, so detector state never crosses a process boundary
during ingest.  Per chunk, the main process routes keys once (the same
``splitmix64`` partition the sharded engine uses), writes the partitioned
columns into a :class:`repro.engine.shm.ChunkRing` slot, and ships only
``(slot, shard bounds)`` over each worker's pipe; workers slice their
shard ranges out of the shared pages with zero copies and fold them into
their pinned detectors.

Updates are *asynchronous*: the pool returns as soon as the slot is
written, so the main process partitions chunk ``k+1`` (and pulls it from
the source) while workers are still updating chunk ``k`` — the
ingest→partition→update pipeline overlap that makes shard count a
throughput knob.  Queries, resets, checkpoints, and tenant lifecycle are
synchronous barriers, which is exactly where the streaming pipeline needs
them (emission boundaries).

Many tenants multiplex over one pool: each worker keeps an independent
detector per (tenant, owned shard), commands are tenant-scoped, and a
tenant's failure is reported as :class:`TenantError` without touching
sibling tenants or killing workers.

Checkpoints interchange with the serial engine: ``save_tenant`` emits the
same ``repro-hhh/detector-state/v2`` artifact a
:class:`repro.engine.ShardedDetector` of equal shard count writes, and
``load_tenant`` accepts one — a tenant frozen under serve resumes under
the serial pipeline (or on a pool with a *different worker count*)
bit-identically, because the logical shard partition, not the worker
layout, is what the artifact captures.

Worker death is a *recoverable* condition, not a pool-fatal one: the
first pipe failure (EOF/OSError) marks the worker dead, releases its
in-flight slot reservations (so the partitioner can never hang waiting
on acks that will not arrive), and raises :class:`WorkerCrashError`.
:meth:`ServePool.respawn_dead` then replaces the dead processes and
re-opens every registered tenant's shard detectors on them — *empty*;
rebuilding state from checkpoints is the caller's job (see
:class:`repro.stream.serve.ServeRuntime`, which restores each tenant
from its last auto-checkpoint and replays the gap).
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import weakref
from collections import deque
from multiprocessing import util as mp_util
from typing import Callable, Sequence

import numpy as np

from repro.core.detector import Detector, as_batch
from repro.engine.partition import shard_order
from repro.engine.sharded import pack_shards, unpack_shards
from repro.engine.shm import ChunkRing


class ServeError(RuntimeError):
    """A pool-fatal serve failure (dead worker, closed pool, bad wiring)."""


class TenantError(ServeError):
    """One tenant's command failed; the pool and sibling tenants live on."""

    def __init__(self, tenant: object, message: str) -> None:
        self.tenant = tenant
        super().__init__(f"tenant {tenant!r}: {message}")


class WorkerCrashError(ServeError):
    """A worker process died mid-command.

    Recoverable: the pool stays open, the dead worker's in-flight slot
    reservations are already released, and :meth:`ServePool.respawn_dead`
    brings a replacement up (with empty detectors — state rebuild is the
    caller's job).  ``worker`` is the dead worker's index.
    """

    def __init__(self, worker: int, message: str) -> None:
        self.worker = worker
        super().__init__(message)


# -- the worker process -------------------------------------------------------

def _tenant_shards(tenants: dict, tenant: object) -> dict[int, Detector]:
    try:
        return tenants[tenant]
    except KeyError:
        raise ValueError(f"tenant {tenant!r} is not open on this worker")


def _serve_dispatch(
    tenants: dict, ring: ChunkRing, owned: tuple[int, ...], msg: tuple
) -> object:
    """Execute one command against this worker's pinned detectors."""
    op = msg[0]
    if op == "update":
        _, tenant, slot, bounds, n, has_ts = msg
        shards = _tenant_shards(tenants, tenant)
        keys, weights, ts = ring.views(slot, n)
        for s in owned:
            i, j = bounds[s], bounds[s + 1]
            if j > i:
                shards[s].update_batch(
                    keys[i:j], weights[i:j], ts[i:j] if has_ts else None
                )
        return slot
    if op == "query":
        _, tenant, threshold, now = msg
        shards = _tenant_shards(tenants, tenant)
        if now is None:
            return {s: det.query(threshold) for s, det in shards.items()}
        return {s: det.query(threshold, now) for s, det in shards.items()}
    if op == "open":
        _, tenant, factory = msg
        if tenant in tenants:
            raise ValueError(f"tenant {tenant!r} already open")
        tenants[tenant] = {s: factory() for s in owned}
        return None
    if op == "reset":
        for det in _tenant_shards(tenants, msg[1]).values():
            det.reset()
        return None
    if op == "save":
        return {
            s: det.save_state()
            for s, det in _tenant_shards(tenants, msg[1]).items()
        }
    if op == "load":
        _, tenant, states = msg
        for s, det in _tenant_shards(tenants, tenant).items():
            det.load_state(states[s])
        return None
    if op == "counters":
        return sum(
            det.num_counters
            for det in _tenant_shards(tenants, msg[1]).values()
        )
    if op == "close_tenant":
        tenants.pop(msg[1], None)
        return None
    raise ValueError(f"unknown serve command {op!r}")


def _serve_worker(
    conn, ring_name: str, capacity: int, num_slots: int,
    owned: tuple[int, ...],
) -> None:
    """Worker main loop: attach to the ring once, then serve commands.

    Every received command produces exactly one reply — ``("ok", payload)``
    or ``("error", text)`` — in arrival order, which is what lets the main
    process leave update acks unread (the pipelining) and still match
    replies to commands FIFO.  Command failures are tenant-scoped: the
    worker replies with the error and keeps serving.
    """
    ring = ChunkRing(capacity, num_slots, name=ring_name)
    tenants: dict[object, dict[int, Detector]] = {}
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            if msg[0] == "shutdown":
                conn.send(("ok", None))
                break
            try:
                reply = ("ok", _serve_dispatch(tenants, ring, owned, msg))
            except Exception as exc:
                reply = ("error", f"{type(exc).__name__}: {exc}")
            conn.send(reply)
    finally:
        tenants.clear()  # drop detector slice refs before detaching the ring
        ring.close()
        conn.close()


# -- pool shutdown safety net -------------------------------------------------

_LIVE_POOLS: "weakref.WeakSet[ServePool]" = weakref.WeakSet()


def _close_live_pools() -> None:  # pragma: no cover - interpreter exit path
    for pool in list(_LIVE_POOLS):
        try:
            pool.close()
        except Exception:
            pass


atexit.register(_close_live_pools)


# -- the main-process pool ----------------------------------------------------

class ServePool:
    """``W`` persistent shard workers serving ``S`` logical shards.

    Parameters
    ----------
    workers:
        Worker process count.  Workers are spawned eagerly and live until
        :meth:`close`.
    shards:
        Logical shard count (default: ``workers``).  This — not the worker
        count — is the unit of key partitioning and of checkpoint
        compatibility; shard ``s`` is pinned to worker ``s % workers``.
    chunk_capacity:
        Largest chunk (packets) a single slot write accepts; longer
        batches are shipped in capacity-sized pieces.
    slots:
        Ring slots (>= 2).  Two give classic double-buffering; a couple
        more absorb scheduling jitter without blocking the partitioner.
    """

    def __init__(
        self,
        workers: int = 1,
        shards: int | None = None,
        *,
        chunk_capacity: int = 65536,
        slots: int = 4,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        shards = workers if shards is None else shards
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if shards < workers:
            raise ValueError(
                f"{workers} workers need >= {workers} shards; got {shards} "
                "(idle workers would own no keys)"
            )
        self.num_workers = workers
        self.num_shards = shards
        self.chunk_capacity = chunk_capacity
        self.ring = ChunkRing(chunk_capacity, slots)
        self.owned: tuple[tuple[int, ...], ...] = tuple(
            tuple(range(w, shards, workers)) for w in range(workers)
        )
        self._ctx = mp.get_context()
        self._conns: list = [None] * workers
        self._procs: list = [None] * workers
        #: Per-worker FIFO of in-flight async updates: (slot, tenant).
        self._pending: list[deque] = [deque() for _ in range(workers)]
        #: Per-slot count of workers still to ack the last write.
        self._slot_users = [0] * slots
        self._slot_cursor = 0
        #: Async update failures, attributed per tenant and surfaced at
        #: the next sync point for that tenant or via take_tenant_errors.
        self._tenant_errors: list[tuple[object, str]] = []
        #: Registered tenants in registration order, with the factory each
        #: was opened with — replayed onto respawned workers.
        self._tenants: dict[object, Callable[[], Detector]] = {}
        #: Indices of workers whose pipes have failed (crash detected).
        self._dead: set[int] = set()
        self._closed = False
        try:
            for w in range(workers):
                self._spawn_worker(w)
        except Exception:
            self.close()
            raise
        _LIVE_POOLS.add(self)

    def _spawn_worker(self, w: int) -> None:
        """Start (or restart) worker ``w`` with a fresh pipe and no state."""
        parent, child = self._ctx.Pipe()
        # Every process forked from here on (this worker, later workers)
        # closes its inherited copy of the supervisor's end before it
        # runs.  A worker holding one never reads EOF, so it would
        # outlive a killed supervisor and keep the resource tracker from
        # unlinking the ring's segment.
        mp_util.register_after_fork(parent, type(parent).close)
        proc = self._ctx.Process(
            target=_serve_worker,
            args=(child, self.ring.name, self.chunk_capacity,
                  self.ring.num_slots, self.owned[w]),
            daemon=True,
            name=f"repro-serve-{w}",
        )
        proc.start()
        child.close()
        self._conns[w] = parent
        self._procs[w] = proc

    # -- reply plumbing ---------------------------------------------------

    def _mark_dead(self, w: int, exc: BaseException) -> None:
        """Record worker ``w``'s death and raise :class:`WorkerCrashError`.

        Releases every slot reservation the dead worker still held — its
        acks will never arrive, so leaving them pending would eventually
        hang :meth:`_acquire_slot` on a slot that cannot drain.
        """
        if w not in self._dead:
            self._dead.add(w)
            while self._pending[w]:
                slot, _ = self._pending[w].popleft()
                self._slot_users[slot] -= 1
        raise WorkerCrashError(
            w, f"serve worker {w} died: {exc}"
        ) from None

    def _send(self, w: int, msg: tuple) -> None:
        if w in self._dead:
            raise WorkerCrashError(w, f"serve worker {w} is dead")
        try:
            self._conns[w].send(msg)
        except (OSError, EOFError, ValueError) as exc:
            self._mark_dead(w, exc)

    def _recv(self, w: int) -> tuple:
        if w in self._dead:
            raise WorkerCrashError(w, f"serve worker {w} is dead")
        try:
            return self._conns[w].recv()
        except (EOFError, OSError) as exc:
            self._mark_dead(w, exc)

    def _poll(self, w: int) -> bool:
        try:
            return self._conns[w].poll(0)
        except (OSError, EOFError) as exc:
            self._mark_dead(w, exc)

    def _consume_async(self, w: int) -> None:
        """Consume one in-flight update ack from worker ``w`` (blocking)."""
        slot, tenant = self._pending[w].popleft()
        try:
            status, payload = self._recv(w)
        finally:
            # Even when the worker died mid-ack, the reservation must be
            # released — a leaked count would let _acquire_slot wait
            # forever on a slot that can no longer drain.
            self._slot_users[slot] -= 1
        if status == "error":
            self._tenant_errors.append((tenant, payload))

    def _drain(self, w: int) -> None:
        while self._pending[w]:
            self._consume_async(w)

    def _fanout(self, tenant: object, msg_for: Callable[[int], tuple]
                ) -> list:
        """Synchronous fan-out: drain each worker's update acks, send, and
        gather one reply per worker (workers compute concurrently).

        Crash-safe: a dead worker never desyncs the survivors' FIFO reply
        streams — replies are only awaited from workers the send actually
        reached, and the first crash is re-raised once the survivors'
        replies are in.
        """
        self._check_open()
        crash: WorkerCrashError | None = None
        sent: list[int] = []
        for w in range(self.num_workers):
            try:
                self._drain(w)
                self._send(w, msg_for(w))
                sent.append(w)
            except WorkerCrashError as exc:
                crash = crash if crash is not None else exc
        payloads = []
        errors = []
        for w in sent:
            try:
                status, payload = self._recv(w)
            except WorkerCrashError as exc:
                crash = crash if crash is not None else exc
                continue
            if status == "error":
                errors.append(payload)
            else:
                payloads.append(payload)
        if crash is not None:
            raise crash
        if errors:
            raise TenantError(tenant, "; ".join(sorted(set(errors))))
        return payloads

    def _broadcast(self, tenant: object, msg: tuple) -> list:
        return self._fanout(tenant, lambda w: msg)

    def _check_open(self) -> None:
        if self._closed:
            raise ServeError("serve pool is closed")

    # -- tenant lifecycle --------------------------------------------------

    def open_tenant(
        self, tenant: object, factory: Callable[[], Detector]
    ) -> "ServeDetector":
        """Build the tenant's shard detectors on their owning workers.

        ``factory`` must be picklable and deterministic (seeded hash
        families), so every worker's replicas match the shards a serial
        :class:`~repro.engine.sharded.ShardedDetector` of the same count
        would build.  Returns the tenant's :class:`ServeDetector` handle.
        """
        self._check_open()
        if tenant in self._tenants:
            raise ServeError(f"tenant {tenant!r} already open")
        self._broadcast(tenant, ("open", tenant, factory))
        self._tenants[tenant] = factory
        return ServeDetector(self, tenant)

    def close_tenant(self, tenant: object) -> None:
        """Drop one tenant's detectors everywhere; siblings are untouched."""
        if self._closed:
            return
        self._tenants.pop(tenant, None)
        self._broadcast(tenant, ("close_tenant", tenant))

    @property
    def tenants(self) -> tuple:
        """The currently open tenant ids, in registration order."""
        return tuple(self._tenants)

    # -- crash recovery ----------------------------------------------------

    @property
    def dead_workers(self) -> tuple[int, ...]:
        """Indices of workers whose death has been detected (unrespawned)."""
        return tuple(sorted(self._dead))

    def kill_worker(self, w: int) -> None:
        """Crash-injection hook (tests/CI): SIGKILL one worker process.

        Deliberately does *not* mark the worker dead — the detection path
        (pipe EOF at the next send/recv) is part of what gets exercised.
        """
        self._check_open()
        if not 0 <= w < self.num_workers:
            raise ValueError(f"no such worker {w}")
        proc = self._procs[w]
        proc.kill()
        proc.join(timeout=5)

    def respawn_dead(self) -> tuple[int, ...]:
        """Replace every detected-dead worker; returns the revived indices.

        Each replacement re-attaches to the same shared ring and re-opens
        every registered tenant with its original factory — i.e. *empty*
        detectors.  Rebuilding their state (from a checkpoint plus replay)
        is the caller's responsibility; surviving workers' state is
        untouched.  Raises :class:`WorkerCrashError` if another worker
        dies during the respawn — the call is idempotent, so retry.
        """
        self._check_open()
        revived = tuple(sorted(self._dead))
        for w in revived:
            try:
                self._conns[w].close()
            except OSError:  # pragma: no cover - already closed
                pass
            proc = self._procs[w]
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - kill raced the join
                proc.terminate()
                proc.join(timeout=1)
            self._spawn_worker(w)
            self._dead.discard(w)
        for w in revived:
            for tenant, factory in self._tenants.items():
                self._send(w, ("open", tenant, factory))
            for tenant in self._tenants:
                status, payload = self._recv(w)
                if status == "error":
                    raise ServeError(
                        f"respawned worker {w} failed to reopen tenant: "
                        f"{payload}"
                    )
        return revived

    # -- the data path -----------------------------------------------------

    def update(self, tenant, keys, weights=None, ts=None) -> None:
        """Route one columnar batch to the tenant's shard workers.

        Asynchronous: returns once the slot is written and the bounds are
        shipped, so the caller overlaps the next chunk's partitioning with
        this chunk's detector updates.  Failures surface as
        :class:`TenantError` at the tenant's next synchronous command (or
        via :meth:`take_tenant_errors`).
        """
        self._check_open()
        keys, weights, ts = as_batch(keys, weights, ts)
        if keys.dtype.kind not in "iu":
            raise ServeError(
                "serve requires integer key columns for shared-memory "
                f"transport; got dtype {keys.dtype}"
            )
        n = len(keys)
        for start in range(0, n, self.chunk_capacity):
            end = min(n, start + self.chunk_capacity)
            self._ship(
                tenant, keys[start:end], weights[start:end],
                None if ts is None else ts[start:end],
            )

    def _ship(self, tenant, keys, weights, ts) -> None:
        n = len(keys)
        if n == 0:
            return
        order, bounds = shard_order(keys, self.num_shards)
        if order is not None:
            keys, weights = keys[order], weights[order]
            ts = None if ts is None else ts[order]
        slot = self._acquire_slot()
        kview, wview, tview = self.ring.views(slot, n)
        kview[:] = keys
        wview[:] = weights
        if ts is not None:
            tview[:] = ts
        msg = ("update", tenant, slot, bounds, n, ts is not None)
        crash: WorkerCrashError | None = None
        for w in range(self.num_workers):
            try:
                self._send(w, msg)
                self._pending[w].append((slot, tenant))
                self._slot_users[slot] += 1
                # Opportunistic non-blocking drain keeps ack queues shallow.
                while self._pending[w] and self._poll(w):
                    self._consume_async(w)
            except WorkerCrashError as exc:
                # Keep shipping to the survivors (their FIFO accounting
                # stays uniform), then surface the first crash.
                crash = crash if crash is not None else exc
        if crash is not None:
            raise crash

    def _acquire_slot(self) -> int:
        """A slot with no in-flight readers, blocking only when every slot
        is still being consumed (the workers are ``slots`` chunks behind)."""
        slots = self.ring.num_slots
        for probe in range(slots):
            s = (self._slot_cursor + probe) % slots
            if self._slot_users[s] == 0:
                self._slot_cursor = (s + 1) % slots
                return s
        s = self._slot_cursor  # oldest write; its acks arrive first
        while self._slot_users[s]:
            for w in range(self.num_workers):
                if any(slot == s for slot, _ in self._pending[w]):
                    self._consume_async(w)
                    break
            else:  # pragma: no cover - accounting invariant
                raise ServeError("slot accounting desync")
        self._slot_cursor = (s + 1) % slots
        return s

    def barrier(self) -> None:
        """Block until every shipped chunk is folded in (all acks drained).

        A worker that died after its last ack raises
        :class:`WorkerCrashError` here too: no chunk is in flight, but its
        shards' state is gone.
        """
        self._check_open()
        for w in range(self.num_workers):
            self._drain(w)
            if w not in self._dead and not self._procs[w].is_alive():
                self._mark_dead(w, "process exited")

    def take_tenant_errors(self) -> list[tuple[object, str]]:
        """Deferred async update failures collected since the last call."""
        errors, self._tenant_errors = self._tenant_errors, []
        return errors

    def _raise_deferred(self, tenant: object) -> None:
        """Raise the oldest deferred error for ``tenant``, keeping others."""
        keep = []
        mine = None
        for item in self._tenant_errors:
            if mine is None and item[0] == tenant:
                mine = item
            else:
                keep.append(item)
        self._tenant_errors = keep
        if mine is not None:
            raise TenantError(mine[0], mine[1])

    # -- the query/state path ----------------------------------------------

    def query(self, tenant, threshold: float, now: float | None = None
              ) -> dict[int, float]:
        """Union of per-shard reports, assembled in shard order (exactly
        the serial ``ShardedDetector.query`` iteration order)."""
        shard_reports: dict[int, dict[int, float]] = {}
        for payload in self._broadcast(
            tenant, ("query", tenant, threshold, now)
        ):
            shard_reports.update(payload)
        self._raise_deferred(tenant)
        out: dict[int, float] = {}
        for s in range(self.num_shards):
            out.update(shard_reports.get(s, {}))
        return out

    def reset(self, tenant) -> None:
        self._broadcast(tenant, ("reset", tenant))
        self._raise_deferred(tenant)

    def num_counters(self, tenant) -> int:
        return sum(self._broadcast(tenant, ("counters", tenant)))

    def save_tenant(self, tenant) -> dict[str, object]:
        """Freeze one tenant into the serial engine's checkpoint artifact.

        The artifact is byte-identical to
        ``ShardedDetector(factory, shards).save_state()``: restoring it
        there — or on a pool with any worker count and the same shard
        count — continues bit-identically.
        """
        shard_states: dict[int, dict[str, object]] = {}
        for payload in self._broadcast(tenant, ("save", tenant)):
            shard_states.update(payload)
        self._raise_deferred(tenant)
        return pack_shards([shard_states[s] for s in range(self.num_shards)])

    def load_tenant(self, tenant, state: dict[str, object]) -> None:
        """Restore a :meth:`save_tenant` / ``ShardedDetector`` artifact."""
        shards = unpack_shards(state, self.num_shards)
        self._fanout(tenant, lambda w: (
            "load", tenant, {s: shards[s] for s in self.owned[w]}
        ))

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut workers down and release the shared ring.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for w, conn in enumerate(self._conns):
            if conn is None:
                continue
            try:
                self._drain(w)
                conn.send(("shutdown",))
                conn.recv()  # the shutdown ack
            except (ServeError, OSError, EOFError, BrokenPipeError):
                pass
            finally:
                conn.close()
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - hung worker backstop
                proc.terminate()
                proc.join(timeout=1)
        self.ring.close()
        _LIVE_POOLS.discard(self)

    def __enter__(self) -> "ServePool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC ordering dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (
            f"ServePool(workers={self.num_workers}, "
            f"shards={self.num_shards}, "
            f"chunk_capacity={self.chunk_capacity}, "
            f"slots={self.ring.num_slots}, "
            f"tenants={len(self._tenants)})"
        )


class ServeDetector(Detector):
    """One tenant's handle on a :class:`ServePool`, as a `Detector`.

    Implements the full contract, so a plain :class:`repro.stream.
    StreamPipeline` drives it unchanged — updates stream to the pinned
    workers asynchronously, while queries, resets, and checkpoints are the
    natural barriers.  Obtained from :meth:`ServePool.open_tenant`.
    """

    def __init__(self, pool: ServePool, tenant: object) -> None:
        self.pool = pool
        self.tenant = tenant

    def update(self, key: int, weight: float = 1,
               ts: float | None = None) -> None:
        """One packet as a 1-row batch (serve is a batch transport)."""
        self.pool.update(
            self.tenant,
            np.asarray([int(key)], dtype=np.uint64),
            np.asarray([weight]),
            None if ts is None else np.asarray([ts], dtype=np.float64),
        )

    def update_batch(self, keys, weights=None, ts=None) -> None:
        self.pool.update(self.tenant, keys, weights, ts)

    def query(self, threshold: float, now: float | None = None
              ) -> dict[int, float]:
        return self.pool.query(self.tenant, threshold, now)

    def reset(self) -> None:
        self.pool.reset(self.tenant)

    def save_state(self) -> dict[str, object]:
        return self.pool.save_tenant(self.tenant)

    def load_state(self, state: dict[str, object]) -> None:
        self.pool.load_tenant(self.tenant, state)

    @property
    def num_counters(self) -> int:
        return self.pool.num_counters(self.tenant)

    def __repr__(self) -> str:
        return f"ServeDetector(tenant={self.tenant!r}, pool={self.pool!r})"
