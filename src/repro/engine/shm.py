"""Shared-memory slot ring for zero-copy columnar chunk handoff.

The serve engine (:mod:`repro.engine.serve`) keeps detector state pinned
in long-lived worker processes; what crosses the process boundary per
chunk must therefore be *data*, not detectors.  :class:`ChunkRing` is the
transport: one :class:`multiprocessing.shared_memory.SharedMemory` block
carved into ``num_slots`` fixed-capacity slots, each holding the three
columns every ``update_batch`` call consumes —

- ``keys``    — ``uint64`` (the canonical key dtype every vectorized
  hash already reduces to, so transporting ``uint32`` trace columns as
  ``uint64`` is bit-identical);
- ``weights`` — ``int64`` (the trace ``length`` dtype);
- ``ts``      — ``float64``.

The main process writes a partitioned chunk into a free slot and ships
only ``(slot, bounds)`` over a pipe; each worker holds numpy views over
the *same* physical pages and slices its shard ranges out with zero
copies.  Several slots make the ring double-buffered: the main process
partitions chunk ``k+1`` into the next slot while workers are still
reading chunk ``k`` from the previous one.  Slot reuse is the only
synchronization point — the pool tracks per-slot outstanding worker acks
and blocks only when every slot is still in flight.
"""

from __future__ import annotations

import numpy as np

try:  # pragma: no cover - exercised only where the stdlib lacks it
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None  # type: ignore[assignment]

#: Bytes per packet across the three slot columns (u64 + i64 + f64).
PACKET_BYTES = 24


class ChunkRing:
    """``num_slots`` shared-memory chunk slots of ``capacity`` packets.

    The creating process owns the block (``name=None``); workers attach to
    an existing ring by name.  Both sides build the same per-slot numpy
    views once, so per-chunk handoff costs no allocation, no pickling, and
    no copying on the worker side.
    """

    def __init__(
        self, capacity: int, num_slots: int = 4, *, name: str | None = None
    ) -> None:
        if shared_memory is None:  # pragma: no cover
            raise RuntimeError(
                "multiprocessing.shared_memory is unavailable on this "
                "platform; the serve engine cannot run"
            )
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if num_slots < 2:
            raise ValueError(
                f"need >= 2 slots for double buffering, got {num_slots}"
            )
        self.capacity = capacity
        self.num_slots = num_slots
        self._slot_bytes = capacity * PACKET_BYTES
        if name is None:
            self.shm = shared_memory.SharedMemory(
                create=True, size=num_slots * self._slot_bytes
            )
            self.owner = True
        else:
            self.shm = shared_memory.SharedMemory(name=name)
            self.owner = False
        views = []
        for slot in range(num_slots):
            base = slot * self._slot_bytes
            views.append((
                np.ndarray(capacity, dtype=np.uint64,
                           buffer=self.shm.buf, offset=base),
                np.ndarray(capacity, dtype=np.int64,
                           buffer=self.shm.buf, offset=base + 8 * capacity),
                np.ndarray(capacity, dtype=np.float64,
                           buffer=self.shm.buf, offset=base + 16 * capacity),
            ))
        self._views: list | None = views

    @property
    def name(self) -> str:
        """The shared-memory block name workers attach to."""
        return self.shm.name

    def views(
        self, slot: int, n: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The first ``n`` packets of ``slot`` as (keys, weights, ts) views."""
        if self._views is None:
            raise RuntimeError("ring is closed")
        if not 0 <= slot < self.num_slots:
            raise ValueError(f"slot must be in 0..{self.num_slots - 1}, "
                             f"got {slot}")
        if not 0 <= n <= self.capacity:
            raise ValueError(f"n must be in 0..{self.capacity}, got {n}")
        keys, weights, ts = self._views[slot]
        return keys[:n], weights[:n], ts[:n]

    def close(self) -> None:
        """Detach (and, for the owner, unlink) the shared block.

        Idempotent.  Dropping the numpy views first is required — the
        block cannot detach while buffer exports are alive.  A detector
        holding a stray slice reference would keep an export alive; in
        that case detaching is skipped (the memory is reclaimed when the
        process exits) but the owner still unlinks the name.
        """
        if self._views is None:
            return
        self._views = None
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - stray view kept an export
            pass
        if self.owner:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __del__(self) -> None:  # pragma: no cover - GC ordering dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (
            f"ChunkRing(capacity={self.capacity}, "
            f"num_slots={self.num_slots}, name={self.name!r}, "
            f"owner={self.owner})"
        )
