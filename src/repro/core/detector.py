"""The unified streaming-detector contract.

Every detector in :mod:`repro.sketch` and :mod:`repro.decay` — whether a
flat counter array, a d-stage pipeline, or a lazily-decayed cell table —
implements this one interface, so drivers, experiments, the CLI, and every
future scaling layer (sharding, async, multi-backend) program against a
single surface:

- ``update(key, weight, ts)`` — account one packet.  Window-bound sketches
  ignore ``ts``; continuous-time (decayed) detectors require it.
- ``update_batch(keys, weights, ts)`` — account a *columnar batch* of
  packets (numpy arrays, time-sorted as traces are).  Array-backed
  structures override this with a truly vectorized scatter-update fast
  path; the base-class fallback replays scalar updates in order and is
  therefore exactly equivalent for every detector.
- ``query(threshold, now)`` — enumerate items at or above a threshold
  (detectors that can only answer point queries leave the default, which
  raises).
- ``reset()`` — restore the freshly-constructed state in place, keeping
  the (deterministically seeded) hash functions.  This is what the
  disjoint-window protocol calls at boundaries.
- ``merge(other)`` — fold another instance of the same shape into this
  one, for sharded/parallel deployments.  Only structures with a sound
  merge define it.
- ``num_counters`` — resource accounting, as before.

The batch path is the performance story: a 20k-packet window costs one
vectorized hash per row plus one ``np.add.at`` scatter instead of 20k
Python-level calls.  Equivalence between the two paths is enforced by
``tests/core/test_batch_equivalence.py`` across the whole registry.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np


_MASK64 = (1 << 64) - 1


def as_uint64_keys(keys: np.ndarray) -> np.ndarray:
    """Canonicalise a key column for vectorized hashing.

    The scalar hash functions reduce any Python int modulo 2^64, so the
    uint64 wrap applied here (two's-complement for negative keys) lands
    every key in the same cell on both paths.
    """
    keys = np.asarray(keys)
    if keys.dtype == np.uint64:
        return keys
    if keys.dtype.kind in "iu":
        return keys.astype(np.uint64)
    # Object columns (arbitrary-precision Python ints, e.g. negative keys).
    return np.asarray(
        [int(key) & _MASK64 for key in keys.tolist()], dtype=np.uint64
    )


def ensure_nonnegative_weights(weights: np.ndarray) -> np.ndarray:
    """Shared batch-path guard mirroring scalar ``update`` validation."""
    weights = np.asarray(weights)
    if np.any(weights < 0):
        raise ValueError("negative weight in batch")
    return weights


def as_batch(
    keys: Sequence[int] | np.ndarray,
    weights: Sequence[float] | np.ndarray | None,
    ts: Sequence[float] | np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Normalise ``update_batch`` arguments to aligned numpy columns.

    ``weights`` defaults to all-ones.  ``ts`` stays ``None`` when absent so
    window-bound detectors never pay for a timestamp column.
    """
    keys = np.asarray(keys)
    n = keys.shape[0]
    if weights is None:
        weights = np.ones(n, dtype=np.int64)
    else:
        weights = np.asarray(weights)
        if weights.shape[0] != n:
            raise ValueError(
                f"weights length {weights.shape[0]} != keys length {n}"
            )
    if ts is not None:
        ts = np.asarray(ts, dtype=np.float64)
        if ts.shape[0] != n:
            raise ValueError(f"ts length {ts.shape[0]} != keys length {n}")
    return keys, weights, ts


class Detector(abc.ABC):
    """Abstract base class all streaming detectors implement."""

    @abc.abstractmethod
    def update(self, key: int, weight: float = 1,
               ts: float | None = None) -> None:
        """Account ``weight`` for ``key`` (at time ``ts`` where relevant).

        Window-bound sketches ignore ``ts``; continuous-time detectors
        require it and raise ``TypeError`` when it is omitted rather than
        silently assuming a time."""

    def update_batch(
        self,
        keys: Sequence[int] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
        ts: Sequence[float] | np.ndarray | None = None,
    ) -> None:
        """Account a columnar batch of packets.

        The generic implementation replays scalar :meth:`update` calls in
        order, so it is exactly equivalent to per-packet streaming for any
        detector; array-backed subclasses override it with vectorized
        scatter updates.
        """
        keys, weights, ts = as_batch(keys, weights, ts)
        update = self.update
        if ts is None:
            for key, weight in zip(keys.tolist(), weights.tolist()):
                update(key, weight)
        else:
            for key, weight, t in zip(
                keys.tolist(), weights.tolist(), ts.tolist()
            ):
                update(key, weight, t)

    def query(
        self, threshold: float, now: float | None = None
    ) -> dict[int, float]:
        """Items whose current estimate reaches ``threshold``.

        Continuous-time detectors evaluate estimates at ``now``; detectors
        that cannot enumerate items (plain Count-Min, Bloom filters) do not
        override this default.
        """
        raise NotImplementedError(
            f"{type(self).__name__} answers point queries only; it cannot "
            "enumerate items"
        )

    @abc.abstractmethod
    def reset(self) -> None:
        """Restore the freshly-constructed state (hash functions kept)."""

    def merge(self, other: "Detector") -> None:
        """Fold ``other`` (same type and geometry) into this detector."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support merging"
        )

    def save_state(self) -> dict[str, object]:
        """Snapshot the complete mutable state as a versioned artifact.

        The default encodes the instance ``__dict__`` (counter tables,
        candidate maps, RNG states, hash functions) with the state codec
        of :mod:`repro.core.checkpoint`, a deep snapshot that later
        updates never leak into.  Restoring the artifact with
        :meth:`load_state` and continuing the stream is bit-identical to
        never having stopped; ``tests/core/test_checkpoint_equivalence.py``
        enforces this registry-wide.  Composite detectors that hold
        runtime objects (the sharded engine's process-pool runner)
        override both methods to snapshot only detector state.
        """
        from repro.core.checkpoint import pack_state

        return pack_state(type(self), dict(self.__dict__))

    def load_state(self, state: dict[str, object]) -> None:
        """Restore a :meth:`save_state` artifact in place.

        Validates the artifact's schema, detector class and checksum, and
        that the payload holds exactly this detector's attributes, before
        touching any state: a mismatched or damaged artifact raises
        :class:`repro.core.checkpoint.CheckpointError` and leaves the
        detector as it was.
        """
        from repro.core.checkpoint import CheckpointError, unpack_state

        payload = unpack_state(type(self), state)
        if not isinstance(payload, dict) or set(payload) != set(self.__dict__):
            raise CheckpointError(
                f"checkpoint payload does not hold the attributes of "
                f"{type(self).__qualname__!r}"
            )
        self.__dict__.clear()
        self.__dict__.update(payload)

    def state_digest(self) -> str:
        """A short stable hash of the complete detector state.

        The SHA-256 of the :meth:`save_state` payload: the state codec
        writes equal states as equal bytes (dict insertion order
        included — it is observable through ``query`` report order).
        This is the cheap pre-check the equivalence fuzz harness
        (:mod:`repro.fuzz`) runs before diffing full emission sequences:
        plans promised bit-identical (checkpoint/resume vs uninterrupted,
        serve vs serial) must converge to the same digest, and a mismatch
        pins the divergence to detector state even when every emitted
        report happens to agree.
        """
        import hashlib

        return hashlib.sha256(self.save_state()["payload"]).hexdigest()

    @property
    @abc.abstractmethod
    def num_counters(self) -> int:
        """Counters allocated (for resource accounting)."""

