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

        The default captures the instance ``__dict__`` (counter tables,
        candidate maps, RNG states, hash functions — every detector in the
        registry pickles whole), deep-copied via pickle so later updates
        never leak into the snapshot.  Restoring the artifact with
        :meth:`load_state` and continuing the stream is bit-identical to
        never having stopped; ``tests/core/test_checkpoint_equivalence.py``
        enforces this registry-wide.  Composite detectors that hold
        non-picklable runtime objects (the sharded engine's process-pool
        runner) override both methods to snapshot only detector state.
        """
        from repro.core.checkpoint import pack_state

        return pack_state(self, dict(self.__dict__))

    def load_state(self, state: dict[str, object]) -> None:
        """Restore a :meth:`save_state` artifact in place.

        Validates the artifact's schema version and detector class first,
        so loading mismatched state raises instead of corrupting counters.
        """
        from repro.core.checkpoint import unpack_state

        payload = unpack_state(self, state)
        self.__dict__.clear()
        self.__dict__.update(payload)  # type: ignore[arg-type]

    def state_digest(self) -> str:
        """A short stable hash of the complete detector state.

        SHA-256 over a *canonical* walk of the :meth:`save_state` payload
        (schema tag, detector class, then every counter table, candidate
        map, and hash-function parameter by structure and value).  This is
        the cheap pre-check the equivalence fuzz harness (:mod:`repro.fuzz`)
        runs before diffing full emission sequences: plans promised
        bit-identical (checkpoint/resume vs uninterrupted, serve vs serial)
        must converge to the same digest, and a mismatch pins the
        divergence to detector state even when every emitted report
        happens to agree.

        The walk deliberately does *not* hash raw pickle bytes: pickle
        memoization encodes object-identity accidents (e.g. interned
        ``__dict__`` key strings shared across sub-objects in a fresh
        detector but distinct after a restore round-trip) that are
        observationally meaningless.  Dict *insertion order* is hashed —
        it is observable through ``query`` report order.
        """
        import hashlib

        state = self.save_state()
        h = hashlib.sha256()
        _canonical_update(h, state)
        return h.hexdigest()

    @property
    @abc.abstractmethod
    def num_counters(self) -> int:
        """Counters allocated (for resource accounting)."""


def _canonical_update(h, obj, _depth: int = 0) -> None:
    """Feed ``obj`` into hash ``h`` by structure and value, not identity.

    Handles the types detector state is made of (numpy arrays, dicts,
    sequences, primitives, plain-``__dict__`` objects such as hash
    families and flat tables); nested ``repro-hhh/detector-state/v1``
    envelopes (the sharded engine's payload) are unpickled and walked
    rather than hashed as opaque bytes, so the digest stays canonical
    through composition.  Unknown leaves fall back to their own pickle
    (fresh memo, so the cross-object identity accidents cannot leak in).
    """
    import pickle
    import struct

    if _depth > 50:  # cycles / pathological nesting: opaque fallback
        h.update(b"deep")
        h.update(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
        return
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, bool):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, int):
        h.update(b"i" + str(obj).encode())
    elif isinstance(obj, float):
        h.update(b"f" + struct.pack("<d", obj))
    elif isinstance(obj, str):
        h.update(b"s" + obj.encode())
    elif isinstance(obj, bytes):
        h.update(b"b" + obj)
    elif isinstance(obj, np.ndarray):
        h.update(b"a" + str(obj.dtype).encode() + str(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, np.generic):
        h.update(b"g" + str(obj.dtype).encode() + obj.tobytes())
    elif isinstance(obj, dict):
        from repro.core.checkpoint import STATE_SCHEMA

        if obj.get("schema") == STATE_SCHEMA and isinstance(
            obj.get("payload"), bytes
        ):
            h.update(b"E" + str(obj.get("detector")).encode())
            _canonical_update(
                h, pickle.loads(obj["payload"]), _depth + 1
            )
            return
        h.update(b"{")
        for key, value in obj.items():
            _canonical_update(h, key, _depth + 1)
            h.update(b":")
            _canonical_update(h, value, _depth + 1)
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[" if isinstance(obj, list) else b"(")
        for item in obj:
            _canonical_update(h, item, _depth + 1)
        h.update(b"]")
    elif isinstance(obj, (set, frozenset)):
        import hashlib

        # Order-insensitive: combine sorted per-element digests.
        parts = []
        for item in obj:
            sub = hashlib.sha256()
            _canonical_update(sub, item, _depth + 1)
            parts.append(sub.digest())
        h.update(b"<")
        for part in sorted(parts):
            h.update(part)
        h.update(b">")
    else:
        h.update(b"O" + type(obj).__qualname__.encode())
        try:
            attrs = vars(obj)
        except TypeError:
            h.update(
                pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
            )
        else:
            _canonical_update(h, attrs, _depth + 1)
