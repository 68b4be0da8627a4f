"""Versioned detector checkpoint artifacts.

A checkpoint captures a detector's *complete* mutable state — counter
tables, candidate maps, RNG states, lazily-decayed cell stamps, the
deterministically-seeded hash functions — so that restoring it into a
compatible instance and continuing the stream is bit-identical to never
having stopped.  That is the contract the streaming runtime
(:mod:`repro.stream`) relies on to snapshot a pipeline mid-stream and
resume it later, and it is enforced registry-wide by
``tests/core/test_checkpoint_equivalence.py``.

The artifact is a small versioned envelope::

    {
      "schema": "repro-hhh/detector-state/v1",
      "detector": "CountMinSketch",
      "payload": b"..."        # pickled state snapshot
    }

``payload`` is a pickle of the detector's state (every detector in the
registry pickles whole since the hash families became picklable callables
— see :mod:`repro.hashing.families`).  The envelope stays a plain dict so
callers can embed it in larger artifacts (the stream checkpoint does).

:func:`write_checkpoint` / :func:`read_checkpoint` are the one way any
artifact — detector state or stream checkpoint — reaches disk: an atomic
write, and a read that turns an empty, truncated, garbled or wrong-schema
file into :class:`CheckpointError`.

:meth:`repro.core.Detector.save_state` snapshots into this envelope;
:meth:`repro.core.Detector.load_state` validates the schema *and* the
detector class before restoring, so loading a Count-Min checkpoint into a
Space-Saving raises instead of silently corrupting state.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.detector import Detector

#: Version tag embedded in every detector-state artifact.
STATE_SCHEMA = "repro-hhh/detector-state/v1"


class CheckpointError(ValueError):
    """A malformed, mistyped, or wrong-version checkpoint artifact."""


def pack_state(detector: "Detector", payload: object) -> dict[str, object]:
    """Wrap ``payload`` in the versioned envelope for ``detector``.

    The payload is pickled immediately, so the artifact is a deep snapshot:
    later updates to the live detector cannot leak into it.
    """
    return {
        "schema": STATE_SCHEMA,
        "detector": type(detector).__qualname__,
        "payload": pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
    }


def unpack_state(detector: "Detector", state: object) -> object:
    """Validate an envelope against ``detector`` and return its payload."""
    if not isinstance(state, dict):
        raise CheckpointError(
            f"checkpoint must be a dict, got {type(state).__name__}"
        )
    schema = state.get("schema")
    if schema != STATE_SCHEMA:
        raise CheckpointError(
            f"unknown checkpoint schema {schema!r}; expected {STATE_SCHEMA!r}"
        )
    saved = state.get("detector")
    expected = type(detector).__qualname__
    if saved != expected:
        raise CheckpointError(
            f"checkpoint holds {saved!r} state; cannot load into {expected!r}"
        )
    payload = state.get("payload")
    if not isinstance(payload, bytes):
        raise CheckpointError("checkpoint payload must be bytes")
    return pickle.loads(payload)


def write_checkpoint(path: str | Path, artifact: dict[str, object]) -> None:
    """Write a checkpoint artifact to ``path`` atomically.

    The pickled bytes go to a temporary file in the same directory, are
    fsynced, and then replace ``path`` in one ``os.replace``: a crash
    mid-write leaves the previous file (or none), never a torn one.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            pickle.dump(artifact, fh, protocol=pickle.HIGHEST_PROTOCOL)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_checkpoint(path: str | Path, schema: str) -> dict[str, object]:
    """Read a ``schema`` artifact written by :func:`write_checkpoint`.

    Raises :class:`CheckpointError` when the file is empty, truncated or
    garbled, or holds anything but a ``schema`` artifact; I/O failures
    propagate as :class:`OSError`.
    """
    data = Path(path).read_bytes()
    try:
        artifact = pickle.loads(data)
    except Exception as exc:
        # The pickle docs promise no closed set of exceptions for damaged
        # input (EOFError for an empty file, UnpicklingError,
        # AttributeError, ImportError, IndexError, ...); any of them means
        # the file is unreadable.
        raise CheckpointError(
            "truncated or garbled checkpoint file "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    if not isinstance(artifact, dict) or artifact.get("schema") != schema:
        raise CheckpointError(f"not a {schema!r} artifact")
    return artifact
