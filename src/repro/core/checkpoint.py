"""Versioned detector checkpoint artifacts and the one state codec.

A checkpoint captures a detector's *complete* mutable state — counter
tables, candidate maps, RNG states, lazily-decayed cell stamps, the
deterministically-seeded hash functions — so that restoring it into a
compatible instance and continuing the stream is bit-identical to never
having stopped (enforced registry-wide by
``tests/core/test_checkpoint_equivalence.py``).  The detector artifact is
a plain-dict envelope, so larger artifacts (the stream checkpoint) embed
it: ``{"schema": STATE_SCHEMA, "detector": "CountMinSketch", "payload":
encode(state)}``.

:func:`encode` / :func:`decode` are the one codec every state takes to
bytes — detector payloads, and whole artifacts on their way to disk::

    repro-hhh/state/v2\n       magic line
    <sha256 hex>\n             SHA-256 of every byte after this line
    <json header>\n            {"classes", "objects", "arrays", "root"}
    <raw array bytes>           each array's C-order bytes, in table order

``root`` is the state tree.  JSON scalars and lists stand for themselves;
every other node is a one-key object: ``{"tuple": [...]}``, ``{"dict":
[[key, value], ...]}`` (ordered pairs, so insertion order survives),
``{"deque": [maxlen, [...]]}``, ``{"scalar": [dtype, value]}`` for numpy
scalars, ``{"array": i}`` / ``{"bytes": i}`` for entry ``i`` of
``arrays`` (``[dtype, shape]``), and ``{"object": i}`` for entry ``i`` of
``objects`` (``[class index, {attribute: node}]``).  Arrays and objects
are numbered by identity, so one shared by many holders is stored once
and restored shared.  Objects are instances of classes defined in
already-imported ``repro.`` modules, rebuilt by assigning attributes —
nothing in a file names code to run.  Equal states encode to equal
bytes, so :meth:`repro.core.Detector.state_digest` hashes the payload.

:func:`write_checkpoint` / :func:`read_checkpoint` are the one way any
artifact reaches disk: an atomic write, and a read that turns an empty,
truncated, corrupt, foreign or wrong-schema file into
:class:`CheckpointError`.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from collections import deque
from pathlib import Path

import numpy as np

#: Version tag embedded in every detector-state artifact.
STATE_SCHEMA = "repro-hhh/detector-state/v2"

#: First line of every :func:`encode` output.
MAGIC = b"repro-hhh/state/v2\n"

_BODY = len(MAGIC) + 65  # magic, 64 hex digits and a newline


class CheckpointError(ValueError):
    """A malformed, mistyped, or wrong-version checkpoint artifact."""


_SCALARS = frozenset({type(None), bool, int, float, str})


def encode(obj: object) -> bytes:
    """Serialise a state tree into the checksummed layout above.

    Raises ``TypeError`` for anything the layout cannot hold (sets,
    functions, object-dtype arrays, instances of non-``repro`` classes).
    """
    classes: dict[tuple[str, str], int] = {}
    objects: list[list[object]] = []
    arrays: list[list[object]] = []
    buffers: list[bytes] = []
    memo: dict[int, dict[str, int]] = {}

    def buffer(dtype: str, shape: list[int], raw: bytes) -> int:
        arrays.append([dtype, shape])
        buffers.append(raw)
        return len(arrays) - 1

    def node(obj: object) -> object:
        kind = type(obj)
        if kind in _SCALARS:
            return obj
        if kind is list:
            return [node(item) for item in obj]
        if kind is dict:
            return {"dict": [
                [k if type(k) in _SCALARS else node(k),
                 v if type(v) in _SCALARS else node(v)]
                for k, v in obj.items()
            ]}
        if kind is tuple:
            return {"tuple": [node(item) for item in obj]}
        if kind is deque:
            return {"deque": [obj.maxlen, [node(item) for item in obj]]}
        if kind is bytes:
            return {"bytes": buffer("|u1", [len(obj)], obj)}
        if isinstance(obj, np.generic) and obj.dtype.kind in "biuf" \
                and obj.itemsize <= 8:
            return {"scalar": [obj.dtype.str, obj.item()]}
        if id(obj) in memo:
            return memo[id(obj)]
        if kind is np.ndarray:
            if obj.dtype.hasobject or np.dtype(obj.dtype.str) != obj.dtype:
                raise TypeError(f"cannot encode a {obj.dtype} array")
            ref = memo[id(obj)] = {
                "array": buffer(obj.dtype.str, list(obj.shape), obj.tobytes())
            }
            return ref
        if not kind.__module__.startswith("repro."):
            raise TypeError(
                f"cannot encode {kind.__module__}.{kind.__qualname__}"
            )
        ref = memo[id(obj)] = {"object": len(objects)}
        key = (kind.__module__, kind.__qualname__)
        entry: list[object] = [classes.setdefault(key, len(classes))]
        objects.append(entry)
        slots = [name for cls in kind.__mro__
                 for name in cls.__dict__.get("__slots__", ())
                 if hasattr(obj, name)]
        attrs = {name: getattr(obj, name) for name in slots}
        attrs.update(getattr(obj, "__dict__", {}))
        entry.append({name: node(value) for name, value in attrs.items()})
        return ref

    root = node(obj)
    header = json.dumps(
        {"classes": list(classes), "objects": objects, "arrays": arrays,
         "root": root},
        separators=(",", ":"),
        check_circular=False,  # the tree is built fresh, so acyclic
    ).encode()
    body = b"".join([header, b"\n", *buffers])
    return b"".join(
        [MAGIC, hashlib.sha256(body).hexdigest().encode(), b"\n", body]
    )


def _resolve(module: str, qualname: str) -> type:
    """A class defined in an already-imported ``repro.`` module."""
    cls = sys.modules.get(module) if module.startswith("repro.") else None
    for part in qualname.split("."):
        cls = getattr(cls, part, None)
    if not isinstance(cls, type) or cls.__module__ != module:
        raise ValueError(f"{module}.{qualname} is not a repro class")
    return cls


def decode(data: bytes) -> object:
    """Rebuild the state tree :func:`encode` wrote.

    Raises :class:`CheckpointError` when ``data`` lacks the magic line,
    fails its checksum (any flipped or missing byte), or does not parse.
    """
    if not isinstance(data, bytes) or not data.startswith(MAGIC):
        raise CheckpointError(
            f"not a {MAGIC.decode().strip()!r} payload (bad magic line)"
        )
    digest = hashlib.sha256(memoryview(data)[_BODY:]).hexdigest()
    if data[len(MAGIC):_BODY] != f"{digest}\n".encode():
        raise CheckpointError("checksum mismatch: truncated or corrupt data")
    try:
        end = data.index(b"\n", _BODY)
        header = json.loads(data[_BODY:end])
        arrays, offset = [], end + 1
        for dtype, shape in header["arrays"]:
            arrays.append(np.frombuffer(
                data, np.dtype(dtype), int(np.prod(shape)), offset
            ).reshape(shape).copy())
            offset += arrays[-1].nbytes
        classes = [_resolve(*pair) for pair in header["classes"]]
        objects = [classes[c].__new__(classes[c])
                   for c, _ in header["objects"]]
        tags = {
            "dict": lambda pairs: {
                k if type(k) in _SCALARS else node(k):
                v if type(v) in _SCALARS else node(v)
                for k, v in pairs
            },
            "tuple": lambda items: tuple(map(node, items)),
            "deque": lambda value: deque(map(node, value[1]), value[0]),
            "scalar": lambda value: np.dtype(value[0]).type(value[1]),
            "bytes": lambda index: arrays[index].tobytes(),
            "array": arrays.__getitem__,
            "object": objects.__getitem__,
        }

        def node(n: object) -> object:
            if type(n) is list:
                return list(map(node, n))
            if type(n) is not dict:
                return n
            ((tag, value),) = n.items()
            return tags[tag](value)

        # Children are numbered after their holders; filling them first
        # gives any object used as a dict key its attributes in time.
        for obj, (_, attrs) in zip(
            reversed(objects), reversed(header["objects"])
        ):
            for name, value in attrs.items():
                object.__setattr__(obj, name, node(value))
        return node(header["root"])
    except (ValueError, LookupError, TypeError, AttributeError,
            RecursionError) as exc:
        raise CheckpointError(
            f"malformed state payload ({type(exc).__name__}: {exc})"
        ) from exc


def pack_state(kind: type, payload: object) -> dict[str, object]:
    """Wrap ``payload`` in the versioned envelope for class ``kind``.

    The payload is encoded immediately, so the artifact is a deep
    snapshot: later updates to the live detector cannot leak into it.
    """
    return {
        "schema": STATE_SCHEMA,
        "detector": kind.__qualname__,
        "payload": encode(payload),
    }


def unpack_state(kind: type, state: object) -> object:
    """Validate an envelope against class ``kind`` and decode its payload."""
    if not isinstance(state, dict):
        raise CheckpointError(
            f"checkpoint must be a dict, got {type(state).__name__}"
        )
    if state.get("schema") != STATE_SCHEMA:
        raise CheckpointError(
            f"expected a {STATE_SCHEMA!r} artifact, got schema "
            f"{state.get('schema')!r}"
        )
    if state.get("detector") != kind.__qualname__:
        raise CheckpointError(
            f"checkpoint holds {state.get('detector')!r} state; cannot load "
            f"into {kind.__qualname__!r}"
        )
    return decode(state.get("payload"))  # type: ignore[arg-type]


def write_checkpoint(path: str | Path, artifact: object) -> None:
    """Encode ``artifact`` and write it to ``path`` atomically.

    The bytes go to a temporary file in the same directory, are fsynced,
    and then replace ``path`` in one ``os.replace``: a crash mid-write
    leaves the previous file (or none), never a torn one.  An artifact
    that cannot be encoded raises before any file is touched.
    """
    data = encode(artifact)
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_checkpoint(path: str | Path, schema: str) -> dict[str, object]:
    """Read a ``schema`` artifact written by :func:`write_checkpoint`.

    Raises :class:`CheckpointError` when the file is empty, truncated,
    corrupt, in another format, or holds anything but a ``schema``
    artifact; I/O failures propagate as :class:`OSError`.
    """
    try:
        artifact = decode(Path(path).read_bytes())
    except CheckpointError as exc:
        raise CheckpointError(f"not a {schema!r} file: {exc}") from None
    if not isinstance(artifact, dict) or artifact.get("schema") != schema:
        raise CheckpointError(f"not a {schema!r} artifact")
    return artifact
