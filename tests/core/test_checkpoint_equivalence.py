"""Checkpoint/restore must be lossless for every registered detector.

The streaming runtime trusts ``save_state``/``load_state`` to snapshot a
detector mid-stream and resume *bit-identically* — same estimates, same
reports, same RNG trajectory.  Parameterized over the whole registry so a
newly-registered detector is held to the contract automatically:

- save → load into a fresh instance → identical ``query``/estimates;
- resume-from-checkpoint ≡ uninterrupted run on a split stream (the
  second half is fed to both the original and the restored detector with
  identical batch boundaries, so float trajectories match exactly);
- the artifact is a deep snapshot: updating the live detector after
  saving must not leak into the checkpoint;
- mismatched detector classes, malformed envelopes and damaged payloads
  are rejected before the detector is touched;
- ``state_digest`` is equal for equal states and moves with one packet;
- checkpoint files are written atomically, and empty, truncated, corrupt,
  pickled or wrong-schema files raise ``CheckpointError``.
"""

import hashlib
import json
import pickle

import numpy as np
import pytest

from repro.core import (
    CheckpointError,
    STATE_SCHEMA,
    detector_names,
    get_spec,
    read_checkpoint,
    write_checkpoint,
)
from repro.core.checkpoint import MAGIC, decode, encode
from repro.engine import ShardedDetector

N_PACKETS = 600
SPLIT = 311  # deliberately not round: mid-burst, mid-window


@pytest.fixture(scope="module")
def stream():
    """A skewed, time-sorted (keys, weights, ts) packet stream."""
    rng = np.random.default_rng(23)
    universe = rng.integers(0, 2**32, size=48, dtype=np.uint64)
    ranks = np.arange(1, len(universe) + 1, dtype=np.float64)
    popularity = (1.0 / ranks) / (1.0 / ranks).sum()
    keys = rng.choice(universe, size=N_PACKETS, p=popularity)
    weights = rng.integers(40, 1500, size=N_PACKETS, dtype=np.int64)
    ts = np.sort(rng.uniform(0.0, 30.0, size=N_PACKETS))
    return keys, weights, ts


def _feed(detector, spec, keys, weights, ts):
    detector.update_batch(keys, weights, ts if spec.timestamped else None)


def _assert_same_outputs(spec, expected, got, keys, ts, label):
    now = float(ts[-1])
    probe_keys = np.unique(keys).tolist() + [111, 2**40 + 5]  # + absent
    for key in probe_keys:
        assert spec.estimate(got, key, now) == spec.estimate(
            expected, key, now
        ), f"{label}: estimate mismatch for key {key}"
    if spec.enumerable:
        threshold = 1.0
        if spec.timestamped:
            expected_report = expected.query(threshold, now)
            got_report = got.query(threshold, now)
        else:
            expected_report = expected.query(threshold)
            got_report = got.query(threshold)
        assert got_report == expected_report, label


@pytest.mark.parametrize("name", detector_names())
def test_save_load_round_trip(name, stream):
    """save → load into a fresh instance reproduces every output."""
    keys, weights, ts = stream
    spec = get_spec(name)
    original = spec.factory()
    _feed(original, spec, keys, weights, ts)

    restored = spec.factory()
    restored.load_state(original.save_state())
    _assert_same_outputs(spec, original, restored, keys, ts, name)


@pytest.mark.parametrize("name", detector_names())
def test_resume_equals_uninterrupted(name, stream):
    """Checkpoint mid-stream, restore, continue — bit-identical to never
    stopping (same batch boundaries on both paths)."""
    keys, weights, ts = stream
    spec = get_spec(name)

    uninterrupted = spec.factory()
    _feed(uninterrupted, spec, keys[:SPLIT], weights[:SPLIT], ts[:SPLIT])
    _feed(uninterrupted, spec, keys[SPLIT:], weights[SPLIT:], ts[SPLIT:])

    first_half = spec.factory()
    _feed(first_half, spec, keys[:SPLIT], weights[:SPLIT], ts[:SPLIT])
    checkpoint = first_half.save_state()

    resumed = spec.factory()
    resumed.load_state(checkpoint)
    _feed(resumed, spec, keys[SPLIT:], weights[SPLIT:], ts[SPLIT:])

    _assert_same_outputs(spec, uninterrupted, resumed, keys, ts, name)


@pytest.mark.parametrize("name", detector_names())
def test_checkpoint_is_a_deep_snapshot(name, stream):
    """Updates after save must not leak into the saved artifact."""
    keys, weights, ts = stream
    spec = get_spec(name)
    detector = spec.factory()
    _feed(detector, spec, keys[:SPLIT], weights[:SPLIT], ts[:SPLIT])
    checkpoint = detector.save_state()
    reference = spec.factory()
    reference.load_state(checkpoint)

    # Mutate the live detector heavily, then restore the old artifact.
    _feed(detector, spec, keys[SPLIT:], weights[SPLIT:], ts[SPLIT:])
    restored = spec.factory()
    restored.load_state(checkpoint)
    _assert_same_outputs(
        spec, reference, restored, keys[:SPLIT], ts[:SPLIT], name
    )


def _flip(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1:]


@pytest.mark.parametrize(
    "damage", ["bit-flip", "truncated", "other-class", "wrong-shape"]
)
@pytest.mark.parametrize("name", detector_names())
def test_damaged_state_is_rejected_before_restore(name, damage, stream):
    """A flipped byte, a truncated payload, another class's envelope and
    a payload of the wrong shape each raise ``CheckpointError`` and leave
    the detector exactly as it was."""
    keys, weights, ts = stream
    spec = get_spec(name)
    detector, reference, donor = spec.factory(), spec.factory(), spec.factory()
    for target in (detector, reference):
        _feed(target, spec, keys[:SPLIT], weights[:SPLIT], ts[:SPLIT])
    _feed(donor, spec, keys, weights, ts)
    state = donor.save_state()
    payload = state["payload"]
    other = "spacesaving" if type(detector).__name__ == "CountMinSketch" \
        else "countmin"
    damaged = {
        "bit-flip": lambda: dict(state, payload=_flip(payload,
                                                      len(payload) // 2)),
        "truncated": lambda: dict(state, payload=payload[:-1]),
        "other-class": lambda: get_spec(other).factory().save_state(),
        "wrong-shape": lambda: dict(state, payload=encode({"x": 1})),
    }[damage]()
    with pytest.raises(CheckpointError):
        detector.load_state(damaged)
    _assert_same_outputs(spec, reference, detector, keys, ts, name)


@pytest.mark.parametrize("name", detector_names())
def test_state_digest_tracks_the_state(name, stream):
    """Equal for an original and its restored-then-continued copy; moved
    by one more packet."""
    keys, weights, ts = stream
    spec = get_spec(name)
    original = spec.factory()
    _feed(original, spec, keys[:SPLIT], weights[:SPLIT], ts[:SPLIT])
    restored = spec.factory()
    restored.load_state(original.save_state())
    for target in (original, restored):
        _feed(target, spec, keys[SPLIT:], weights[SPLIT:], ts[SPLIT:])
    assert restored.state_digest() == original.state_digest()
    _feed(original, spec, np.asarray([2**40 + 5], dtype=np.uint64),
          np.asarray([1000]), ts[-1:])
    assert restored.state_digest() != original.state_digest()


def test_artifact_is_versioned():
    spec = get_spec("countmin")
    state = spec.factory().save_state()
    assert state["schema"] == STATE_SCHEMA
    assert state["detector"] == "CountMinSketch"
    assert isinstance(state["payload"], bytes)


def test_load_rejects_wrong_detector_class():
    countmin_state = get_spec("countmin").factory().save_state()
    with pytest.raises(CheckpointError, match="cannot load"):
        get_spec("spacesaving").factory().load_state(countmin_state)


def test_load_rejects_malformed_envelopes():
    detector = get_spec("countmin").factory()
    with pytest.raises(CheckpointError, match="schema"):
        detector.load_state({"schema": "bogus/v9", "payload": b""})
    with pytest.raises(CheckpointError):
        detector.load_state("not a dict")


def test_file_round_trip(tmp_path, stream):
    keys, weights, ts = stream
    spec = get_spec("countmin-hh")
    detector = spec.factory()
    _feed(detector, spec, keys, weights, ts)
    path = tmp_path / "detector.ckpt"
    write_checkpoint(path, detector.save_state())
    restored = spec.factory()
    restored.load_state(read_checkpoint(path, STATE_SCHEMA))
    _assert_same_outputs(spec, detector, restored, keys, ts, "file")
    assert [p.name for p in tmp_path.iterdir()] == ["detector.ckpt"]


@pytest.mark.parametrize("cut", ["empty", "10-bytes", "half"])
def test_damaged_checkpoint_file_raises_checkpoint_error(tmp_path, cut):
    """Empty, truncated and half-written files are CheckpointErrors, not
    whatever exception the unpickler happens to hit."""
    path = tmp_path / "detector.ckpt"
    write_checkpoint(path, get_spec("countmin-hh").factory().save_state())
    data = path.read_bytes()
    keep = {"empty": 0, "10-bytes": 10, "half": len(data) // 2}[cut]
    path.write_bytes(data[:keep])
    with pytest.raises(CheckpointError):
        read_checkpoint(path, STATE_SCHEMA)


def test_any_flipped_byte_in_a_file_is_a_checkpoint_error(tmp_path):
    path = tmp_path / "detector.ckpt"
    write_checkpoint(path, get_spec("bloom").factory().save_state())
    data = path.read_bytes()
    # Flip each byte in place and put it back: truncating and rewriting
    # the whole file per offset spends minutes in disk wait.
    with open(path, "r+b") as fh:
        for at, byte in enumerate(data):
            fh.seek(at)
            fh.write(bytes([byte ^ 0xFF]))
            fh.flush()
            with pytest.raises(CheckpointError):
                read_checkpoint(path, STATE_SCHEMA)
            fh.seek(at)
            fh.write(bytes([byte]))
    assert path.read_bytes() == data


def test_payload_naming_an_undefined_class_is_refused(stream):
    """A payload whose checksum holds but whose header names a class its
    ``repro.`` module does not define — as every hashed detector's
    checkpoint from before the array twins were folded into their hash
    functions names ``_AffineSlotArray`` — is refused, not migrated, and
    the detector is left as it was."""
    keys, weights, ts = stream
    spec = get_spec("countmin")
    detector, reference, donor = spec.factory(), spec.factory(), spec.factory()
    for target in (detector, reference):
        _feed(target, spec, keys[:SPLIT], weights[:SPLIT], ts[:SPLIT])
    _feed(donor, spec, keys, weights, ts)
    state = donor.save_state()
    # The body follows the magic line and the 64-hex-digit checksum line.
    body = state["payload"][len(MAGIC) + 65:]
    end = body.index(b"\n")
    header = json.loads(body[:end])
    at = header["classes"].index(["repro.hashing.families", "_AffineSlot"])
    header["classes"][at][1] = "_AffineSlotArray"
    body = json.dumps(header, separators=(",", ":")).encode() + body[end:]
    payload = b"".join(
        [MAGIC, hashlib.sha256(body).hexdigest().encode(), b"\n", body]
    )
    with pytest.raises(CheckpointError, match="another version") as refused:
        detector.load_state(dict(state, payload=payload))
    assert "_AffineSlotArray" in str(refused.value)
    _assert_same_outputs(spec, reference, detector, keys, ts, "old class")


def _resealed(state, edit):
    """``state`` with its payload decoded, edited in place and encoded
    again: the checksum holds."""
    payload = decode(state["payload"])
    edit(payload)
    return dict(state, payload=encode(payload))


@pytest.mark.parametrize("edit", ["added", "removed"])
@pytest.mark.parametrize(
    "name", ["spacesaving", "decayed-spacesaving", "rhhh", "sliding-spacesaving"]
)
def test_payload_with_another_table_layout_is_refused(name, edit, stream):
    """A payload whose checksum holds but whose nested flat table has
    one attribute more or one fewer than this version's, as every
    table-backed detector's checkpoint from before the dense-slot table
    has, is refused, not migrated, and the detector is left as it was.
    A fresh detector refuses it too, although a fresh sliding-window
    detector holds no bucket, and so no table, to compare with."""
    keys, weights, ts = stream
    spec = get_spec(name)
    detector, reference, donor = spec.factory(), spec.factory(), spec.factory()
    for target in (detector, reference):
        _feed(target, spec, keys[:SPLIT], weights[:SPLIT], ts[:SPLIT])
    _feed(donor, spec, keys, weights, ts)
    state = donor.save_state()

    def change(payload):
        holder = payload
        if "_levels" in payload:
            holder = vars(payload["_levels"][-1])
        elif "_buckets" in payload:
            holder = vars(payload["_buckets"][-1][1])
        table = holder["_table"]
        if edit == "added":
            table._tombstones = 0
        else:
            del table._free

    spec.factory().load_state(_resealed(state, lambda payload: None))
    changed = _resealed(state, change)
    with pytest.raises(CheckpointError, match="another version"):
        spec.factory().load_state(changed)
    with pytest.raises(CheckpointError, match="another version"):
        detector.load_state(changed)
    _assert_same_outputs(spec, reference, detector, keys, ts, edit)


def test_pickled_v1_file_is_refused_naming_v2(tmp_path):
    """There is no v1 reader: a pickle file is never unpickled."""
    path = tmp_path / "detector.ckpt"
    path.write_bytes(pickle.dumps({"schema": "repro-hhh/detector-state/v1"}))
    with pytest.raises(CheckpointError, match="detector-state/v2"):
        read_checkpoint(path, STATE_SCHEMA)


def test_failed_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "detector.ckpt"
    write_checkpoint(path, {"schema": STATE_SCHEMA})
    before = path.read_bytes()
    # The codec stores no functions; a lambda fails before any write.
    with pytest.raises(TypeError):
        write_checkpoint(path, {"schema": STATE_SCHEMA, "bad": lambda: 0})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["detector.ckpt"]


def test_checkpoint_file_schema_is_checked(tmp_path):
    path = tmp_path / "detector.ckpt"
    write_checkpoint(path, {"schema": "bogus/v9"})
    with pytest.raises(CheckpointError, match="detector-state"):
        read_checkpoint(path, STATE_SCHEMA)


@pytest.mark.parametrize(
    "name", ["countmin", "spacesaving", "misragries", "hashpipe", "univmon"]
)
def test_sharded_detector_round_trip(name, stream):
    """The sharded engine checkpoints shard-wise (runner excluded)."""
    keys, weights, ts = stream
    factory = get_spec(name).factory
    sharded = ShardedDetector(factory, 3)
    sharded.update_batch(keys, weights)

    restored = ShardedDetector(factory, 3)
    restored.load_state(sharded.save_state())
    for key in np.unique(keys)[:20].tolist():
        assert restored.estimate(key) == sharded.estimate(key)

    mismatched = ShardedDetector(factory, 4)
    with pytest.raises(CheckpointError, match="shards"):
        mismatched.load_state(sharded.save_state())


def test_flat_table_state_round_trips_bit_identically(stream):
    """Flat-table columns (keys, counts, occupancy) survive a checkpoint
    byte-for-byte, free stack and batch index and all."""
    keys, weights, ts = stream
    spec = get_spec("spacesaving")
    original = spec.factory()
    _feed(original, spec, keys, weights, ts)

    restored = spec.factory()
    restored.load_state(original.save_state())
    a, b = original._table, restored._table
    assert a.capacity == b.capacity
    assert a._free == b._free and a._unused == b._unused
    assert a._index is not None and b._index is not None
    for mine, theirs in zip(a._index, b._index):
        assert mine.tobytes() == theirs.tobytes()
    assert a.slot_of == b.slot_of
    np.testing.assert_array_equal(a.key_col, b.key_col)
    np.testing.assert_array_equal(a.state, b.state)
    for column in a.cols:
        assert a.cols[column].dtype == b.cols[column].dtype
        np.testing.assert_array_equal(a.cols[column], b.cols[column])
