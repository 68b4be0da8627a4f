"""``update_batch`` must be equivalent to repeated scalar ``update``.

Parameterized over the whole detector registry: two identically-configured
instances consume the same packet stream, one packet at a time vs in
columnar batches, and must produce the same estimates and the same reports.

Array-backed detectors take a truly vectorized path here (numpy hashing +
scatter updates); their equivalence is up to floating-point rounding for
the decayed structures (``np.exp`` vs incremental ``math.exp``), hence the
relative tolerance.  Pointer-based detectors replay scalar updates and
must match exactly — the tolerance just never triggers.
"""

import numpy as np
import pytest

from repro.core import detector_names, get_spec
from repro.sketch import RHHH, MisraGries, SpaceSaving
from repro.trace.spec import build_trace

N_PACKETS = 600
N_BATCHES = 4


@pytest.fixture(scope="module")
def stream():
    """A skewed, time-sorted (keys, weights, ts) packet stream."""
    rng = np.random.default_rng(7)
    # Skewed key popularity over an IPv4-ish key space.
    universe = rng.integers(0, 2**32, size=48, dtype=np.uint64)
    ranks = np.arange(1, len(universe) + 1, dtype=np.float64)
    popularity = (1.0 / ranks) / (1.0 / ranks).sum()
    keys = rng.choice(universe, size=N_PACKETS, p=popularity)
    weights = rng.integers(40, 1500, size=N_PACKETS, dtype=np.int64)
    ts = np.sort(rng.uniform(0.0, 30.0, size=N_PACKETS))
    return keys, weights, ts


@pytest.mark.parametrize("name", detector_names())
def test_batch_equals_scalar(name, stream):
    keys, weights, ts = stream
    spec = get_spec(name)
    scalar_det = spec.factory()
    batch_det = spec.factory()

    for key, weight, t in zip(keys.tolist(), weights.tolist(), ts.tolist()):
        if spec.timestamped:
            scalar_det.update(key, weight, t)
        else:
            scalar_det.update(key, weight)

    for chunk in np.array_split(np.arange(N_PACKETS), N_BATCHES):
        i, j = int(chunk[0]), int(chunk[-1]) + 1
        batch_det.update_batch(
            keys[i:j], weights[i:j], ts[i:j] if spec.timestamped else None
        )

    now = float(ts[-1])
    for key in np.unique(keys).tolist():
        expected = spec.estimate(scalar_det, key, now)
        got = spec.estimate(batch_det, key, now)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-9), (
            f"{name}: estimate mismatch for key {key}"
        )

    if spec.enumerable:
        if spec.timestamped:
            scalar_report = scalar_det.query(1.0, now)
            batch_report = batch_det.query(1.0, now)
        else:
            scalar_report = scalar_det.query(1.0)
            batch_report = batch_det.query(1.0)
        assert set(scalar_report) == set(batch_report), name
        for key, value in scalar_report.items():
            assert batch_report[key] == pytest.approx(value, rel=1e-9), name


@pytest.mark.parametrize(
    "name", ["countmin", "countsketch", "bloom", "counting-bloom",
             "tdbf", "ondemand-tdbf", "decayed-countmin",
             "spacesaving", "misragries", "hashpipe", "rhhh", "univmon",
             "countmin-hh", "decayed-spacesaving", "sliding-spacesaving",
             "td-hhh"]
)
def test_array_backed_detectors_override_batch(name):
    """The structures the ISSUE names as vectorized must not fall back to
    the generic scalar replay wholesale (their class overrides the hook)."""
    from repro.core.detector import Detector

    det = get_spec(name).factory()
    assert type(det).update_batch is not Detector.update_batch


# Small geometries keep tiny test batches above the dense-path threshold
# (cells // 128), so these tests exercise the vectorized code, not the
# scalar fallback.
SMALL_GEOMETRY = {
    "tdbf": {"cells": 256},
    "ondemand-tdbf": {"cells": 256},
    "decayed-countmin": {"width": 256},
}


@pytest.mark.parametrize("name", ["tdbf", "ondemand-tdbf", "decayed-countmin"])
def test_stale_and_unsorted_batch_matches_scalar(name):
    """Timestamps behind the structure's clock/stamps (reordered packets,
    or a batch older than a previous one) must follow the exact scalar
    late-packet semantics, not silently diverge."""
    spec = get_spec(name)
    scalar_det = spec.factory(**SMALL_GEOMETRY[name])
    batch_det = spec.factory(**SMALL_GEOMETRY[name])
    keys = np.array([3, 9, 3, 5, 9, 3], dtype=np.uint64)
    weights = np.array([100.0, 50.0, 25.0, 60.0, 10.0, 5.0])
    ts = np.array([10.0, 4.0, 12.0, 6.0, 11.0, 3.0])  # interleaved stale
    for key, weight, t in zip(keys.tolist(), weights.tolist(), ts.tolist()):
        scalar_det.update(key, weight, t)
    # Two batches: the second one is entirely behind the first.
    batch_det.update_batch(keys[:4], weights[:4], ts[:4])
    batch_det.update_batch(keys[4:], weights[4:], ts[4:])
    for key in (3, 5, 9):
        assert spec.estimate(batch_det, key, 13.0) == pytest.approx(
            spec.estimate(scalar_det, key, 13.0), rel=1e-9
        ), name


@pytest.mark.parametrize("name", ["tdbf", "ondemand-tdbf", "decayed-countmin"])
def test_empty_batch_is_noop(name):
    spec = get_spec(name)
    det = spec.factory()
    det.update(5, 100.0, 1.0)
    before = spec.estimate(det, 5, 2.0)
    det.update_batch(
        np.array([], dtype=np.uint64), np.array([]), np.array([])
    )
    assert spec.estimate(det, 5, 2.0) == before


@pytest.mark.parametrize("name", ["ondemand-tdbf", "decayed-countmin"])
def test_estimates_before_batch_end_match_scalar(name):
    """Querying at a `now` earlier than the batch's newest timestamp must
    see the same per-cell state as per-packet streaming (untouched cells
    and early-touched cells keep their own frames)."""
    spec = get_spec(name)
    scalar_det = spec.factory(**SMALL_GEOMETRY[name])
    batch_det = spec.factory(**SMALL_GEOMETRY[name])
    keys = np.array([3, 9], dtype=np.uint64)
    weights = np.array([100.0, 50.0])
    ts = np.array([1.0, 10.0])
    for key, weight, t in zip(keys.tolist(), weights.tolist(), ts.tolist()):
        scalar_det.update(key, weight, t)
    batch_det.update_batch(keys, weights, ts)
    for key in (3, 9, 77):
        for now in (1.0, 5.0, 10.0, 12.0):
            assert spec.estimate(batch_det, key, now) == pytest.approx(
                spec.estimate(scalar_det, key, now), rel=1e-9, abs=1e-12
            ), (name, key, now)


@pytest.mark.parametrize("name", ["ondemand-tdbf", "decayed-countmin"])
def test_extreme_time_span_batch_stays_finite(name):
    """A single batch spanning many decay horizons must underflow to zero
    like the scalar path — never produce inf/NaN from rescaling."""
    spec = get_spec(name)
    batch_det = spec.factory(**SMALL_GEOMETRY[name])
    scalar_det = spec.factory(**SMALL_GEOMETRY[name])
    keys = np.array([3, 9], dtype=np.uint64)
    weights = np.array([100.0, 50.0])
    ts = np.array([0.0, 10_000.0])  # ~1000 tau apart under the default law
    batch_det.update_batch(keys, weights, ts)
    for key, t in zip(keys.tolist(), ts.tolist()):
        scalar_det.update(key, weights[0], t) if key == 3 else \
            scalar_det.update(key, weights[1], t)
    for key in (3, 9):
        got = spec.estimate(batch_det, key, 10_000.0)
        assert np.isfinite(got)
        assert got == pytest.approx(
            spec.estimate(scalar_det, key, 10_000.0), abs=1e-12
        )


def test_timestamped_detectors_require_ts():
    """Continuous-time detectors must reject an omitted timestamp instead
    of silently assuming ts=0 (which would near-zero the contribution)."""
    for name in detector_names():
        spec = get_spec(name)
        if spec.timestamped:
            with pytest.raises(TypeError):
                spec.factory().update(1, 1)
            if spec.enumerable:
                with pytest.raises(TypeError):
                    spec.factory().query(1.0)


def test_countmin_float_weights_match_scalar():
    """Fractional weights: counters truncate identically on both paths and
    `total` accumulates the given weights identically on both paths."""
    spec = get_spec("countmin")
    scalar_det = spec.factory()
    batch_det = spec.factory()
    scalar_det.update(1, 2.7)
    batch_det.update_batch([1], [2.7])
    assert batch_det.total == pytest.approx(scalar_det.total)
    assert batch_det.estimate(1) == scalar_det.estimate(1)


@pytest.mark.parametrize(
    "name", ["countmin", "countsketch", "counting-bloom", "bloom",
             "ondemand-tdbf", "spacesaving"]
)
def test_negative_and_huge_keys_match_scalar(name):
    """Keys outside [0, 2^32) — e.g. keys built on Python's hash() —
    must land in the same cells on both paths (scalar hashing reduces mod
    2^64, matching the vectorized uint64 wrap)."""
    spec = get_spec(name)
    kwargs = SMALL_GEOMETRY.get(name, {})
    scalar_det = spec.factory(**kwargs)
    batch_det = spec.factory(**kwargs)
    keys = [-10, -10, -20, 5, 2**63 + 11, -(2**40)]
    weights = [1.0] * len(keys)
    ts = [float(i) for i in range(len(keys))]
    for key, weight, t in zip(keys, weights, ts):
        if spec.timestamped:
            scalar_det.update(key, weight, t)
        else:
            scalar_det.update(key, weight)
    batch_det.update_batch(
        np.asarray(keys, dtype=np.object_), weights,
        ts if spec.timestamped else None,
    )
    for key in set(keys):
        assert spec.estimate(batch_det, key, 10.0) == pytest.approx(
            spec.estimate(scalar_det, key, 10.0), rel=1e-9
        ), (name, key)


def test_countsketch_float_weights_match_scalar():
    """Fractional weights must truncate identically on both paths even
    where the per-row sign is negative."""
    spec = get_spec("countsketch")
    scalar_det = spec.factory()
    batch_det = spec.factory()
    keys = [1, 2, 3, 1, 2]
    weights = [2.7, 1.2, 5.0, 3.9, 0.4]
    for key, weight in zip(keys, weights):
        scalar_det.update(key, weight)
    batch_det.update_batch(keys, weights)
    for key in (1, 2, 3):
        assert batch_det.estimate(key) == scalar_det.estimate(key)
    assert batch_det.total == pytest.approx(scalar_det.total)


def test_single_batch_equals_many_batches():
    """Batch boundaries must not matter (decayed re-representation check)."""
    spec = get_spec("ondemand-tdbf")
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 2**32, size=300, dtype=np.uint64)
    weights = rng.integers(40, 1500, size=300).astype(np.float64)
    ts = np.sort(rng.uniform(0.0, 20.0, size=300))
    one = spec.factory(cells=512)
    many = spec.factory(cells=512)
    one.update_batch(keys, weights, ts)
    for chunk in np.array_split(np.arange(300), 7):
        i, j = int(chunk[0]), int(chunk[-1]) + 1
        many.update_batch(keys[i:j], weights[i:j], ts[i:j])
    for key in np.unique(keys)[:50].tolist():
        assert many.estimate(key, 21.0) == pytest.approx(
            one.estimate(key, 21.0), rel=1e-9, abs=1e-9
        )


COUNTER_TABLES = {
    "spacesaving-64": lambda: SpaceSaving(64),
    "spacesaving-1024": lambda: SpaceSaving(1024),
    "misragries-64": lambda: MisraGries(64),
    "misragries-1024": lambda: MisraGries(1024),
    "rhhh-sampled": lambda: RHHH(counters_per_level=64),
    "rhhh-every-level": lambda: RHHH(counters_per_level=64,
                                     sample_levels=False),
}


def _counter_tables(det):
    """Every counter table a detector holds (one per level for RHHH)."""
    return det._levels if isinstance(det, RHHH) else [det]


def _errors(det):
    errors = det._table.cols["errors"]
    return {key: float(errors[slot]) for key, slot in det._table.slot_of.items()}


@pytest.fixture(scope="module")
def caida_day():
    return build_trace("caida:day=1,duration=20")


@pytest.fixture(scope="module")
def per_packet(caida_day):
    """Each counter-table detector after per-packet ``update``."""
    out = {}
    for name, make in COUNTER_TABLES.items():
        det = make()
        for key, weight in zip(caida_day.src.tolist(),
                               caida_day.length.tolist()):
            det.update(key, weight)
        out[name] = det
    return out


@pytest.mark.parametrize("chunk", [100, 1000, 8192])
@pytest.mark.parametrize("name", sorted(COUNTER_TABLES))
def test_counter_tables_batch_equals_scalar_exactly(name, chunk, caida_day,
                                                    per_packet):
    """On a stream that overfills the table, batches (admission-free
    prefix scattered, the rest replayed) leave exactly the counters, and
    Space-Saving's errors, that per-packet ``update`` leaves."""
    det = COUNTER_TABLES[name]()
    for start in range(0, len(caida_day), chunk):
        det.update_batch(caida_day.src[start:start + chunk],
                         caida_day.length[start:start + chunk])
    reference = per_packet[name]
    assert det.total == reference.total
    for got, expected in zip(_counter_tables(det),
                             _counter_tables(reference)):
        assert got.items() == expected.items()
        assert got.total == expected.total
        if isinstance(got, SpaceSaving):
            assert _errors(got) == _errors(expected)
