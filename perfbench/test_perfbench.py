"""Self-tests of the benchmark's own logic.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from perfbench import metrics, run
from perfbench.measure import (
    CatchupTracker,
    LeakCheck,
    best,
    closing_chunk,
    count_failed,
    emission_record,
    shm_segments,
    tail_quantile,
)
from perfbench.workloads import WORKLOADS, Round

ROOT = Path(__file__).resolve().parents[1]


# -- emission to closing chunk ---------------------------------------------------

def _stream_emissions(ts: list[float], chunk: int, emit: str):
    from repro.core import make_detector
    from repro.stream import StreamPipeline, TraceSource, parse_emission_policy
    from repro.trace.container import Trace

    n = len(ts)
    trace = Trace(
        np.asarray(ts, dtype=np.float64),
        np.arange(1, n + 1, dtype=np.uint32),
        np.ones(n, dtype=np.uint32),
        np.full(n, 100, dtype=np.int64),
        np.zeros(n, dtype=np.uint16),
        np.zeros(n, dtype=np.uint16),
        np.full(n, 6, dtype=np.uint8),
    )
    pipeline = StreamPipeline(make_detector("spacesaving"),
                              parse_emission_policy(emit), phi=0.5)
    return list(pipeline.process(TraceSource(trace), chunk))


def test_closing_chunk_mid_chunk():
    assert closing_chunk(3 * 8192 + 5, 8192, partial=False) == 3


def test_closing_chunk_on_chunk_edge_is_the_next_chunk():
    # Packets 0..3 are chunk 0 (t = 0.0 .. 1.5); the 2 s boundary falls
    # exactly between packet 3 and packet 4, the first packet of chunk 1.
    emissions = _stream_emissions([0.5 * i for i in range(10)], 4, "2s")
    first = emissions[0]
    assert first.end_packet == 4 and not first.partial
    assert closing_chunk(first.end_packet, 4, first.partial) == 1
    for emission in emissions:
        if not emission.partial:
            # The chunk the boundary was crossed in is the one the
            # pipeline reports the emission firing during.
            assert closing_chunk(emission.end_packet, 4, False) \
                == emission.chunk_index


def test_closing_chunk_of_a_partial_flush_is_none():
    emissions = _stream_emissions([0.5 * i for i in range(10)], 4, "2s")
    assert emissions[-1].partial
    last = emissions[-1]
    assert closing_chunk(last.end_packet, 4, last.partial) is None


# -- crash catch-up ----------------------------------------------------------------

def test_catchup_waits_for_recovery_and_every_tenant():
    tracker = CatchupTracker()
    tracker.killed(10.0, {"a": 100, "b": 200}, recoveries=0)
    # Ahead of the pre-kill offsets, but the crash is not noticed yet.
    assert tracker.turn(11.0, {"a": 150, "b": 250}, recoveries=0) is None
    # Recovered: rewound to the checkpoints.
    assert tracker.turn(12.0, {"a": 50, "b": 180}, recoveries=1) is None
    # One tenant caught up, the other still replaying.
    assert tracker.turn(13.0, {"a": 100, "b": 199}, recoveries=1) is None
    assert tracker.turn(14.0, {"a": 108, "b": 200}, recoveries=1) == 4.0
    assert tracker.turn(15.0, {"a": 200, "b": 300}, recoveries=1) is None
    assert tracker.samples == [4.0]


def test_catchup_a_second_kill_replaces_the_pending_one():
    tracker = CatchupTracker()
    tracker.killed(1.0, {"a": 10}, recoveries=0)
    tracker.killed(2.0, {"a": 20}, recoveries=0)
    assert tracker.turn(3.0, {"a": 15}, recoveries=1) is None
    assert tracker.turn(4.0, {"a": 20}, recoveries=1) == 2.0
    assert not tracker.pending


def test_catchup_never_completes_for_a_failed_tenant():
    tracker = CatchupTracker()
    tracker.killed(1.0, {"a": 10, "b": 10}, recoveries=0)
    assert tracker.turn(2.0, {"a": 30, "b": -1}, recoveries=1) is None


# -- leaks ---------------------------------------------------------------------------

def test_leak_check_flags_an_unclosed_pool():
    from repro.engine.serve import ServePool

    check = LeakCheck()
    pool = ServePool(1, 1, chunk_capacity=16)
    ring = pool.ring.name.lstrip("/")
    try:
        problems = check.check()
        assert any("still alive" in p for p in problems), problems
        assert any(ring in p and "survived" in p for p in problems), problems
        # The check cleans up what it found.
        assert multiprocessing.active_children() == []
        assert ring not in shm_segments()
    finally:
        pool.close()


def test_leak_check_passes_a_closed_pool():
    from repro.engine.serve import ServePool

    check = LeakCheck()
    with ServePool(1, 1, chunk_capacity=16):
        pass
    assert check.check() == []


# -- emission comparison ---------------------------------------------------------------

class _Emission:
    def __init__(self, index, report, partial=False):
        from repro.windows.schedule import Window

        self.index = index
        self.window = Window(float(index), float(index + 1), index)
        self.report = report
        self.packets = self.bytes = 10
        self.start_packet, self.end_packet = 10 * index, 10 * index + 10
        self.partial = partial


def _recs(*reports):
    return [emission_record(_Emission(i, r)) for i, r in enumerate(reports)]


def test_count_failed_exact_includes_report_order():
    want = _recs({1: 5.0, 2: 3.0}, {3: 1.0})
    assert count_failed(want, want) == 0
    assert count_failed(_recs({2: 3.0, 1: 5.0}, {3: 1.0}), want) == 1
    assert count_failed(want[:1], want) == 1                  # missing
    assert count_failed(want + want[1:], want) == 1           # duplicated
    assert count_failed(want + _recs({}, {}, {9: 1.0})[2:], want) == 1
    assert count_failed([], want) == 2


def test_count_failed_with_tolerance():
    want = _recs({1: 1.0, 2: 2.0})
    near = _recs({2: 2.0 * (1 + 1e-12), 1: 1.0})
    assert count_failed(near, want, rel=1e-9) == 0
    assert count_failed(_recs({1: 1.1, 2: 2.0}), want, rel=1e-9) == 1
    assert count_failed(_recs({1: 1.0}), want, rel=1e-9) == 1


def test_tail_quantile_leaves_ten_samples_beyond():
    assert tail_quantile(1000) == 99.0
    assert tail_quantile(5000) == 99.0
    assert tail_quantile(100) == pytest.approx(90.0)
    assert tail_quantile(19) is None


def test_best_round_is_the_lowest_or_the_highest():
    assert best([3.0, 1.0, 2.0], "lower") == 1.0
    assert best([3.0, 1.0, 2.0], "higher") == 3.0
    with pytest.raises(ValueError):
        best([], "lower")


def _round(wall_s: float, packets: int, latency_s: list[float]) -> Round:
    return Round(key="all", traced=False, setup_s=0.01, wall_s=wall_s,
                 packets=packets, latency_s=latency_s,
                 latency_events=len(latency_s), memory_mb=50.0)


def test_end_to_end_takes_the_best_of_repeated_rounds():
    fast = _round(1.0, 1000, [0.010] * 20)
    slow = _round(2.0, 1000, [0.030] * 20)
    values, _ = metrics.end_to_end([slow, fast, slow], repeated=True)
    assert values["throughput_pps"] == pytest.approx(1000.0)
    assert values["emit_latency_p50_ms"] == pytest.approx(10.0)
    assert values["emit_latency_tail_ms"] == pytest.approx(10.0)


def test_end_to_end_takes_the_median_of_rounds_with_their_own_inputs():
    rounds = [_round(1.0, 1000, [0.010] * 20),
              _round(2.0, 1000, [0.030] * 20),
              _round(4.0, 1000, [0.050] * 20)]
    values, _ = metrics.end_to_end(rounds, repeated=False)
    assert values["throughput_pps"] == pytest.approx(500.0)
    assert values["emit_latency_p50_ms"] == pytest.approx(30.0)
    assert values["emit_latency_tail_ms"] == pytest.approx(30.0)


# -- BENCHMARK.json --------------------------------------------------------------------

def test_benchmark_json_matches_the_metric_definitions():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert list(run.WORKLOADS) == list(WORKLOADS)
    names = [w["name"] for w in doc["workloads"]]
    assert set(names) <= set(WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == \
        [WORKLOADS[name].why for name in names]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in metrics.END_TO_END]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    for metric in metrics.PER_LAYER:
        assert metric.name in metrics.SPAN_OF \
            or metric.name in metrics.COUNT_OF \
            or metric.name.startswith(("stream.serve.", "bench."))
