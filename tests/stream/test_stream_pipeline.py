"""The streaming pipeline: equivalence with offline windows, mid-chunk
boundaries, bounded infinite runs, and checkpoint/resume bit-identity."""

import numpy as np
import pytest

from repro.core import detector_names, get_spec
from repro.core.checkpoint import CheckpointError
from repro.engine import ShardedDetector
from repro.stream import (
    EveryNPackets,
    EveryTraceSeconds,
    ScenarioSource,
    StreamPipeline,
    TraceSource,
)
from repro.trace.spec import build_trace
from repro.windows import WindowedDetectorDriver

ENUMERABLE = [n for n in detector_names() if get_spec(n).enumerable]
MERGEABLE = [n for n in detector_names() if get_spec(n).mergeable]


@pytest.fixture(scope="module")
def trace():
    return build_trace("caida:day=0,duration=12")


def _pipeline(name, policy, **kwargs):
    spec = get_spec(name)
    return StreamPipeline(
        spec.factory(), policy,
        timestamped=spec.timestamped, **kwargs,
    )


class TestEmissions:
    def test_window_aligned_matches_the_offline_driver(self, trace):
        """Streaming with trace-seconds emission reproduces the windowed
        driver's reports exactly — same boundaries, same thresholds —
        even though chunk boundaries fall wherever they fall."""
        driver = WindowedDetectorDriver(
            get_spec("spacesaving").factory, window_size=2.0, phi=0.05
        )
        offline = list(driver.run(trace))

        pipeline = _pipeline(
            "spacesaving", EveryTraceSeconds(2.0), phi=0.05, emit_partial=False
        )
        online = list(pipeline.process(TraceSource(trace), 1024))

        assert len(online) == len(offline)
        for emission, (window, report) in zip(online, offline):
            assert emission.window.t1 == window.t1
            assert emission.report == report

    def test_offsets_partition_the_stream(self, trace):
        pipeline = _pipeline("countmin-hh", EveryNPackets(3000), phi=0.01)
        emissions = list(pipeline.process(TraceSource(trace), 1024))
        assert emissions[0].start_packet == 0
        for previous, current in zip(emissions, emissions[1:]):
            assert current.start_packet == previous.end_packet
        assert emissions[-1].end_packet == pipeline.packets == len(trace)
        assert sum(e.packets for e in emissions) == len(trace)
        assert sum(e.bytes for e in emissions) == trace.total_bytes

    def test_packet_policy_counts_exactly(self, trace):
        pipeline = _pipeline("countmin-hh", EveryNPackets(2500), phi=0.01)
        emissions = list(pipeline.process(TraceSource(trace), 999))
        full = [e for e in emissions if not e.partial]
        assert all(e.packets == 2500 for e in full)

    def test_bounded_run_over_an_infinite_source(self):
        pipeline = _pipeline("countmin-hh", EveryNPackets(1000), phi=0.01)
        emissions = list(
            pipeline.process(
                ScenarioSource("zipf:duration=1,sources=100"),
                512,
                max_packets=5000,
            )
        )
        assert pipeline.packets == 5000
        assert [e for e in emissions if not e.partial][-1].end_packet <= 5000

    def test_reset_on_emit_isolates_intervals(self):
        trace = build_trace("zipf:duration=4,sources=50")
        with_reset = _pipeline(
            "spacesaving", EveryTraceSeconds(1.0), phi=0.9
        )
        list(with_reset.process(TraceSource(trace), 256))
        # With phi=0.9 and resets, nothing survives: no single key carries
        # 90% of an interval under a 50-source zipf.
        without_reset = StreamPipeline(
            get_spec("spacesaving").factory(), EveryTraceSeconds(1.0),
            phi=0.9, reset_on_emit=False,
        )
        list(without_reset.process(TraceSource(trace), 256))
        # Accumulated totals must exceed any single interval's.
        assert without_reset.detector.total > 0

    def test_empty_trace_time_windows_emit_empty_reports(self):
        from repro.packet.model import Packet
        from repro.trace.container import Trace

        trace = Trace.from_packets(
            [Packet(ts=0.1, src=1, dst=0, length=100),
             Packet(ts=5.9, src=2, dst=0, length=100)]
        )
        pipeline = _pipeline(
            "spacesaving", EveryTraceSeconds(1.0), phi=0.5,
            emit_partial=False,
        )
        emissions = list(pipeline.process(TraceSource(trace), 16))
        assert len(emissions) == 5
        assert all(e.report == {} for e in emissions[1:4])  # the gap

    def test_rejects_bad_config(self):
        detector = get_spec("countmin-hh").factory()
        with pytest.raises(ValueError, match="phi"):
            StreamPipeline(detector, EveryNPackets(10), phi=0.0)
        with pytest.raises(ValueError, match="key"):
            StreamPipeline(detector, EveryNPackets(10), key="proto")
        pipeline = StreamPipeline(detector, EveryNPackets(10))
        with pytest.raises(ValueError, match="max_packets"):
            list(pipeline.process(TraceSource(build_trace("calm:duration=2")),
                                  64, max_packets=0))


def _run_uninterrupted(name, chunks, policy, **kwargs):
    pipeline = _pipeline(name, policy, phi=0.01, **kwargs)
    emissions = []
    for chunk in chunks:
        emissions.extend(pipeline.push(chunk))
    emissions.extend(pipeline.finish())
    return emissions, pipeline


def _run_resumed(name, chunks, split, make_policy, **kwargs):
    first = _pipeline(name, make_policy(), phi=0.01, **kwargs)
    emissions = []
    for chunk in chunks[:split]:
        emissions.extend(first.push(chunk))
    checkpoint = first.checkpoint()
    # Poison the original so any state sharing with the artifact shows up.
    for chunk in chunks[split:]:
        list(first.push(chunk))
    resumed = _pipeline(name, make_policy(), phi=0.01, **kwargs)
    resumed.restore(checkpoint)
    for chunk in chunks[split:]:
        emissions.extend(resumed.push(chunk))
    emissions.extend(resumed.finish())
    return emissions, resumed


class TestCheckpointResume:
    @pytest.mark.parametrize("name", ENUMERABLE)
    def test_resume_is_bit_identical_for_enumerable_detectors(
        self, name, trace
    ):
        chunks = list(TraceSource(trace).chunks(1024))
        expected, _ = _run_uninterrupted(name, chunks, EveryTraceSeconds(2.0))
        got, _ = _run_resumed(name, chunks, 4, lambda: EveryTraceSeconds(2.0))
        assert len(got) == len(expected)
        for a, b in zip(expected, got):
            assert (a.index, a.window, a.packets, a.bytes, a.start_packet,
                    a.end_packet, a.partial) == (
                b.index, b.window, b.packets, b.bytes, b.start_packet,
                b.end_packet, b.partial)
            assert a.report == b.report

    @pytest.mark.parametrize("name", MERGEABLE)
    def test_resume_matches_uninterrupted_state_for_mergeable_detectors(
        self, name, trace
    ):
        """Mergeable detectors are the sharded engine's combination units;
        their resumed stream state must equal the uninterrupted one
        exactly (estimates probed since some cannot enumerate)."""
        spec = get_spec(name)
        chunks = list(TraceSource(trace).chunks(1024))
        policy = EveryNPackets(10**9)  # ingest-only: compare final state
        _, uninterrupted = _run_uninterrupted(
            name, chunks, policy, emit_partial=False
        )
        _, resumed = _run_resumed(
            name, chunks, 4, lambda: EveryNPackets(10**9),
            emit_partial=False,
        )
        now = trace.end_time
        for key in np.unique(trace.src)[:32].tolist():
            assert spec.estimate(resumed.detector, key, now) == spec.estimate(
                uninterrupted.detector, key, now
            ), name

    def test_sharded_pipeline_resumes(self, trace):
        factory = get_spec("spacesaving").factory
        chunks = list(TraceSource(trace).chunks(2048))

        def build():
            return StreamPipeline(
                ShardedDetector(factory, 3), EveryTraceSeconds(2.0), phi=0.02
            )

        uninterrupted = build()
        expected = []
        for chunk in chunks:
            expected.extend(uninterrupted.push(chunk))

        first = build()
        got = []
        for chunk in chunks[:2]:
            got.extend(first.push(chunk))
        checkpoint = first.checkpoint()
        resumed = build()
        resumed.restore(checkpoint)
        for chunk in chunks[2:]:
            got.extend(resumed.push(chunk))

        assert [e.report for e in got] == [e.report for e in expected]

    def test_restore_rejects_mismatched_policy_or_schema(self, trace):
        pipeline = _pipeline("countmin-hh", EveryTraceSeconds(2.0))
        list(pipeline.process(TraceSource(trace), 4096))
        checkpoint = pipeline.checkpoint()

        other_policy = _pipeline("countmin-hh", EveryTraceSeconds(3.0))
        with pytest.raises(CheckpointError, match="policy"):
            other_policy.restore(checkpoint)
        fresh = _pipeline("countmin-hh", EveryTraceSeconds(2.0))
        with pytest.raises(CheckpointError, match="artifact"):
            fresh.restore({"schema": "bogus"})

    def test_checkpoint_is_picklable(self, trace):
        import pickle

        pipeline = _pipeline("countmin-hh", EveryTraceSeconds(2.0))
        list(pipeline.process(TraceSource(trace), 4096))
        blob = pickle.dumps(pipeline.checkpoint())
        fresh = _pipeline("countmin-hh", EveryTraceSeconds(2.0))
        fresh.restore(pickle.loads(blob))
        assert fresh.packets == pipeline.packets
        assert fresh.emissions == pipeline.emissions
