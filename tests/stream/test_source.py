"""Stream sources: chunking, infinite generation, composition ops."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.stream import (
    InterleaveSource,
    ScenarioSource,
    SpliceSource,
    TraceSource,
    interleave,
    parse_stream_spec,
    rate_rewrite,
    skip_packets,
    splice,
)
from repro.trace.spec import TraceSpec, TraceSpecError, build_trace


#: A seedless scenario whose (every) cycle holds no packet.
EMPTY_SEEDLESS = "caida:day=0,duration=0.0001"


def _run_bounded(argv: list[str]) -> subprocess.CompletedProcess:
    """Run ``argv`` with this checkout's ``repro`` importable; a child
    still running after 60 s fails the test instead of hanging it."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    try:
        return subprocess.run(argv, capture_output=True, text=True,
                              env=env, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail(f"{argv[-1]!r} still running after 60 s")


@pytest.fixture(scope="module")
def trace():
    return build_trace("zipf:duration=5,sources=200")


class TestChunking:
    def test_chunks_cover_the_trace_exactly(self, trace):
        chunks = list(TraceSource(trace).chunks(700))
        assert sum(len(c) for c in chunks) == len(trace)
        assert all(len(c) == 700 for c in chunks[:-1])
        assert np.array_equal(
            np.concatenate([c.ts for c in chunks]), trace.ts
        )
        assert np.array_equal(
            np.concatenate([c.src for c in chunks]), trace.src
        )

    def test_chunk_larger_than_trace(self, trace):
        chunks = list(TraceSource(trace).chunks(10**9))
        assert len(chunks) == 1
        assert len(chunks[0]) == len(trace)

    def test_chunks_are_traces_in_time_order(self, trace):
        for chunk in TraceSource(trace).chunks(512):
            assert np.all(np.diff(chunk.ts) >= 0)

    def test_bad_chunk_size_rejected(self, trace):
        with pytest.raises(ValueError, match="chunk_size"):
            next(TraceSource(trace).chunks(0))

    def test_empty_trace_yields_nothing(self):
        from repro.trace.container import Trace

        assert list(TraceSource(Trace.empty()).chunks(64)) == []


class TestScenarioSource:
    def test_runs_past_one_cycle(self):
        source = ScenarioSource("zipf:duration=1,sources=100")
        one_cycle = len(build_trace("zipf:duration=1,sources=100"))
        taken = 0
        for chunk in source.chunks(256):
            taken += len(chunk)
            if taken > 3 * one_cycle:
                break
        assert taken > 3 * one_cycle  # kept producing beyond one build

    def test_timeline_is_continuous_and_sorted(self):
        source = ScenarioSource("zipf:duration=1,sources=100", cycles=3)
        segments = list(source.segments())
        assert len(segments) == 3
        ts = np.concatenate([s.ts for s in segments])
        assert np.all(np.diff(ts) >= 0)

    def test_reseeds_each_cycle(self):
        source = ScenarioSource("zipf:duration=1,sources=100", cycles=2)
        first, second = source.segments()
        assert not np.array_equal(first.src, second.src)

    def test_deterministic_for_a_seed(self):
        def take(seed):
            src = ScenarioSource(
                "zipf:duration=1,sources=100", seed=seed, cycles=2
            )
            return np.concatenate([s.src for s in src.segments()])

        assert np.array_equal(take(5), take(5))
        assert not np.array_equal(take(5), take(6))

    def test_rejects_pcap(self):
        with pytest.raises(TraceSpecError, match="pcap"):
            ScenarioSource(TraceSpec.parse("pcap:/tmp/x.pcap"))

    def test_empty_seedless_cycle_ends_the_stream(self):
        """caida takes no seed, so every cycle is the same (here empty)
        trace: the stream ends, as an empty TraceSource does, instead of
        rebuilding that empty cycle forever.  Run in a child process with
        a timeout, because the failure mode is a hang."""
        script = (
            "from repro.stream import ScenarioSource\n"
            f"source = ScenarioSource({EMPTY_SEEDLESS!r})\n"
            "print(len(list(source.chunks(8))))\n"
        )
        done = _run_bounded([sys.executable, "-c", script])
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "0"

    def test_cli_streams_an_empty_seedless_repeat_and_exits(self):
        done = _run_bounded([
            sys.executable, "-m", "repro", "stream", "countmin-hh",
            "--source", f"repeat:{EMPTY_SEEDLESS}", "--max-packets", "10",
        ])
        assert done.returncode == 0, done.stderr
        assert "stream: 0 packets" in done.stdout

    def test_rejects_unknown_scenario_eagerly(self):
        with pytest.raises(TraceSpecError, match="registered scenarios"):
            ScenarioSource("nonsense:duration=1")


class TestOps:
    def test_splice_is_sequential_and_continuous(self, trace):
        spliced = SpliceSource(TraceSource(trace), TraceSource(trace))
        segments = list(spliced.segments())
        assert len(segments) == 2
        assert segments[1].start_time > segments[0].end_time
        assert sum(len(s) for s in segments) == 2 * len(trace)

    def test_interleave_merges_by_timestamp(self, trace):
        overlay = InterleaveSource(TraceSource(trace), TraceSource(trace))
        merged = list(overlay.segments())
        ts = np.concatenate([s.ts for s in merged])
        assert len(ts) == 2 * len(trace)
        assert np.all(np.diff(ts) >= 0)
        # Every original packet appears twice.
        assert np.array_equal(np.unique(ts), np.unique(trace.ts))

    def test_interleave_bounds_memory_with_infinite_sources(self, trace):
        overlay = interleave(
            TraceSource(trace),
            ScenarioSource("zipf:duration=1,sources=100"),
        )
        taken = 0
        for chunk in overlay.chunks(512):
            assert np.all(np.diff(chunk.ts) >= 0)
            taken += len(chunk)
            if taken > 2 * len(trace):
                break
        assert taken > 2 * len(trace)

    def test_rate_rewrite_compresses_time(self, trace):
        fast = rate_rewrite(TraceSource(trace), 2.0)
        (segment,) = fast.segments()
        assert len(segment) == len(trace)
        assert segment.duration == pytest.approx(trace.duration / 2.0)
        assert segment.start_time == pytest.approx(trace.start_time)
        assert np.array_equal(segment.length, trace.length)

    def test_rate_rewrite_rejects_nonpositive(self, trace):
        with pytest.raises(ValueError, match="speedup"):
            rate_rewrite(TraceSource(trace), 0.0)

    def test_skip_packets(self, trace):
        skipped = skip_packets(TraceSource(trace), 100)
        (segment,) = skipped.segments()
        assert len(segment) == len(trace) - 100
        assert np.array_equal(segment.ts, trace.ts[100:])
        # skip=0 is the identity.
        assert skip_packets(TraceSource(trace), 0) is not None

    def test_single_source_facades_pass_through(self, trace):
        source = TraceSource(trace)
        assert splice(source) is source
        assert interleave(source) is source


class TestStreamSpecParsing:
    def test_plain_trace_spec(self):
        source = parse_stream_spec("zipf:duration=1,sources=100")
        assert isinstance(source, TraceSource)

    def test_splice_spec(self):
        source = parse_stream_spec(
            "calm:duration=2+ddos-burst:duration=2"
        )
        assert isinstance(source, SpliceSource)
        assert len(source.sources) == 2

    def test_interleave_spec(self):
        source = parse_stream_spec(
            "calm:duration=2&zipf:duration=2,sources=100"
        )
        assert isinstance(source, InterleaveSource)

    def test_repeat_spec_is_infinite(self):
        source = parse_stream_spec("repeat:zipf:duration=1,sources=100")
        assert isinstance(source, ScenarioSource)
        assert source.cycles is None

    def test_rate_suffix(self):
        from repro.stream import RateRewriteSource

        source = parse_stream_spec("calm:duration=2@x4")
        assert isinstance(source, RateRewriteSource)
        assert source.speedup == 4.0

    def test_bad_specs_rejected(self):
        for bad in ("", "a++b", "calm:duration=2@y3", "calm:duration=2@xq",
                    "&calm:duration=2"):
            with pytest.raises((TraceSpecError, ValueError)):
                parse_stream_spec(bad)


class TestSeedNormalization:
    """A stream spec string is a complete reproducible recipe: the
    resolved base seed is normalised back into ``source.spec``, so a
    serialized fuzz-case artifact replays the exact same packets."""

    def test_same_spec_string_yields_identical_chunks(self):
        one = parse_stream_spec("repeat:zipf:duration=2,seed=7")
        two = parse_stream_spec("repeat:zipf:duration=2,seed=7")
        for _, chunk_a, chunk_b in zip(range(5), one.chunks(512),
                                       two.chunks(512)):
            assert np.array_equal(chunk_a.ts, chunk_b.ts)
            assert np.array_equal(chunk_a.src, chunk_b.src)
            assert np.array_equal(chunk_a.length, chunk_b.length)

    def test_explicit_seed_lands_in_spec(self):
        source = ScenarioSource("zipf:duration=2,seed=7")
        assert source.seed == 7
        assert source.spec.params["seed"] == 7
        assert "seed=7" in source.spec.format()

    def test_default_seed_is_normalised_in(self):
        # No seed in the string: the resolved default still lands in the
        # spec, so format() round-trips to the identical stream.
        source = ScenarioSource("zipf:duration=2")
        assert source.spec.params["seed"] == source.seed
        again = ScenarioSource(source.spec.format())
        assert again.seed == source.seed

    def test_constructor_seed_overrides_spec_param(self):
        source = ScenarioSource("zipf:duration=2,seed=3", seed=9)
        assert source.seed == 9
        assert source.spec.params["seed"] == 9

    def test_unseeded_scenarios_unchanged(self):
        # CAIDA-like days have no seed knob; the spec must stay as-is.
        source = ScenarioSource("caida:day=0,duration=2")
        assert "seed" not in source.spec.params
