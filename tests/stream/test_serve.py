"""The multi-tenant serve runtime: bit-identical emissions vs the serial
pipeline, checkpoint migration across pools, and tenant failure isolation."""

import dataclasses
from functools import partial

import pytest

from repro.core import get_spec, make_detector
from repro.core.checkpoint import encode
from repro.engine import ServeError, ShardedDetector
from repro.stream import (
    ServeRuntime,
    StreamPipeline,
    parse_emission_policy,
    parse_stream_spec,
)
from repro.stream.source import StreamSource

CHUNK = 1024
EMIT = "2s"
PHI = 0.02
SPECS = {
    "alpha": "drift:duration=12,seed=3",
    "beta": "zipf:duration=12,seed=9",
}


def _strip(emission):
    """Emissions minus the wall clock (the only nondeterministic field)."""
    return dataclasses.replace(emission, wall_s=0.0)


def _serial_emissions(source_spec, detector="countmin-hh", shards=3,
                      max_packets=9000, **kwargs):
    spec = get_spec(detector)
    det = (
        ShardedDetector(spec.factory, shards) if shards > 1
        else spec.factory()
    )
    pipeline = StreamPipeline(
        det, parse_emission_policy(EMIT), phi=PHI,
        timestamped=spec.timestamped, **kwargs,
    )
    return [
        _strip(e) for e in pipeline.process(
            parse_stream_spec(source_spec), CHUNK, max_packets
        )
    ]


class ExplodingMidstream:
    """Picklable factory: a countmin-hh that dies after ``limit`` packets."""

    def __init__(self, limit):
        self.limit = limit

    def __call__(self):
        from tests.engine.test_serve_pool import ExplodingDetector

        return ExplodingDetector(self.limit)


class EmptyChunkSource(StreamSource):
    """Wraps a source, interleaving a zero-length chunk before every real
    one — legal under the source contract (only ``None`` is EOS)."""

    def __init__(self, inner):
        self.inner = inner

    def segments(self):
        return self.inner.segments()

    def chunks(self, chunk_size):
        for chunk in self.inner.chunks(chunk_size):
            yield chunk.slice_index(0, 0)
            yield chunk


class TestEquivalence:
    @pytest.mark.parametrize("detector", ["countmin-hh", "spacesaving"])
    def test_tenant_emissions_match_serial_pipeline(self, detector):
        """Every tenant's emission sequence is bit-identical (reports
        including dict order; wall_s excluded) to a serial per-tenant
        StreamPipeline over the same stream spec."""
        reference = {
            name: _serial_emissions(spec, detector=detector)
            for name, spec in SPECS.items()
        }
        with ServeRuntime(workers=2, shards=3, chunk_size=CHUNK) as runtime:
            for name, spec in SPECS.items():
                runtime.add_tenant(name, detector, spec, emit=EMIT,
                                   phi=PHI, max_packets=9000)
            observed = {name: [] for name in SPECS}
            for name, emission in runtime.run():
                observed[name].append(_strip(emission))
            assert not runtime.failed
        for name in SPECS:
            assert observed[name] == reference[name]
            for mine, theirs in zip(observed[name], reference[name]):
                assert list(mine.report.items()) == list(
                    theirs.report.items()
                )

    def test_single_worker_single_shard_matches_bare_pipeline(self):
        reference = _serial_emissions(SPECS["alpha"], shards=1)
        with ServeRuntime(workers=1, chunk_size=CHUNK) as runtime:
            runtime.add_tenant("t", "countmin-hh", SPECS["alpha"],
                               emit=EMIT, phi=PHI, max_packets=9000)
            observed = [_strip(e) for _, e in runtime.run()]
        assert observed == reference


class TestMigration:
    def test_checkpoint_rebalance_resume_is_uninterrupted(self):
        """Freeze a tenant on a 2-worker pool, resume on a 1-worker pool:
        the stitched emission sequence equals one uninterrupted serial
        run (the checkpoint is the migration unit)."""
        uninterrupted = _serial_emissions(SPECS["alpha"], shards=4)
        with ServeRuntime(workers=2, shards=4, chunk_size=CHUNK) as runtime:
            runtime.add_tenant("m", "countmin-hh", SPECS["alpha"],
                               emit=EMIT, phi=PHI, max_packets=4000,
                               emit_partial=False)
            first = [_strip(e) for _, e in runtime.run()]
            frozen = runtime.checkpoint_tenant("m")
        with ServeRuntime(workers=1, shards=4, chunk_size=CHUNK) as runtime:
            runtime.add_tenant("m", "countmin-hh", SPECS["alpha"],
                               emit=EMIT, phi=PHI, max_packets=9000,
                               resume=frozen, fast_forward=True)
            second = [_strip(e) for _, e in runtime.run()]
        merged = first + second
        assert merged == uninterrupted
        for mine, theirs in zip(merged, uninterrupted):
            assert list(mine.report.items()) == list(theirs.report.items())

    def test_serve_checkpoint_resumes_under_serial_pipeline(self):
        """A serve tenant's checkpoint restores into a plain serial
        sharded pipeline and continues bit-identically."""
        uninterrupted = _serial_emissions(SPECS["alpha"], shards=2)
        with ServeRuntime(workers=2, shards=2, chunk_size=CHUNK) as runtime:
            runtime.add_tenant("m", "countmin-hh", SPECS["alpha"],
                               emit=EMIT, phi=PHI, max_packets=4000,
                               emit_partial=False)
            first = [_strip(e) for _, e in runtime.run()]
            frozen = runtime.checkpoint_tenant("m")
        spec = get_spec("countmin-hh")
        pipeline = StreamPipeline(
            ShardedDetector(spec.factory, 2),
            parse_emission_policy(EMIT), phi=PHI,
            timestamped=spec.timestamped,
        )
        pipeline.restore(frozen)
        source = parse_stream_spec(SPECS["alpha"])
        from repro.stream import skip_packets

        source = skip_packets(source, pipeline.packets)
        remaining = 9000 - pipeline.packets
        second = [
            _strip(e) for e in pipeline.process(source, CHUNK, remaining)
        ]
        assert first + second == uninterrupted

    def test_resume_rejects_exhausted_max_packets(self):
        with ServeRuntime(workers=1, shards=2, chunk_size=CHUNK) as runtime:
            runtime.add_tenant("m", "countmin-hh", SPECS["alpha"],
                               emit=EMIT, phi=PHI, max_packets=3000,
                               emit_partial=False)
            list(runtime.run())
            frozen = runtime.checkpoint_tenant("m")
        with ServeRuntime(workers=1, shards=2, chunk_size=CHUNK) as runtime:
            with pytest.raises(ValueError, match="max_packets"):
                runtime.add_tenant("m", "countmin-hh", SPECS["alpha"],
                                   max_packets=3000, resume=frozen)


class TestFailureIsolation:
    def test_failing_tenant_retires_without_killing_siblings(self):
        """One tenant's detector explodes midstream: that tenant lands in
        ``failed``, the workers survive, and the sibling tenant's full
        emission sequence still matches the serial reference."""
        reference = _serial_emissions(SPECS["beta"], shards=2)
        with ServeRuntime(workers=2, shards=2, chunk_size=CHUNK) as runtime:
            # The limit must trip inside one emission interval: reset-on-
            # emit clears the packet count at each boundary (~850 packets
            # per shard per 2s interval here).
            runtime.add_tenant("doomed", ExplodingMidstream(400),
                               SPECS["alpha"], emit=EMIT, phi=PHI,
                               max_packets=9000)
            runtime.add_tenant("healthy", "countmin-hh", SPECS["beta"],
                               emit=EMIT, phi=PHI, max_packets=9000)
            observed = {"doomed": [], "healthy": []}
            for name, emission in runtime.run():
                observed[name].append(_strip(emission))
            assert "doomed" in runtime.failed
            assert "exploded" in runtime.failed["doomed"]
            assert "healthy" not in runtime.failed
            assert observed["healthy"] == reference
            # The pool is still serving: a fresh tenant opens and runs.
            runtime.pool.open_tenant("fresh", partial(
                make_detector, "countmin-hh"
            ))
            runtime.pool.close_tenant("fresh")

    def test_registration_failures_do_not_leak_tenants(self):
        with ServeRuntime(workers=1, chunk_size=CHUNK) as runtime:
            with pytest.raises(ServeError, match="cannot enumerate"):
                runtime.add_tenant("t", "countmin", SPECS["alpha"])
            with pytest.raises(ValueError, match="max_packets"):
                runtime.add_tenant("t", "countmin-hh", SPECS["alpha"],
                                   max_packets=0)
            # The name is free again after each failed registration.
            runtime.add_tenant("t", "countmin-hh", SPECS["alpha"],
                               max_packets=2000)
            with pytest.raises(ServeError, match="already registered"):
                runtime.add_tenant("t", "countmin-hh", SPECS["alpha"])


class TestLiveLifecycle:
    def test_empty_midstream_chunks_are_not_eos(self):
        """A zero-length chunk between real ones must be skipped, not
        treated as end-of-stream (the regression this PR fixes): the
        emission sequence still equals the serial reference."""
        reference = _serial_emissions(SPECS["alpha"], shards=2)
        with ServeRuntime(workers=2, shards=2, chunk_size=CHUNK) as runtime:
            source = EmptyChunkSource(parse_stream_spec(SPECS["alpha"]))
            runtime.add_tenant("t", "countmin-hh", source, emit=EMIT,
                               phi=PHI, max_packets=9000)
            observed = [_strip(e) for _, e in runtime.run()]
            assert not runtime.failed
        assert observed == reference
        assert observed  # the pre-fix behavior produced an empty stream

    def test_admission_while_running(self):
        """A tenant admitted from the on_turn hook mid-run joins the
        round-robin and still matches its serial reference."""
        reference = {
            name: _serial_emissions(spec, shards=2)
            for name, spec in SPECS.items()
        }
        with ServeRuntime(workers=2, shards=2, chunk_size=CHUNK) as runtime:
            runtime.add_tenant("alpha", "countmin-hh", SPECS["alpha"],
                               emit=EMIT, phi=PHI, max_packets=9000)

            def admit(turn):
                if turn == 3:
                    runtime.add_tenant("beta", "countmin-hh",
                                       SPECS["beta"], emit=EMIT, phi=PHI,
                                       max_packets=9000)

            runtime.on_turn = admit
            observed = {"alpha": [], "beta": []}
            for name, emission in runtime.run():
                observed[name].append(_strip(emission))
            assert not runtime.failed
        for name in SPECS:
            assert observed[name] == reference[name]

    def test_retire_while_running_resumes_elsewhere(self):
        """Retiring a tenant from the on_turn hook stops it at a chunk
        boundary; its returned checkpoint resumes on a fresh runtime and
        the stitched stream equals one uninterrupted serial run."""
        uninterrupted = _serial_emissions(SPECS["alpha"], shards=2)
        artifact = {}
        with ServeRuntime(workers=2, shards=2, chunk_size=CHUNK) as runtime:
            runtime.add_tenant("m", "countmin-hh", SPECS["alpha"],
                               emit=EMIT, phi=PHI, max_packets=9000,
                               emit_partial=False)

            def retire(turn):
                if turn == 4:
                    artifact["ckpt"] = runtime.retire_tenant("m")

            runtime.on_turn = retire
            first = [_strip(e) for _, e in runtime.run()]
            assert runtime.tenants == ()
        assert artifact["ckpt"]["offsets"]["packets"] == 4 * CHUNK
        with ServeRuntime(workers=1, shards=2, chunk_size=CHUNK) as runtime:
            runtime.add_tenant("m", "countmin-hh", SPECS["alpha"],
                               emit=EMIT, phi=PHI, max_packets=9000,
                               resume=artifact["ckpt"], fast_forward=True)
            second = [_strip(e) for _, e in runtime.run()]
        assert first + second == uninterrupted

    def test_rebalance_to_other_runtime_is_bit_identical(self):
        """rebalance() moves a live tenant onto another runtime (new
        worker layout, same shard count) mid-run; the combined emission
        stream equals one uninterrupted serial run and siblings keep
        streaming untouched."""
        uninterrupted = _serial_emissions(SPECS["alpha"], shards=2)
        sibling_ref = _serial_emissions(SPECS["beta"], shards=2)
        with ServeRuntime(workers=1, shards=2, chunk_size=CHUNK) as a, \
                ServeRuntime(workers=2, shards=2, chunk_size=CHUNK) as b:
            a.add_tenant("moved", "countmin-hh", SPECS["alpha"],
                         emit=EMIT, phi=PHI, max_packets=9000)
            a.add_tenant("sibling", "countmin-hh", SPECS["beta"],
                         emit=EMIT, phi=PHI, max_packets=9000)

            def move(turn):
                if turn == 5:
                    a.rebalance("moved", target=b)

            a.on_turn = move
            observed = {"moved": [], "sibling": []}
            for name, emission in a.run():
                observed[name].append(_strip(emission))
            assert a.tenants == ("sibling",)
            assert b.tenants == ("moved",)
            for name, emission in b.run():
                observed[name].append(_strip(emission))
            assert not a.failed and not b.failed
        assert observed["moved"] == uninterrupted
        assert observed["sibling"] == sibling_ref

    def test_rebalance_rejects_mismatched_shard_count(self):
        with ServeRuntime(workers=1, shards=2, chunk_size=CHUNK) as a, \
                ServeRuntime(workers=1, shards=3, chunk_size=CHUNK) as b:
            a.add_tenant("m", "countmin-hh", SPECS["alpha"],
                         max_packets=2000)
            with pytest.raises(ServeError, match="shard"):
                a.rebalance("m", target=b)
            # The tenant was not retired by the failed validation.
            assert a.tenants == ("m",)

    @pytest.mark.parametrize("onto", ["other", "self"])
    def test_rebalance_refuses_finished_tenant(self, onto):
        """A tenant run to its max_packets end has nothing left to move:
        rebalance raises ServeError before retiring it, so it stays on
        its runtime with its pipeline state (it used to vanish from
        both runtimes)."""
        with ServeRuntime(workers=1, shards=2, chunk_size=CHUNK) as a, \
                ServeRuntime(workers=1, shards=2, chunk_size=CHUNK) as b:
            a.add_tenant("t", "countmin-hh", SPECS["alpha"],
                         emit=EMIT, phi=PHI, max_packets=3000)
            list(a.run())
            before = a.checkpoint_tenant("t")
            with pytest.raises(ServeError, match="max_packets"):
                a.rebalance("t", target=b if onto == "other" else None)
            assert a.tenants == ("t",)
            assert b.tenants == ()
            after = a.checkpoint_tenant("t")
            assert after["offsets"]["packets"] == 3000
            assert encode(after) == encode(before)

    def test_pipeline_raises_for_failed_and_unknown_tenants(self):
        with ServeRuntime(workers=1, shards=2, chunk_size=CHUNK) as runtime:
            runtime.add_tenant("doomed", ExplodingMidstream(400),
                               SPECS["alpha"], emit=EMIT, phi=PHI,
                               max_packets=9000)
            list(runtime.run())
            assert "doomed" in runtime.failed
            with pytest.raises(ServeError, match="failed"):
                runtime.pipeline("doomed")
            with pytest.raises(ServeError, match="failed"):
                runtime.checkpoint_tenant("doomed")
            with pytest.raises(ServeError, match="unknown"):
                runtime.pipeline("ghost")


class TestRuntimeWiring:
    def test_closed_runtime_fences_registration(self):
        runtime = ServeRuntime(workers=1, chunk_size=CHUNK)
        runtime.close()
        runtime.close()
        with pytest.raises(ServeError, match="closed"):
            runtime.add_tenant("t", "countmin-hh", SPECS["alpha"])
