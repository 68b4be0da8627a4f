"""Serve crash recovery: kill a worker mid-run, prove nothing was lost.

The supervision face of :mod:`repro.stream.serve`: several tenant streams
multiplex over a :class:`repro.engine.ServePool`, every tenant
auto-checkpoints (``checkpoint_every``), and at a deterministic scheduler
turn the experiment SIGKILLs one worker process via the pool's
crash-injection hook.  The runtime detects the death at the next pipe
operation, respawns the worker, rewinds each tenant to its last
checkpoint, and replays the gap from the tenant's own log of chunks
pushed since that checkpoint (no source is read again) — suppressing
already-delivered emissions, so the consumer-visible stream is
exactly-once.

The experiment *asserts* the recovery contract rather than just timing
it: every tenant's full emission sequence must be byte-identical (modulo
wall-clock) to a serial :class:`repro.engine.ShardedDetector` pipeline
fed the same chunk grid with no crash anywhere.  A mismatch raises
:class:`ExperimentError` and fails the build.

Headline ``recovery_s`` is the supervised path's cost — respawn plus
checkpoint restore, excluding the replay (which runs at normal streaming
speed); ``catchup_s`` is what the crash costs the tenants — the time
from the kill until every tenant is back at its pre-kill packet offset,
replay included.  Both are fenced by *ceilings* in
``benchmarks/perf_floors.json``.
"""

from __future__ import annotations

import dataclasses
import time

from repro.core import get_enumerable_spec
from repro.engine.sharded import ShardedDetector
from repro.experiments.base import (
    Experiment,
    ExperimentError,
    Param,
    check_min1,
    check_phi,
)
from repro.experiments.registry import register_experiment
from repro.experiments.result import ExperimentResult, TraceProvenance
from repro.stream.emission import Emission, parse_emission_policy
from repro.stream.pipeline import StreamPipeline
from repro.stream.serve import ServeRuntime
from repro.stream.source import StreamSource, parse_stream_spec
from repro.trace.container import Trace


def _check_emit(value: object) -> None:
    parse_emission_policy(str(value))  # raises ValueError on bad spellings


def _strip(emission: Emission) -> Emission:
    return dataclasses.replace(emission, wall_s=0.0)


@register_experiment
class ServeRecovery(Experiment):
    """Worker-crash recovery over the serve runtime, equivalence-gated."""

    name = "serve-recovery"
    description = (
        "kill one shard worker mid-run; the supervised serve runtime "
        "respawns it, restores tenants from auto-checkpoints, and the "
        "emission stream stays byte-identical to an uninterrupted "
        "serial run"
    )
    PARAMS = (
        Param("detector", "str", "countmin-hh",
              "registry name of an enumerable detector to serve"),
        Param("tenants", "int", 2,
              "concurrent tenant streams multiplexed over the pool",
              check=check_min1),
        Param("workers", "int", 2,
              "persistent shard-worker processes", check=check_min1),
        Param("shards", "int", 2,
              "logical key-partitioned shards (>= workers)",
              check=check_min1),
        Param("chunk", "int", 4096,
              "packets per chunk and per shared-memory slot",
              check=check_min1),
        Param("emit", "str", "1s",
              "emission policy: 'Np' packets or 'Ts' trace seconds",
              check=_check_emit),
        Param("phi", "float", 0.02,
              "report threshold as a fraction of each interval's bytes",
              check=check_phi),
        Param("key", "choice", "src", "trace column keying the detector",
              choices=("src", "dst")),
        Param("source", "str", "",
              "stream spec overriding the input trace (every tenant gets "
              "the same spec)"),
        Param("max_packets", "int", 100_000,
              "hard per-tenant packet cap", check=check_min1),
        Param("checkpoint_every", "int", 2,
              "auto-checkpoint cadence in emissions per tenant",
              check=check_min1),
        Param("kill_turn", "int", 3,
              "scheduler turn at which one worker is SIGKILLed",
              check=check_min1),
    )
    default_trace = "drift:duration=30"
    smoke_trace = "drift:duration=10"
    smoke_overrides = {
        "chunk": 2048, "max_packets": 10_000, "tenants": 2,
        "workers": 2, "shards": 2,
    }

    def _serial_reference(
        self, source: StreamSource, shards: int
    ) -> list[Emission]:
        """The uninterrupted serial run every tenant must reproduce."""
        spec = get_enumerable_spec(
            self.bound_params["detector"], error=ExperimentError
        )
        pipeline = StreamPipeline(
            ShardedDetector(spec.factory, shards),
            parse_emission_policy(self.bound_params["emit"]),
            phi=self.bound_params["phi"],
            key=self.bound_params["key"],
            timestamped=spec.timestamped,
        )
        return [
            _strip(e) for e in pipeline.process(
                source, self.bound_params["chunk"],
                self.bound_params["max_packets"],
            )
        ]

    def run(self, trace: Trace, label: str = "trace") -> ExperimentResult:
        from repro.stream.source import TraceSource

        workers = self.bound_params["workers"]
        shards = self.bound_params["shards"]
        if shards < workers:
            raise ExperimentError(
                f"shards ({shards}) must be >= workers ({workers})"
            )
        num_tenants = self.bound_params["tenants"]
        kill_turn = self.bound_params["kill_turn"]
        source_spec = self.bound_params["source"]

        def make_source() -> StreamSource:
            if source_spec:
                return parse_stream_spec(source_spec)
            return TraceSource(trace)

        reference = self._serial_reference(make_source(), shards)

        got: dict[str, list[Emission]] = {}
        runtime = ServeRuntime(
            workers=workers, shards=shards,
            chunk_size=self.bound_params["chunk"],
        )
        try:
            for i in range(num_tenants):
                name = f"t{i}"
                got[name] = []
                runtime.add_tenant(
                    name,
                    self.bound_params["detector"],
                    make_source(),
                    emit=self.bound_params["emit"],
                    phi=self.bound_params["phi"],
                    key=self.bound_params["key"],
                    max_packets=self.bound_params["max_packets"],
                    checkpoint_every=self.bound_params["checkpoint_every"],
                )

            killed_at: list[float] = []
            before: dict[str, int] = {}
            catchup: list[float] = []

            def crash_injector(turn: int) -> None:
                if turn == kill_turn:
                    killed_at.append(time.perf_counter())
                    for name in runtime.tenants:
                        before[name] = runtime.pipeline(name).packets
                    runtime.pool.kill_worker(kill_turn % workers)
                elif (
                    killed_at and not catchup and runtime.recoveries
                    and not runtime.failed
                    and all(
                        runtime.pipeline(name).packets >= packets
                        for name, packets in before.items()
                    )
                ):
                    # Caught up: every tenant is back where the kill
                    # found it, replay included.
                    catchup.append(time.perf_counter() - killed_at[0])

            runtime.on_turn = crash_injector
            t0 = time.perf_counter()
            for tenant, emission in runtime.run():
                got[tenant].append(_strip(emission))
            wall = time.perf_counter() - t0
            if runtime.failed:
                raise ExperimentError(
                    f"tenant failures: {dict(runtime.failed)}"
                )
            if not runtime.recoveries:
                raise ExperimentError(
                    f"kill_turn {kill_turn} fired after the run ended; "
                    "no crash was injected — raise max_packets or lower "
                    "kill_turn"
                )
            total_packets = sum(
                runtime.pipeline(name).packets for name in runtime.tenants
            )
            recovery_s = sum(
                r["seconds"] for r in runtime.recoveries  # type: ignore
            )
            recoveries = list(runtime.recoveries)
        finally:
            runtime.close()

        rows: list[dict[str, object]] = []
        for name, emissions in got.items():
            equivalent = emissions == reference
            rows.append({
                "tenant": name,
                "packets": self.bound_params["max_packets"],
                "emissions": len(emissions),
                "equivalent": equivalent,
            })
            if not equivalent:
                raise ExperimentError(
                    f"tenant {name!r} diverged from the uninterrupted "
                    f"serial run after crash recovery "
                    f"({len(emissions)} vs {len(reference)} emissions)"
                )

        headline = {
            "tenants": num_tenants,
            "workers": workers,
            "shards": shards,
            "recoveries": len(recoveries),
            "recovery_s": round(recovery_s, 6),
            "catchup_s": round(catchup[0], 6),
            "equivalent": 1,
            "stream_packets": total_packets,
            "streaming_pps": int(total_packets / wall) if wall > 0 else 0,
        }
        result = self._finish(trace, label, rows, headline=headline)
        if source_spec:
            result.traces = [
                TraceProvenance(
                    label=label,
                    num_packets=total_packets,
                    duration_s=0.0,
                    total_bytes=0,
                    spec=source_spec,
                )
            ]
        return result
