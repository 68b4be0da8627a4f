"""Multi-tenant serve throughput: the persistent shard-worker runtime.

The experiment face of :mod:`repro.stream.serve`: multiplex several
concurrent tenant streams over one :class:`repro.engine.ServePool`
(persistent worker processes owning their shards, zero-copy shared-memory
chunk handoff, partition/update pipelining) and record one row per
emission per tenant.  The headline ``streaming_pps`` is aggregate packets
over the *run-loop wall clock* — pool spin-up excluded, worker drain
included — which is the number the serve throughput floor in
``benchmarks/perf_floors.json`` fences.

Every tenant consumes the same deterministic stream (the input trace
replayed, or the ``source`` stream spec), so runs are reproducible and
every tenant's emissions are independently comparable to a serial
:class:`StreamPipeline` replay (which ``tests/stream/test_serve.py``
enforces bit-identically).
"""

from __future__ import annotations

import time

from repro.core import get_enumerable_spec
from repro.experiments.base import (
    Experiment,
    ExperimentError,
    Param,
    check_min1,
    check_phi,
)
from repro.experiments.registry import register_experiment
from repro.experiments.result import ExperimentResult, TraceProvenance
from repro.stream.emission import parse_emission_policy
from repro.stream.serve import ServeRuntime
from repro.trace.container import Trace


def _check_emit(value: object) -> None:
    parse_emission_policy(str(value))  # raises ValueError on bad spellings


@register_experiment
class StreamServe(Experiment):
    """Concurrent tenant streams over one persistent shard-worker pool."""

    name = "stream-serve"
    description = (
        "multi-tenant serve runtime: persistent shard workers, "
        "shared-memory chunk handoff, per-tenant online emissions"
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
        Param("chunk", "int", 8192,
              "packets per chunk and per shared-memory slot",
              check=check_min1),
        Param("emit", "str", "2s",
              "emission policy: 'Np' packets or 'Ts' trace seconds",
              check=_check_emit),
        Param("phi", "float", 0.02,
              "report threshold as a fraction of each interval's bytes",
              check=check_phi),
        Param("key", "choice", "src", "trace column keying the detector",
              choices=("src", "dst")),
        Param("source", "str", "",
              "stream spec overriding the input trace (every tenant gets "
              "the same spec; default derives per-tenant seeds from the "
              "input trace spec)"),
        Param("max_packets", "int", 500_000,
              "hard per-tenant packet cap", check=check_min1),
    )
    default_trace = "drift:duration=30"
    smoke_trace = "drift:duration=10"
    smoke_overrides = {
        "chunk": 2048, "emit": "1s", "max_packets": 10_000, "tenants": 2,
        "workers": 2, "shards": 2,
    }

    def run(self, trace: Trace, label: str = "trace") -> ExperimentResult:
        spec = get_enumerable_spec(
            self.bound_params["detector"], error=ExperimentError
        )
        num_tenants = self.bound_params["tenants"]
        workers = self.bound_params["workers"]
        shards = self.bound_params["shards"]
        if shards < workers:
            raise ExperimentError(
                f"shards ({shards}) must be >= workers ({workers})"
            )
        source_spec = self.bound_params["source"]
        rows: list[dict[str, object]] = []
        total_packets = 0
        total_bytes = 0
        num_emissions = 0
        runtime = ServeRuntime(
            workers=workers, shards=shards,
            chunk_size=self.bound_params["chunk"],
        )
        try:
            from repro.stream.source import TraceSource

            for i in range(num_tenants):
                runtime.add_tenant(
                    f"t{i}",
                    self.bound_params["detector"],
                    source_spec if source_spec else TraceSource(trace),
                    emit=self.bound_params["emit"],
                    phi=self.bound_params["phi"],
                    key=self.bound_params["key"],
                    max_packets=self.bound_params["max_packets"],
                )
            t0 = time.perf_counter()
            for tenant, emission in runtime.run():
                num_emissions += 1
                rows.append({
                    "tenant": tenant,
                    "emission": emission.index,
                    "t0": round(emission.window.t0, 3),
                    "t1": round(emission.window.t1, 3),
                    "packets": emission.packets,
                    "bytes": emission.bytes,
                    "report_size": len(emission.report),
                    "partial": emission.partial,
                })
            wall = time.perf_counter() - t0
            if runtime.failed:
                raise ExperimentError(
                    f"tenant failures: {dict(runtime.failed)}"
                )
            for name in runtime.tenants:
                pipeline = runtime.pipeline(name)
                total_packets += pipeline.packets
                total_bytes += pipeline.bytes
        finally:
            runtime.close()

        headline = {
            "tenants": num_tenants,
            "workers": workers,
            "shards": shards,
            "num_emissions": num_emissions,
            "stream_packets": total_packets,
            "stream_bytes": total_bytes,
            "streaming_pps": int(total_packets / wall) if wall > 0 else 0,
        }
        result = self._finish(trace, label, rows, headline=headline)
        if source_spec:
            result.traces = [
                TraceProvenance(
                    label=label,
                    num_packets=total_packets,
                    duration_s=0.0,
                    total_bytes=total_bytes,
                    spec=source_spec,
                )
            ]
        return result
