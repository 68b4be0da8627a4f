"""Streaming replay: emission timeline, churn, and throughput as rows.

The experiment face of :mod:`repro.stream`: drive one registered detector
over a chunked stream with an online emission policy, and record one row
per emission — the report size, the churn relative to the previous
emission (Jaccard, entries/exits, rank displacement), and the ingest
throughput of the interval.  On a drift workload (the ``drift`` scenario's
calm → ddos-burst → calm splice) the churn columns flip on when the burst
regime arrives and off when it leaves — the online signature the offline
hidden-HHH experiments can only see in hindsight.

``--set source=SPEC`` replaces the input trace with any stream spec
(splices, overlays, ``repeat:`` infinite sources, ``@x`` rate rewrites);
``max_packets`` always bounds the run, which is what keeps infinite
sources finite in CI smoke runs.  ``shards``/``workers`` wrap the detector
in the key-partitioned sharded engine, so the pipeline exercises the same
fan-out path as the offline experiments.
"""

from __future__ import annotations

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
from repro.stream.churn import churn_series, emission_rows
from repro.stream.emission import parse_emission_policy
from repro.stream.pipeline import StreamPipeline, build_stream_detector
from repro.stream.source import TraceSource, parse_stream_spec
from repro.trace.container import Trace


def _check_emit(value: object) -> None:
    parse_emission_policy(str(value))  # raises ValueError on bad spellings


@register_experiment
class StreamReplay(Experiment):
    """Online emissions + churn + throughput for one streamed detector."""

    name = "stream-replay"
    description = (
        "chunked streaming: online report emissions with churn and "
        "throughput per interval"
    )
    PARAMS = (
        Param("detector", "str", "countmin-hh",
              "registry name of an enumerable detector to stream"),
        Param("chunk", "int", 8192, "packets per columnar chunk",
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
              "stream spec overriding the input trace (splice '+', "
              "interleave '&', 'repeat:' infinite, '@xF' rate rewrite)"),
        Param("max_packets", "int", 1_000_000,
              "hard packet cap (bounds infinite 'repeat:' sources)",
              check=check_min1),
        Param("shards", "int", 1,
              "key-partitioned shards wrapping the detector",
              check=check_min1),
        Param("workers", "int", 1,
              "process-pool workers for shard updates; 1 = serial",
              check=check_min1),
    )
    default_trace = "drift:duration=60"
    smoke_trace = "drift:duration=12"
    smoke_overrides = {
        "chunk": 2048, "emit": "1s", "max_packets": 30_000,
    }

    def run(self, trace: Trace, label: str = "trace") -> ExperimentResult:
        spec = get_enumerable_spec(
            self.bound_params["detector"], error=ExperimentError
        )
        source_spec = self.bound_params["source"]
        source = (
            parse_stream_spec(source_spec) if source_spec
            else TraceSource(trace)
        )
        detector, runner = build_stream_detector(
            spec,
            shards=self.bound_params["shards"],
            workers=self.bound_params["workers"],
        )
        pipeline = StreamPipeline(
            detector,
            parse_emission_policy(self.bound_params["emit"]),
            phi=self.bound_params["phi"],
            key=self.bound_params["key"],
            timestamped=spec.timestamped,
        )
        try:
            emissions = list(
                pipeline.process(
                    source,
                    self.bound_params["chunk"],
                    max_packets=self.bound_params["max_packets"],
                )
            )
        finally:
            if runner is not None:
                runner.close()

        churn = churn_series(emissions)
        rows = emission_rows(emissions)
        total_wall = sum(emission.wall_s for emission in emissions)
        flips = sum(
            1 for stats in churn[1:] if stats.flipped
        )
        headline = {
            "num_emissions": len(emissions),
            "stream_packets": pipeline.packets,
            "stream_bytes": pipeline.bytes,
            "chunks": pipeline.chunk_index,
            "streaming_pps": (
                int(pipeline.packets / total_wall) if total_wall > 0 else 0
            ),
            "churn_flips": flips,
            "mean_jaccard": round(
                sum(stats.jaccard for stats in churn) / len(churn), 3
            ) if churn else 1.0,
        }
        if source_spec:
            headline["source"] = source_spec
        result = self._finish(trace, label, rows, headline=headline,
                              extras={"emissions": emissions})
        if source_spec:
            # The stream replaced the input trace; make the provenance say
            # what was actually consumed.
            result.traces = [
                TraceProvenance(
                    label=label,
                    num_packets=pipeline.packets,
                    duration_s=round(
                        emissions[-1].window.t1 - emissions[0].window.t0, 3
                    ) if emissions else 0.0,
                    total_bytes=pipeline.bytes,
                    spec=source_spec,
                )
            ]
        return result
