"""Streaming runtime: chunked unbounded ingestion with online reports.

The layer between :mod:`repro.trace` and :mod:`repro.windows`: a
:class:`StreamSource` yields fixed-size columnar chunks from a finite
trace, an infinite synthetic scenario, or a composition of both
(:func:`splice` / :func:`interleave` / :func:`rate_rewrite` build drift
scenarios like calm → ddos-burst → calm); a :class:`StreamPipeline`
drives any registered detector chunk by chunk on the vectorized
``update_batch`` path and emits online :class:`Emission` reports under a
pluggable :class:`EmissionPolicy`; :mod:`repro.stream.churn` accounts for
how the reported population moves between consecutive emissions; and the
pipeline checkpoint (built on :mod:`repro.core.checkpoint`) snapshots
everything mid-stream for bit-identical resume.

See ``ROADMAP.md`` ("Architecture") for how the stream layer slots into
the stack, and the ``stream-replay`` experiment / ``repro-hhh stream``
CLI for the drivers.
"""

from repro.stream.churn import (
    ChurnStats,
    churn_series,
    emission_rows,
    report_churn,
)
from repro.stream.emission import (
    Emission,
    EmissionPolicy,
    EveryNPackets,
    EveryTraceSeconds,
    parse_emission_policy,
)
from repro.stream.pipeline import (
    STREAM_CHECKPOINT_SCHEMA,
    StreamPipeline,
    build_stream_detector,
)
from repro.stream.serve import ServeRuntime
from repro.stream.source import (
    InterleaveSource,
    RateRewriteSource,
    ScenarioSource,
    SkipSource,
    SpliceSource,
    StreamSource,
    TraceSource,
    interleave,
    parse_stream_spec,
    rate_rewrite,
    skip_packets,
    splice,
)

__all__ = [
    "ChurnStats",
    "Emission",
    "EmissionPolicy",
    "EveryNPackets",
    "EveryTraceSeconds",
    "InterleaveSource",
    "RateRewriteSource",
    "STREAM_CHECKPOINT_SCHEMA",
    "ScenarioSource",
    "ServeRuntime",
    "SkipSource",
    "SpliceSource",
    "StreamPipeline",
    "StreamSource",
    "TraceSource",
    "build_stream_detector",
    "churn_series",
    "emission_rows",
    "interleave",
    "parse_emission_policy",
    "parse_stream_spec",
    "rate_rewrite",
    "report_churn",
    "skip_packets",
    "splice",
]
