"""Synthetic traces and trace manipulation — the CAIDA substitute.

The paper analyses one-hour CAIDA ``equinix-chicago`` traces from four
different days.  Those traces are not redistributable, so this package
generates synthetic traces that reproduce the three properties the paper's
findings rest on:

1. **heavy-tailed source volumes** (Zipf-distributed popularity over a
   structured address space, so aggregates exist at every prefix level);
2. **temporal burstiness** (Markov-modulated rate plus per-source burst
   trains, so traffic aggregates straddle window boundaries);
3. **churn** (sources joining/leaving and transient heavy-hitter episodes
   with onset/offset unaligned to any window grid).

Property (2)+(3) are exactly what makes disjoint windows "hide" HHHs, and
the generator exposes each as an explicit knob so experiments can show the
effect appearing and disappearing.

:class:`Trace` stores packets in numpy columns for fast windowed
aggregation, while still iterating as :class:`repro.packet.Packet` records.
"""

from repro.trace.container import Trace
from repro.trace.config import (
    BurstConfig,
    ChurnConfig,
    HeavyEpisodeConfig,
    RateConfig,
    SyntheticTraceConfig,
)
from repro.trace.zipf import ZipfSampler
from repro.trace.generator import SyntheticTraceGenerator, generate_trace
from repro.trace import presets
from repro.trace.spec import (
    CacheInfo,
    ScenarioSpec,
    TraceSpec,
    TraceSpecError,
    build_trace,
    cache_info,
    clear_trace_cache,
    get_scenario,
    register_scenario,
    scenario_names,
    trace_cache_keys,
)
from repro.trace.stats import TraceStats, compute_stats
from repro.trace.ops import concat_traces, shift_trace, slice_time

__all__ = [
    "Trace",
    "TraceSpec",
    "TraceSpecError",
    "ScenarioSpec",
    "build_trace",
    "CacheInfo",
    "cache_info",
    "clear_trace_cache",
    "trace_cache_keys",
    "get_scenario",
    "register_scenario",
    "scenario_names",
    "SyntheticTraceConfig",
    "RateConfig",
    "BurstConfig",
    "ChurnConfig",
    "HeavyEpisodeConfig",
    "ZipfSampler",
    "SyntheticTraceGenerator",
    "generate_trace",
    "presets",
    "TraceStats",
    "compute_stats",
    "concat_traces",
    "shift_trace",
    "slice_time",
]
