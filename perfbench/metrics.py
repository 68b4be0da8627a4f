"""Metric definitions, and their values from a run's rounds and spans.

``END_TO_END`` and ``PER_LAYER`` mirror ``BENCHMARK.json`` (the self-tests
check that they agree) and add, per metric, what it means and — for the
per-layer ones — which end-to-end metric on which workload it is
expected to move, and where it should stay flat.
"""

from __future__ import annotations

from dataclasses import dataclass

from perfbench.measure import best, median, percentile, tail_quantile


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    note: str
    bound: float | None = None


END_TO_END = (
    Metric("setup_s", "s", "lower",
           "entry call to the first chunk reaching a detector: runtime, "
           "pool and tenants for serve; argument parsing, detector and "
           "source (with its first trace build) for stream; median of "
           "the run's rounds", 0.25),
    Metric("throughput_pps", "packets/s", "higher",
           "first-time packets / wall time from the first chunk to the "
           "end of the stream, final worker drain included (the delivered "
           "rate on the open-loop serve-live); serve: the best round; "
           "stream: the median of rounds",
           0.25),
    Metric("emit_latency_p50_ms", "ms", "lower",
           "emission yield time minus the release of the chunk that "
           "closed its interval (its due time on the open-loop "
           "serve-live); partial flushes excluded; each round's median, "
           "then serve: the best round; stream: their median",
           0.25),
    Metric("emit_latency_tail_ms", "ms", "lower",
           "the same latency at the highest percentile, capped at p99, "
           "that leaves ten samples beyond it in the whole run (emissions "
           "closed by one chunk share a latency, so samples are counted "
           "in closing chunks), per round, then over rounds as the p50",
           0.25),
    Metric("peak_rss_mb", "MB", "lower",
           "peak resident memory of the main process plus the private "
           "resident memory of its worker processes, read before "
           "teardown; largest over rounds", 0.15),
)

_STREAM = "throughput_pps on stream-evict and stream-sharded"
_CATCHUP = "recovery catch-up (stream.serve.catchup_s) on serve-crash"
_SERVE_SYNC = ("emit_latency_* on serve-live; little on serve-crash")

PER_LAYER = (
    Metric("trace.build_s", "s", "lower",
           f"{_STREAM}; {_CATCHUP}; flat on serve-live"),
    Metric("trace.builds", "count", "lower", "same as trace.build_s"),
    Metric("stream.source.next_s", "s", "lower",
           f"{_STREAM}; {_CATCHUP}; flat on serve-live (paced source)"),
    Metric("stream.source.chunks", "count", "higher",
           "chunks pulled (replays included)"),
    Metric("stream.source.reseek_s", "s", "lower",
           f"first chunk of a re-aimed source: {_CATCHUP}"),
    Metric("stream.pipeline.push_s", "s", "lower",
           "self time: throughput_pps on stream-evict"),
    Metric("stream.pipeline.pushes", "count", "higher", "chunks pushed"),
    Metric("stream.pipeline.emissions", "count", "higher",
           "emissions produced (suppressed replays included)"),
    Metric("stream.emission.report_keys", "count", "higher",
           "keys over all produced reports"),
    Metric("stream.pipeline.checkpoint_s", "s", "lower",
           "self time: emit_latency_p50_ms on serve-live; throughput_pps "
           f"and {_CATCHUP}; flat on stream-*"),
    Metric("stream.pipeline.checkpoints", "count", "lower",
           "checkpoints taken"),
    Metric("stream.pipeline.restore_s", "s", "lower",
           f"self time: {_CATCHUP}"),
    Metric("core.checkpoint.bytes", "bytes", "lower",
           "payload bytes over all checkpoints: checkpoint_s and save_s"),
    Metric("core.detector.update_batch_s", "s", "lower",
           f"{_STREAM}; zero on serve-* (detectors run in workers)"),
    Metric("core.detector.packets", "count", "higher",
           "packets folded into main-process detectors"),
    Metric("core.detector.query_s", "s", "lower", _STREAM),
    Metric("core.detector.reset_s", "s", "lower", _STREAM),
    Metric("engine.sharded.update_batch_s", "s", "lower",
           "self time: throughput_pps on stream-sharded; zero on "
           "stream-evict"),
    Metric("engine.partition.partition_s", "s", "lower",
           "throughput_pps on stream-sharded and serve-crash; zero on "
           "stream-evict"),
    Metric("engine.runner.fanout_s", "s", "lower",
           "self time incl. the pickle round trip: throughput_pps on "
           "stream-sharded"),
    Metric("engine.serve.update_s", "s", "lower",
           "self time of partition, slot write or wait, send: "
           "throughput_pps on serve-crash; little on serve-live"),
    Metric("engine.serve.updates", "count", "higher", "pool updates"),
    Metric("engine.serve.query_s", "s", "lower",
           f"self time incl. ack drain: {_SERVE_SYNC}"),
    Metric("engine.serve.reset_s", "s", "lower", _SERVE_SYNC),
    Metric("engine.serve.save_s", "s", "lower", _SERVE_SYNC),
    Metric("engine.serve.barrier_s", "s", "lower",
           "explicit barriers (the final drain): throughput_pps on serve-*"),
    Metric("engine.serve.syncs", "count", "lower",
           "synchronous fan-outs (query, reset, save, load, barrier)"),
    Metric("engine.serve.replies", "count", "lower",
           "worker replies awaited by those fan-outs"),
    Metric("engine.serve.respawn_s", "s", "lower", _CATCHUP),
    Metric("engine.serve.load_s", "s", "lower", _CATCHUP),
    Metric("engine.serve.crashes", "count", "lower", "workers respawned"),
    Metric("stream.serve.turns", "count", "lower",
           "scheduler turns (replays included)"),
    Metric("stream.serve.turn_p50_ms", "ms", "lower",
           "median turn: throughput_pps on serve-crash, emit latency on "
           "serve-live"),
    Metric("stream.serve.recover_s", "s", "lower",
           "the runtime's own recoveries[].seconds, median: "
           f"{_CATCHUP}"),
    Metric("stream.serve.replay_packets", "count", "lower",
           f"packets ingested again after recoveries: {_CATCHUP} and "
           "throughput_pps on serve-crash"),
    Metric("stream.serve.useful_frac", "fraction", "higher",
           "first-time packets / all packets ingested"),
    Metric("stream.serve.suppressed_emissions", "count", "lower",
           "replayed emissions withheld as already delivered"),
    Metric("stream.serve.catchup_s", "s", "lower",
           "median kill-to-caught-up time in traced rounds (the traced "
           "recovery_catchup_s)"),
    Metric("stream.serve.catchup_respawn_s", "s", "lower",
           "median respawn part of a catch-up"),
    Metric("stream.serve.catchup_restore_s", "s", "lower",
           "median restore part of a catch-up (pipeline restore and "
           "pool load)"),
    Metric("stream.serve.catchup_reseek_s", "s", "lower",
           "median source re-seek part of a catch-up"),
    Metric("stream.serve.catchup_replay_s", "s", "lower",
           "median rest of a catch-up: replaying the gap"),
    Metric("bench.gen_late_p99_ms", "ms", "lower",
           "p99 lateness of the open-loop generator's releases"),
    Metric("bench.trace_overhead_frac", "fraction", "lower",
           "traced vs untraced copies of the same rounds: wall time per "
           "packet, or p50 emission latency on serve-live"),
)

#: Per-layer time metric -> span name whose self time it totals.
SPAN_OF = {
    "trace.build_s": "trace.build",
    "stream.source.next_s": "stream.source.next",
    "stream.source.reseek_s": "stream.source.reseek",
    "stream.pipeline.push_s": "stream.pipeline.push",
    "stream.pipeline.checkpoint_s": "stream.pipeline.checkpoint",
    "stream.pipeline.restore_s": "stream.pipeline.restore",
    "core.detector.update_batch_s": "core.detector.update_batch",
    "core.detector.query_s": "core.detector.query",
    "core.detector.reset_s": "core.detector.reset",
    "engine.sharded.update_batch_s": "engine.sharded.update_batch",
    "engine.partition.partition_s": "engine.partition.partition",
    "engine.runner.fanout_s": "engine.runner.fanout",
    "engine.serve.update_s": "engine.serve.update",
    "engine.serve.query_s": "engine.serve.query",
    "engine.serve.reset_s": "engine.serve.reset",
    "engine.serve.save_s": "engine.serve.save",
    "engine.serve.barrier_s": "engine.serve.barrier",
    "engine.serve.respawn_s": "engine.serve.respawn",
    "engine.serve.load_s": "engine.serve.load",
}

#: Per-layer count metric -> tracer counter.
COUNT_OF = {
    "trace.builds": "trace.builds",
    "stream.source.chunks": "stream.source.chunks",
    "stream.pipeline.pushes": "stream.pipeline.pushes",
    "stream.pipeline.emissions": "stream.pipeline.emissions",
    "stream.emission.report_keys": "stream.emission.report_keys",
    "stream.pipeline.checkpoints": "stream.pipeline.checkpoints",
    "core.checkpoint.bytes": "core.checkpoint.bytes",
    "core.detector.packets": "core.detector.packets",
    "engine.serve.updates": "engine.serve.updates",
    "engine.serve.syncs": "engine.serve.syncs",
    "engine.serve.replies": "engine.serve.replies",
    "engine.serve.crashes": "engine.serve.crashes",
}


def _med(values) -> float:
    return median(values) if values else 0.0


def end_to_end(rounds, repeated: bool
               ) -> tuple[dict[str, float], dict[str, str]]:
    """End-to-end values over untraced rounds, with a sample note each.

    ``repeated`` rounds run the same inputs again, so throughput and
    latency take the best round's value.  Otherwise each round has its own
    inputs (the stream workloads' days), and the run takes the median of
    the rounds, which one round caught in a slow phase of the machine
    does not move.
    """
    n = len(rounds)
    latency = [r.latency_s for r in rounds if r.latency_s]
    emissions = sum(len(samples) for samples in latency)
    events = sum(r.latency_events for r in rounds)
    q = tail_quantile(events)
    p50 = [median(s) for s in latency]
    tail = [percentile(s, q) for s in latency] if q else []
    if repeated:
        over = f"best of {n} rounds"
        throughput = best([r.throughput for r in rounds], "higher")
        p50_s = best(p50, "lower") if p50 else 0.0
        tail_s = best(tail, "lower") if tail else 0.0
    else:
        over = f"median of {n} rounds"
        throughput = _med([r.throughput for r in rounds])
        p50_s, tail_s = _med(p50), _med(tail)
    values = {
        "setup_s": _med([r.setup_s for r in rounds]),
        "throughput_pps": throughput,
        "emit_latency_p50_ms": p50_s * 1e3,
        "emit_latency_tail_ms": tail_s * 1e3,
        "peak_rss_mb": max((r.memory_mb for r in rounds), default=0.0),
    }
    notes = {
        "setup_s": f"median of {n} rounds",
        "throughput_pps": over,
        "emit_latency_p50_ms": f"{over}, n={emissions} emissions",
        "emit_latency_tail_ms": (
            f"p{q:.1f}, {over}, n={emissions} emissions closed by "
            f"{events} chunks" if q is not None
            else f"{events} closing chunks: too few for a tail"),
        "peak_rss_mb": f"largest of {n} rounds",
    }
    return values, notes


def per_round(rounds) -> dict[str, list[float]]:
    """Each round's own set-up, throughput and latency percentiles, to
    show how far the rounds behind the run's values spread."""
    q = tail_quantile(sum(r.latency_events for r in rounds))
    latency = [r.latency_s for r in rounds if r.latency_s]
    return {
        "setup_s": [r.setup_s for r in rounds],
        "throughput_pps": [r.throughput for r in rounds],
        "latency_p50_ms": [median(s) * 1e3 for s in latency],
        "latency_tail_ms": [percentile(s, q) * 1e3 for s in latency]
                           if q else [],
    }


def _primary(rounds, open_loop: bool) -> float:
    if open_loop:
        return _med([s for r in rounds for s in r.latency_s])
    return _med([r.wall_s / r.packets for r in rounds])


def per_layer(traced, untraced, tracer, open_loop: bool) -> dict[str, float]:
    """Per-layer values from the traced rounds and the tracer's spans."""
    self_times = tracer.self_times()
    counts = tracer.counts
    values: dict[str, float] = {}
    for metric, span in SPAN_OF.items():
        values[metric] = self_times.get(span, 0.0)
    for metric, counter in COUNT_OF.items():
        values[metric] = float(counts.get(counter, 0))

    first_time = sum(r.packets for r in traced)
    ingested = counts.get("stream.pipeline.push_packets", 0)
    delivered = sum(
        1 for r in traced for records in r.emissions.values()
        for record in records if not record[-1]
    )
    turns = [t for r in traced for t in r.turns_s]
    values["stream.serve.turns"] = float(len(turns))
    values["stream.serve.turn_p50_ms"] = _med(turns) * 1e3
    values["stream.serve.recover_s"] = _med(
        [s for r in traced for s in r.recover_s])
    values["stream.serve.replay_packets"] = float(max(0, ingested - first_time))
    values["stream.serve.useful_frac"] = (
        first_time / ingested if ingested else 1.0)
    values["stream.serve.suppressed_emissions"] = float(max(
        0, counts.get("stream.pipeline.emissions", 0) - delivered))

    parts: dict[str, list[float]] = {
        "respawn": [], "restore": [], "reseek": [], "replay": []}
    for r in traced:
        for t0, t1 in r.catchup_windows:
            respawn = tracer.inclusive_between("engine.serve.respawn", t0, t1)
            restore = tracer.inclusive_between("stream.pipeline.restore",
                                               t0, t1)
            reseek = tracer.inclusive_between("stream.source.reseek", t0, t1)
            parts["respawn"].append(respawn)
            parts["restore"].append(restore)
            parts["reseek"].append(reseek)
            parts["replay"].append(t1 - t0 - respawn - restore - reseek)
    values["stream.serve.catchup_s"] = _med(
        [s for r in traced for s in r.catchup_s])
    for part, samples in parts.items():
        values[f"stream.serve.catchup_{part}_s"] = _med(samples)

    lateness = [s for r in traced for s in r.lateness_s]
    values["bench.gen_late_p99_ms"] = (
        percentile(lateness, 99.0) * 1e3 if lateness else 0.0)
    base = _primary(untraced, open_loop)
    values["bench.trace_overhead_frac"] = (
        _primary(traced, open_loop) / base - 1.0 if base else 0.0)
    return values
