"""The benchmark's four workloads, their serial references, and the run loop.

Every workload drives a user-facing entry point in-process:

- ``serve-live`` and ``serve-crash`` drive :class:`repro.stream.ServeRuntime`
  (what ``repro-hhh serve`` runs);
- ``stream-evict`` and ``stream-sharded`` call ``repro.cli.main`` with the
  ``stream`` command line a user would type.

A run is a number of *rounds*, each one complete entry-point call with its
own set-up, on inputs derived from ``--seed`` and sized from
``--seconds``.  The serve workloads repeat the same inputs every round and
report the best round; the stream workloads give each round its own day
of traffic and report the median of the rounds.  With tracing
every round runs twice on the same inputs, untraced then traced:
per-layer metrics come from the traced copies, and the gap between the
two copies is the tracing overhead.

Outputs are checked against serial references computed after the timed
rounds.  References are cached under ``.perfbench_cache/`` keyed by the
job and a digest of the program source, so each is computed once per
input and program.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

from repro import cli
from repro.core import Detector, get_enumerable_spec
from repro.engine import ShardedDetector
from repro.engine.runner import ParallelRunner
from repro.engine.serve import ServeError
from repro.stream import (
    ServeRuntime,
    StreamPipeline,
    StreamSource,
    parse_emission_policy,
    parse_stream_spec,
)

from perfbench.measure import (
    CatchupTracker,
    LeakCheck,
    closing_chunk,
    count_failed,
    emission_record,
    source_digest,
    workload_memory_mb,
)
from perfbench.spans import Patches, Tracer

ROOT = Path(__file__).resolve().parents[1]
CACHE_DIR = ROOT / ".perfbench_cache"

CHUNK = 8192
WORKERS = 2
SHARDS = 4
TENANTS = 4
SERVE_DETECTOR = "countmin-hh"
SERVE_EMIT = "2s"
PHI = 0.02
STREAM_DETECTOR = "decayed-spacesaving"
STREAM_EMIT = "10s"
#: Tolerance of the batch-equivalence suite (tests/core).
EVICT_REL_TOL = 1e-9


# -- always-on probes ----------------------------------------------------------

class Probe:
    """The few timestamps every run needs, traced or not.

    Wraps three public methods for the whole run: ``StreamPipeline.push``
    (first chunk reaching a detector ends set-up; each pipeline's latest
    push is the release of the chunk an emission closes on),
    ``StreamPipeline.process`` (the emissions the ``stream`` command yields
    and when its stream ends) and ``ParallelRunner.close`` (worker memory,
    read before the command shuts its executor down).
    """

    def __init__(self) -> None:
        self.patches = Patches()
        self.reset()

    def reset(self) -> None:
        self.first_push: float | None = None
        self.last_push: dict[int, float] = {}
        #: ``(emission, yielded_at, closing_chunk_pushed_at)``
        self.emitted: list[tuple] = []
        self.end: float | None = None
        self.memory_mb: float | None = None

    def install(self) -> None:
        probe = self
        push = StreamPipeline.__dict__["push"]
        process = StreamPipeline.__dict__["process"]
        close = ParallelRunner.__dict__["close"]

        def push_wrapper(pipeline, chunk):
            now = perf_counter()
            if probe.first_push is None:
                probe.first_push = now
            probe.last_push[id(pipeline)] = now
            return push(pipeline, chunk)

        def process_wrapper(pipeline, *args, **kwargs):
            for emission in process(pipeline, *args, **kwargs):
                probe.emitted.append((emission, perf_counter(),
                                      probe.last_push.get(id(pipeline))))
                yield emission
            probe.end = perf_counter()

        def close_wrapper(runner):
            probe.memory_mb = workload_memory_mb()
            return close(runner)

        self.patches.replace(StreamPipeline, "push", push_wrapper)
        self.patches.replace(StreamPipeline, "process", process_wrapper)
        self.patches.replace(ParallelRunner, "close", close_wrapper)

    def uninstall(self) -> None:
        self.patches.undo()


# -- per-round results -----------------------------------------------------------

@dataclass
class Round:
    """What one round measured and delivered."""

    key: str                                  #: reference it is checked against
    traced: bool
    setup_s: float = 0.0
    wall_s: float = 0.0                       #: first chunk to end of stream
    packets: int = 0                          #: first-time packets ingested
    latency_s: list[float] = field(default_factory=list)
    #: Distinct closing chunks behind ``latency_s``: emissions closed by
    #: one chunk are yielded together and share one latency sample.
    latency_events: int = 0
    memory_mb: float = 0.0
    emissions: dict[str, list[tuple]] = field(default_factory=dict)
    tenant_failures: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    leaks: list[str] = field(default_factory=list)
    turns_s: list[float] = field(default_factory=list)
    lateness_s: list[float] = field(default_factory=list)
    catchup_s: list[float] = field(default_factory=list)
    catchup_windows: list[tuple[float, float]] = field(default_factory=list)
    recover_s: list[float] = field(default_factory=list)
    kills: int = 0

    @property
    def throughput(self) -> float:
        return self.packets / self.wall_s


def _seeds(label: str, seed: int, n: int) -> list[int]:
    rng = random.Random(f"perfbench:{label}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(n)]


def _records(emissions) -> list[tuple]:
    return [emission_record(e) for e in emissions]


def _serial_serve_reference(chunks) -> list[tuple]:
    """One tenant on a serial pipeline over ``ShardedDetector(factory, 4)``
    fed the same chunk grid — what the serve runtime promises to equal."""
    spec = get_enumerable_spec(SERVE_DETECTOR)
    pipeline = StreamPipeline(
        ShardedDetector(spec.factory, SHARDS),
        parse_emission_policy(SERVE_EMIT),
        phi=PHI, timestamped=spec.timestamped,
    )
    out = []
    for chunk in chunks:
        out.extend(pipeline.push(chunk))
    out.extend(pipeline.finish())
    return _records(out)


def _take(source_spec: str, packets: int) -> list:
    """The first ``packets`` packets of a stream spec, on the chunk grid."""
    out = []
    for chunk in parse_stream_spec(source_spec).chunks(CHUNK):
        if len(chunk) >= packets:
            out.append(chunk.slice_index(0, packets))
            return out
        out.append(chunk)
        packets -= len(chunk)
    return out


class ScalarReplay(Detector):
    """Feeds every batch through the wrapped detector's scalar ``update``."""

    def __init__(self, inner: Detector) -> None:
        self.inner = inner

    def update(self, key, weight=1, ts=None):
        self.inner.update(key, weight, ts)

    def update_batch(self, keys, weights=None, ts=None):
        update = self.inner.update
        for k, w, t in zip(keys.tolist(), weights.tolist(), ts.tolist()):
            update(k, w, t)

    def query(self, threshold, now=None):
        return self.inner.query(threshold, now)

    def reset(self):
        self.inner.reset()

    @property
    def num_counters(self):
        return self.inner.num_counters


# -- workloads -------------------------------------------------------------------

class Workload:
    """One benchmark workload: inputs from a seed, rounds, references."""

    name = ""
    why = ""
    rounds = 1
    #: Whether every round runs the same inputs again.
    repeated = False
    open_loop = False
    #: Relative tolerance of report values against the reference
    #: (``None``: bit-identical, report order included).
    tolerance: float | None = None

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.seconds = seconds

    def job(self) -> dict[str, object]:
        """The inputs and settings, for provenance and the reference key."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Generate inputs before any timing."""

    def round_key(self, index: int) -> str:
        """Which reference round ``index`` is checked against."""
        return "all"

    def run_round(self, index: int, rnd: Round, probe: Probe,
                  tracer: Tracer | None) -> None:
        """Run round ``index``, filling ``rnd``."""
        raise NotImplementedError

    def reference(self, key: str, probe: Probe) -> dict[str, list[tuple]]:
        """Reference emission records of round key ``key``, per stream."""
        raise NotImplementedError


class ServeWorkload(Workload):
    """Shared driving of a four-tenant ``ServeRuntime``."""

    repeated = True
    checkpoint_every = 1

    def tenant_names(self) -> list[str]:
        return [f"t{i}" for i in range(TENANTS)]

    def drive(self, sources: list, probe: Probe, tracer: Tracer | None,
              rnd: Round, max_packets: int | None = None,
              kills: list[tuple[int, int]] = (),
              due: Callable[[int, int], float] | None = None) -> None:
        """One runtime, from construction to close.

        ``kills`` lists ``(turn, worker)``: the worker is SIGKILLed at the
        first turn at or after ``turn`` with no catch-up in progress, so
        every crash is measured on its own.  ``due(lane, k)`` gives the
        open-loop due time of tenant ``lane``'s chunk ``k``; without it an
        emission's latency starts at its closing chunk's push.
        """
        names = self.tenant_names()
        lane = {name: i for i, name in enumerate(names)}
        kills = list(kills)
        tracker = CatchupTracker()
        turn_ends: list[float] = []
        probe.reset()
        entry = perf_counter()
        runtime = ServeRuntime(workers=WORKERS, shards=SHARDS,
                               chunk_size=CHUNK)
        try:
            pipelines = {}
            for name, source in zip(names, sources):
                pipelines[name] = runtime.add_tenant(
                    name, SERVE_DETECTOR, source, emit=SERVE_EMIT, phi=PHI,
                    max_packets=max_packets,
                    checkpoint_every=self.checkpoint_every,
                )
                if tracer is not None:
                    tracer.name_tenant(pipelines[name], name)

            def offsets() -> dict[str, int]:
                out = {}
                for name in names:
                    try:
                        out[name] = runtime.pipeline(name).packets
                    except ServeError:
                        out[name] = -1  # failed tenants never catch up
                return out

            def on_turn(turn: int) -> None:
                now = perf_counter()
                turn_ends.append(now)
                if tracer is not None:
                    tracer.turn()
                if not (kills or tracker.pending):
                    return
                recoveries = len(runtime.recoveries)
                done = tracker.turn(now, offsets(), recoveries)
                if done is not None:
                    rnd.catchup_windows.append((now - done, now))
                if kills and turn >= kills[0][0] and not tracker.pending:
                    _, worker = kills.pop(0)
                    tracker.killed(perf_counter(), offsets(), recoveries)
                    runtime.pool.kill_worker(worker)
                    rnd.kills += 1

            runtime.on_turn = on_turn
            got: dict[str, list[tuple]] = {name: [] for name in names}
            events = set()
            for name, emission in runtime.run():
                now = perf_counter()
                if due is not None:
                    k = closing_chunk(emission.end_packet, CHUNK,
                                      emission.partial)
                    start = None if k is None else due(lane[name], k)
                elif emission.partial:
                    start = None
                else:
                    start = probe.last_push.get(id(pipelines[name]))
                if start is not None:
                    rnd.latency_s.append(now - start)
                    events.add((name, start))
                got[name].append(emission_record(emission))
            end = perf_counter()
            rnd.memory_mb = workload_memory_mb()
            rnd.latency_events = len(events)
            rnd.emissions = got
            rnd.tenant_failures = dict(runtime.failed)
            rnd.recover_s = [float(r.get("seconds", 0.0))
                             for r in runtime.recoveries]
        finally:
            runtime.close()
        rnd.catchup_s = tracker.samples
        rnd.setup_s = probe.first_push - entry
        rnd.wall_s = end - probe.first_push
        rnd.turns_s = [b - a for a, b in zip(
            [probe.first_push] + turn_ends[:-1], turn_ends)]


class Schedule:
    """Wall-clock release times of an open-loop, multi-lane chunk feed.

    Lane ``i`` releases chunk ``k`` at ``t0 + (k + i / lanes) * period``:
    every lane runs at the same rate, phases staggered evenly across one
    period.  ``t0`` is the first release.
    """

    def __init__(self, period: float, lanes: int) -> None:
        self.period = period
        self.lanes = lanes
        self.t0: float | None = None
        self.lateness: list[float] = []

    def due(self, lane: int, k: int) -> float:
        return self.t0 + (k + lane / self.lanes) * self.period

    def wait(self, lane: int, k: int) -> None:
        if self.t0 is None:
            self.t0 = perf_counter()
        due = self.due(lane, k)
        delay = due - perf_counter()
        if delay > 0:
            time.sleep(delay)
        self.lateness.append(perf_counter() - due)


class PacedSource(StreamSource):
    """Pre-generated chunks released on one lane of a :class:`Schedule`."""

    def __init__(self, released: list, lane: int, schedule: Schedule) -> None:
        self.released = released
        self.lane = lane
        self.schedule = schedule

    def segments(self):
        yield from self.released

    def chunks(self, chunk_size: int):
        if chunk_size != CHUNK:
            raise ValueError(f"inputs were cut at {CHUNK} packets, "
                             f"not {chunk_size}")
        for k, chunk in enumerate(self.released):
            self.schedule.wait(self.lane, k)
            yield chunk


class ServeLive(ServeWorkload):
    name = "serve-live"
    why = ("open loop at a fixed rate: emission barriers and checkpoints "
           "dominate, ingest is light, the source is bypassed")
    open_loop = True
    checkpoint_every = 4
    #: Offered packets per second per tenant (4 tenants).
    rate_pps = 12_500
    #: Chunks each tenant releases in one round.
    chunks_per_round = 4

    @property
    def period(self) -> float:
        """Seconds between one tenant's chunks."""
        return CHUNK / self.rate_pps

    @property
    def rounds(self) -> int:
        """As many short rounds as fit in ``--seconds``, each with a tenth
        of a second for its set-up and teardown."""
        return max(3, int(self.seconds
                          / (self.chunks_per_round * self.period + 0.1)))

    def job(self):
        return {
            "tenants": [f"repeat:drift:seed={s}" for s in
                        _seeds(self.name, self.seed, TENANTS)],
            "chunks_per_tenant": self.chunks_per_round,
            "offered_pps": self.rate_pps * TENANTS,
            "chunk": CHUNK, "emit": SERVE_EMIT, "phi": PHI,
            "detector": SERVE_DETECTOR, "checkpoint_every":
                self.checkpoint_every, "workers": WORKERS, "shards": SHARDS,
        }

    def prepare(self):
        job = self.job()
        n = job["chunks_per_tenant"] * CHUNK
        self.inputs = [_take(spec, n) for spec in job["tenants"]]

    def run_round(self, index, rnd, probe, tracer):
        schedule = Schedule(self.period, TENANTS)
        sources = [PacedSource(chunks, lane, schedule)
                   for lane, chunks in enumerate(self.inputs)]
        rnd.lateness_s = schedule.lateness
        self.drive(sources, probe, tracer, rnd, due=schedule.due)
        rnd.packets = sum(len(c) for chunks in self.inputs for c in chunks)

    def reference(self, key, probe):
        return {name: _serial_serve_reference(chunks)
                for name, chunks in zip(self.tenant_names(), self.inputs)}


class ServeCrash(ServeWorkload):
    name = "serve-crash"
    why = ("closed loop with worker SIGKILLs: partition and slot handoff "
           "plus respawn, restore, source re-seek and gap replay")
    rounds = 5
    checkpoint_every = 2
    crashes = 3

    def job(self):
        return {
            "tenants": [f"repeat:drift:seed={s}@x20" for s in
                        _seeds(self.name, self.seed, TENANTS)],
            "packets_per_tenant": self.seconds * 12_000,
            "crashes_per_round": self.crashes,
            "chunk": CHUNK, "emit": SERVE_EMIT, "phi": PHI,
            "detector": SERVE_DETECTOR, "checkpoint_every":
                self.checkpoint_every, "workers": WORKERS, "shards": SHARDS,
        }

    def kill_turns(self) -> list[tuple[int, int]]:
        """``(turn, worker)`` SIGKILLs spread over a crash-free run's turns."""
        chunks = -(-self.job()["packets_per_tenant"] // CHUNK)
        turns = TENANTS * chunks
        return [(round(turns * (j + 1) / (self.crashes + 2)), j % WORKERS)
                for j in range(self.crashes)]

    def run_round(self, index, rnd, probe, tracer):
        job = self.job()
        sources = [parse_stream_spec(spec) for spec in job["tenants"]]
        self.drive(sources, probe, tracer, rnd,
                   max_packets=job["packets_per_tenant"],
                   kills=self.kill_turns())
        rnd.packets = TENANTS * job["packets_per_tenant"]
        if len(rnd.catchup_s) != self.crashes:
            rnd.problems.append(f"{len(rnd.catchup_s)} of {self.crashes} "
                                "crashes injected and caught up")

    def reference(self, key, probe):
        job = self.job()
        return {name: _serial_serve_reference(
                    _take(spec, job["packets_per_tenant"]))
                for name, spec in zip(self.tenant_names(), job["tenants"])}


class StreamWorkload(Workload):
    """Rounds of the ``repro-hhh stream`` command, one CAIDA-like day each.

    The seed picks the first round's day; the rounds then cover all four
    days, so every run measures the same mix of traffic.
    """

    rounds = 4
    extra_args: tuple[str, ...] = ()
    #: Packets per round for each second of ``--seconds``, about what
    #: fills the run on a 2-vCPU host.
    packets_per_second = 15_000

    def job(self):
        return {"command": " ".join(["repro-hhh", *self.argv("D")])}

    @property
    def packets(self) -> int:
        """Packets per round (``--max-packets``)."""
        return self.seconds * self.packets_per_second

    def day(self, index: int) -> int:
        return (self.seed + index) % 4

    def round_key(self, index: int) -> str:
        return f"day{self.day(index)}"

    def argv(self, day, extra: tuple[str, ...] | None = None) -> list:
        extra = self.extra_args if extra is None else extra
        return [
            "stream", STREAM_DETECTOR,
            "--source", f"repeat:caida:day={day},duration=120",
            "--emit-every", STREAM_EMIT, "--no-reset",
            "--chunk", str(CHUNK), *extra,
            "--max-packets", str(self.packets),
        ]

    def call(self, argv: list, probe: Probe) -> tuple[int, float]:
        """Run the command with its printing discarded; returns the exit
        code and the entry time."""
        probe.reset()
        entry = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code, entry

    def run_round(self, index, rnd, probe, tracer):
        code, entry = self.call(self.argv(self.day(index)), probe)
        if code != 0:
            rnd.problems.append(f"stream command exited {code}")
            return
        emitted = probe.emitted
        rnd.memory_mb = probe.memory_mb or workload_memory_mb()
        rnd.setup_s = probe.first_push - entry
        rnd.wall_s = probe.end - probe.first_push
        rnd.packets = self.packets
        rnd.emissions = {"stream": _records(e for e, _, _ in emitted)}
        closed = [(t, pushed) for e, t, pushed in emitted if not e.partial]
        rnd.latency_s = [t - pushed for t, pushed in closed]
        rnd.latency_events = len({pushed for _, pushed in closed})
        delivered = sum(e.packets for e, _, _ in emitted)
        if delivered != rnd.packets:
            rnd.problems.append(f"emissions cover {delivered} packets, "
                                f"expected {rnd.packets}")


class StreamEvict(StreamWorkload):
    name = "stream-evict"
    why = ("one process, decayed-spacesaving at its default 256 counters "
           "on ~3.5k sources: the scalar eviction tail, no IPC")
    tolerance = EVICT_REL_TOL

    def reference(self, key, probe):
        """Scalar ``update`` replay of the day's job."""
        spec = get_enumerable_spec(STREAM_DETECTOR)
        pipeline = StreamPipeline(
            ScalarReplay(spec.factory()),
            parse_emission_policy(STREAM_EMIT),
            phi=PHI, timestamped=spec.timestamped, reset_on_emit=False,
        )
        day = int(key.removeprefix("day"))
        source = parse_stream_spec(f"repeat:caida:day={day},duration=120")
        return {"stream": _records(pipeline.process(
            source, CHUNK, max_packets=self.packets))}


class StreamSharded(StreamWorkload):
    name = "stream-sharded"
    why = ("the same stream command with --shards 4 --workers 2: per-chunk "
           "partition and process fan-out with a pickle round trip")
    extra_args = ("--shards", str(SHARDS), "--workers", str(WORKERS))
    packets_per_second = 25_000

    def reference(self, key, probe):
        """The serial-backend run of the same 4-shard command."""
        day = int(key.removeprefix("day"))
        code, _ = self.call(self.argv(day, ("--shards", str(SHARDS))), probe)
        if code != 0:
            raise RuntimeError(f"serial reference run exited {code}")
        return {"stream": _records(e for e, _, _ in probe.emitted)}


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ServeLive, ServeCrash, StreamEvict,
                              StreamSharded)
}


# -- references, cached ----------------------------------------------------------

def _encode(records: list[tuple]) -> list:
    return [list(r[:3]) + [[list(item) for item in r[3]]] + list(r[4:])
            for r in records]


def _decode(rows: list) -> list[tuple]:
    return [tuple(r[:3]) + (tuple(tuple(item) for item in r[3]),)
            + tuple(r[4:]) for r in rows]


def cached_reference(workload: Workload, key: str,
                     probe: Probe) -> dict[str, list[tuple]]:
    """Reference records of one round key, computed once per job and
    program source."""
    ident = json.dumps({"workload": workload.name, "key": key,
                        "job": workload.job(), "src": source_digest(ROOT)},
                       sort_keys=True)
    path = CACHE_DIR / (hashlib.sha256(ident.encode()).hexdigest()[:24]
                        + ".json")
    if path.exists():
        doc = json.loads(path.read_text())
        if doc.get("ident") == ident:
            return {name: _decode(rows)
                    for name, rows in doc["streams"].items()}
    ref = workload.reference(key, probe)
    CACHE_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({"ident": ident, "streams": {
        name: _encode(records) for name, records in ref.items()}}))
    tmp.replace(path)
    return ref


# -- the run ----------------------------------------------------------------------

@dataclass
class Outcome:
    """Every round of a run, checked against its references."""

    rounds: list[Round]
    expected: int
    failed: int
    problems: list[str]
    leaks: list[str]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems and not self.leaks


def run_workload(workload: Workload, tracer: Tracer | None) -> Outcome:
    """Run every round (untraced, then traced when ``tracer`` is given),
    leak-checking after each, then check the emissions."""
    probe = Probe()
    rounds: list[Round] = []
    run_leaks = LeakCheck()
    probe.install()
    try:
        workload.prepare()
        for index in range(workload.rounds):
            for traced in ((False, True) if tracer else (False,)):
                rnd = Round(key=workload.round_key(index), traced=traced)
                leaks = LeakCheck()
                if traced:
                    tracer.install()
                    tracer.active = True
                try:
                    workload.run_round(index, rnd, probe,
                                       tracer if traced else None)
                except Exception as exc:
                    traceback.print_exc(file=sys.stderr)
                    rnd.problems.append(
                        f"round {index} raised {type(exc).__name__}: {exc}")
                finally:
                    if traced:
                        tracer.active = False
                        tracer.uninstall()
                rnd.leaks = leaks.check()
                rounds.append(rnd)
        refs = {key: cached_reference(workload, key, probe)
                for key in sorted({r.key for r in rounds})}
    finally:
        probe.uninstall()

    expected = failed = 0
    problems: list[str] = []
    leaks = run_leaks.check()
    for rnd in rounds:
        problems.extend(rnd.problems)
        leaks.extend(rnd.leaks)
        problems.extend(f"tenant {name} failed: {message}"
                        for name, message in rnd.tenant_failures.items())
        for stream, want in refs[rnd.key].items():
            expected += len(want)
            if stream in rnd.tenant_failures:
                failed += len(want)
            else:
                failed += count_failed(rnd.emissions.get(stream, []), want,
                                       workload.tolerance)
        if rnd.wall_s <= 0 and not rnd.problems:
            problems.append(f"round {rnd.key} produced no measurement")
    return Outcome(rounds, expected, failed, problems, leaks)
