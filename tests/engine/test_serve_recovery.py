"""Worker crash recovery: the supervised serve runtime rebuilds killed
workers' tenants from auto-checkpoints and replays to byte-identical
emissions; the pool's death-detection and respawn mechanics underneath."""

import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

import repro
from repro.core import get_spec, make_detector
from repro.engine import (
    ServeError,
    ServePool,
    ShardedDetector,
    WorkerCrashError,
    shard_of_key,
)
from repro.stream import (
    ServeRuntime,
    StreamPipeline,
    StreamSource,
    parse_emission_policy,
    parse_stream_spec,
)
from repro.trace.spec import TraceSpec

from tests.stream.test_serve import (
    CHUNK,
    EMIT,
    PHI,
    SPECS,
    _serial_emissions,
    _strip,
)

FACTORY = partial(make_detector, "countmin-hh")


class TestCrashRecovery:
    def test_killed_worker_recovers_byte_identical(self):
        """Kill one of two workers mid-run: both auto-checkpointed tenants
        are rebuilt and replayed, and every tenant's final emission
        sequence equals an uninterrupted serial run (the acceptance
        criterion for the supervised runtime)."""
        reference = {
            name: _serial_emissions(spec, shards=2)
            for name, spec in SPECS.items()
        }
        with ServeRuntime(workers=2, shards=2, chunk_size=CHUNK) as runtime:
            for name, spec in SPECS.items():
                runtime.add_tenant(name, "countmin-hh", spec, emit=EMIT,
                                   phi=PHI, max_packets=9000,
                                   checkpoint_every=1)
            runtime.on_turn = (
                lambda turn: runtime.pool.kill_worker(0) if turn == 5
                else None
            )
            observed = {name: [] for name in SPECS}
            for name, emission in runtime.run():
                observed[name].append(_strip(emission))
            assert not runtime.failed
            assert len(runtime.recoveries) == 1
            record = runtime.recoveries[0]
            assert record["workers"] == (0,)
            assert record["failed"] == ()
            assert record["seconds"] >= 0.0
        for name in SPECS:
            assert observed[name] == reference[name]
            for mine, theirs in zip(observed[name], reference[name]):
                assert list(mine.report.items()) == list(
                    theirs.report.items()
                )

    def test_emissions_delivered_before_crash_are_not_replayed(self):
        """The stitched stream (pre-crash deliveries + post-recovery
        replay) has no duplicates and no gaps: emission indices are
        exactly 0..n-1 in order."""
        with ServeRuntime(workers=2, shards=2, chunk_size=CHUNK) as runtime:
            runtime.add_tenant("t", "countmin-hh", SPECS["alpha"],
                               emit=EMIT, phi=PHI, max_packets=9000,
                               checkpoint_every=2)
            runtime.on_turn = (
                lambda turn: runtime.pool.kill_worker(1) if turn == 4
                else None
            )
            indices = [e.index for _, e in runtime.run()]
            assert runtime.recoveries
        assert indices == list(range(len(indices)))
        assert len(indices) > 0

    def test_uncheckpointed_tenant_fails_but_sibling_survives(self):
        """A crash fails only the tenants with no recoverable checkpoint;
        the checkpointed sibling replays to the serial reference and the
        failed one surfaces through ``failed`` / ``pipeline()``."""
        reference = _serial_emissions(SPECS["beta"], shards=2)
        with ServeRuntime(workers=2, shards=2, chunk_size=CHUNK) as runtime:
            runtime.add_tenant("doomed", "countmin-hh", SPECS["alpha"],
                               emit=EMIT, phi=PHI, max_packets=9000)
            runtime.add_tenant("safe", "countmin-hh", SPECS["beta"],
                               emit=EMIT, phi=PHI, max_packets=9000,
                               checkpoint_every=1)
            runtime.on_turn = (
                lambda turn: runtime.pool.kill_worker(0) if turn == 6
                else None
            )
            observed = [
                _strip(e) for name, e in runtime.run() if name == "safe"
            ]
            assert "doomed" in runtime.failed
            assert "no recoverable checkpoint" in runtime.failed["doomed"]
            assert "safe" not in runtime.failed
            assert runtime.recoveries[0]["failed"] == ("doomed",)
            with pytest.raises(ServeError, match="failed"):
                runtime.pipeline("doomed")
        assert observed == reference

    def test_no_recover_surfaces_crash_instead_of_hanging(self):
        """With supervision off, a killed worker raises WorkerCrashError
        out of ``run()`` promptly — the slot-reservation accounting must
        not deadlock the producer (the satellite-2 regression)."""
        with ServeRuntime(workers=2, shards=2, chunk_size=CHUNK,
                          recover=False) as runtime:
            runtime.add_tenant("t", "countmin-hh", SPECS["alpha"],
                               emit=EMIT, phi=PHI, max_packets=9000,
                               checkpoint_every=1)
            runtime.on_turn = (
                lambda turn: runtime.pool.kill_worker(0) if turn == 2
                else None
            )
            with pytest.raises(WorkerCrashError):
                list(runtime.run())
            assert not runtime.recoveries

    def test_crash_after_tenant_finished_rebuilds_final_state(self):
        """A tenant that already hit EOS before the crash is replayed in
        full (all emissions suppressed) so its queryable state is intact
        for a later checkpoint."""
        with ServeRuntime(workers=2, shards=2, chunk_size=CHUNK) as runtime:
            runtime.add_tenant("short", "countmin-hh", SPECS["alpha"],
                               emit=EMIT, phi=PHI, max_packets=2000,
                               checkpoint_every=1, emit_partial=False)
            runtime.add_tenant("long", "countmin-hh", SPECS["beta"],
                               emit=EMIT, phi=PHI, max_packets=9000,
                               checkpoint_every=1)
            first = [_strip(e) for _, e in runtime.run()]
            # "short" is done; crash, then drive "long" to completion.
            runtime.add_tenant("tail", "countmin-hh", SPECS["alpha"],
                               emit=EMIT, phi=PHI, max_packets=9000,
                               checkpoint_every=1)
            # The turn counter is cumulative across run() calls, so count
            # this phase's turns locally.
            phase_turns = []

            def hook(turn):
                phase_turns.append(turn)
                if len(phase_turns) == 3:
                    runtime.pool.kill_worker(1)

            runtime.on_turn = hook
            second = [_strip(e) for name, e in runtime.run()
                      if name == "short"]
            assert not runtime.failed
            assert runtime.recoveries
            # No replayed duplicates from the finished tenant ...
            assert second == []
            # ... and its post-recovery checkpoint still works.
            frozen = runtime.checkpoint_tenant("short")
            assert frozen["offsets"]["packets"] == 2000
        assert first  # sanity: the first phase emitted at all

    def test_crash_on_the_final_turn_is_recovered_before_run_returns(self):
        """A kill on the turn that ends the stream is found by the final
        barrier and recovered, so the tenant's final state (its digest)
        equals an uncrashed run's."""
        outcomes = []
        for kill_turn in (None, 2):
            with ServeRuntime(workers=1, shards=2,
                              chunk_size=CHUNK) as runtime:
                runtime.add_tenant("t", "countmin-hh", SPECS["alpha"],
                                   emit="500p", phi=PHI,
                                   max_packets=2 * CHUNK - 100,
                                   checkpoint_every=2)
                runtime.on_turn = (
                    lambda turn: runtime.pool.kill_worker(0)
                    if turn == kill_turn else None
                )
                emissions = [_strip(e) for _, e in runtime.run()]
                assert len(runtime.recoveries) == (kill_turn is not None)
                digest = runtime.pipeline("t").detector.state_digest()
            outcomes.append((emissions, digest))
        assert outcomes[1] == outcomes[0]


#: A drift stream of ~12k-packet cycles, rate-rewritten so 60k packets
#: span 15 one-second emissions.
READ_ONCE_SPEC = "repeat:drift:seed=7,duration=15@x5"
READ_ONCE_CHUNK = 2048
READ_ONCE_PACKETS = 60_000


class ReadOnceSource(StreamSource):
    """A source that can be read only once, like a live capture: every
    ``segments()`` call hands out the same shared iterator."""

    def __init__(self, spec):
        self._segments = parse_stream_spec(spec).segments()

    def segments(self):
        return self._segments


def _read_once_reference():
    spec = get_spec("countmin-hh")
    pipeline = StreamPipeline(
        ShardedDetector(spec.factory, 2), parse_emission_policy("1s"),
        phi=PHI, timestamped=spec.timestamped,
    )
    return [
        _strip(e) for e in pipeline.process(
            parse_stream_spec(READ_ONCE_SPEC), READ_ONCE_CHUNK,
            READ_ONCE_PACKETS,
        )
    ]


def _assert_same_emissions(observed, reference):
    assert observed == reference
    for mine, theirs in zip(observed, reference):
        assert list(mine.report.items()) == list(theirs.report.items())


class TestRecoveryReadsNoSource:
    """Recovery replays the tenant's own log of chunks pushed since its
    checkpoint, and rebalance hands on the chunks not pushed yet, so
    neither reads the source again."""

    def test_recovery_builds_no_trace(self, monkeypatch):
        """A tenant killed once its repeat: source is many cycles old
        catches up without building a single trace, and the run builds
        exactly as many as a crash-free run (it counts work, not time)."""
        builds = []
        build = TraceSpec.build

        def counting_build(spec, *args, **kwargs):
            builds.append(spec.scenario)
            return build(spec, *args, **kwargs)

        monkeypatch.setattr(TraceSpec, "build", counting_build)

        def serve(kill_turn):
            builds.clear()
            window = {}
            with ServeRuntime(workers=2, shards=2, chunk_size=1024) as rt:
                # drift:duration=5 cycles hold ~4k packets: the kill at
                # turn 30 lands ~7 cycles into the stream.
                pipeline = rt.add_tenant(
                    "t", "countmin-hh", "repeat:drift:seed=7,duration=5",
                    emit="1s", phi=PHI, max_packets=40_000,
                    checkpoint_every=4,
                )

                def hook(turn):
                    if turn == kill_turn:
                        window["packets"] = pipeline.packets
                        window["builds"] = len(builds)
                        rt.pool.kill_worker(0)
                    elif ("packets" in window and "caught_up" not in window
                          and rt.recoveries
                          and pipeline.packets >= window["packets"]):
                        window["caught_up"] = len(builds)

                rt.on_turn = hook
                emissions = [_strip(e) for _, e in rt.run()]
                assert len(rt.recoveries) == (kill_turn is not None)
            return emissions, len(builds), window

        clean, clean_builds, _ = serve(None)
        crashed, crashed_builds, window = serve(30)
        assert window["builds"] >= 6
        assert window["caught_up"] == window["builds"]
        assert crashed_builds == clean_builds
        assert crashed == clean

    @pytest.mark.parametrize("second_kill", ["later", "mid-replay"])
    def test_read_once_source_recovers_after_two_kills(self, second_kill):
        """Two kills of a tenant whose source cannot be read twice: both
        recoveries replay the log, and the emissions equal the
        uninterrupted serial run.  ``mid-replay`` lands the second kill
        while the tenant is still replaying after the first, so the log
        of the replayed part goes ahead of the replay still pending."""
        reference = _read_once_reference()
        state = {}
        with ServeRuntime(workers=2, shards=2,
                          chunk_size=READ_ONCE_CHUNK) as runtime:
            pipeline = runtime.add_tenant(
                "t", "countmin-hh", ReadOnceSource(READ_ONCE_SPEC),
                emit="1s", phi=PHI, max_packets=READ_ONCE_PACKETS,
                checkpoint_every=3,
            )

            def hook(turn):
                if turn == 10:
                    state["before"] = pipeline.packets
                    runtime.pool.kill_worker(0)
                elif "second" in state or len(runtime.recoveries) != 1:
                    return
                elif "restored" not in state:
                    state["restored"] = pipeline.packets
                elif second_kill == "later" and turn == 20:
                    state["second"] = pipeline.packets
                    runtime.pool.kill_worker(1)
                elif (second_kill == "mid-replay"
                      and state["restored"] < pipeline.packets
                      < state["before"]):
                    # Part of the log is pushed (and logged) again, part
                    # is still pending.
                    state["second"] = pipeline.packets
                    runtime.pool.kill_worker(1)

            runtime.on_turn = hook
            observed = [_strip(e) for _, e in runtime.run()]
            assert not runtime.failed
            assert len(runtime.recoveries) == 2
        if second_kill == "mid-replay":
            assert state["second"] < state["before"]
        _assert_same_emissions(observed, reference)

    @pytest.mark.parametrize("when", ["live", "mid-replay"])
    def test_read_once_source_rebalances_to_another_runtime(self, when):
        """rebalance() hands the target the chunks the tenant has not
        pushed yet, so a read-once tenant moves without losing or
        repeating a packet.  ``mid-replay`` moves it right after a
        crash, before it has replayed its log: the pending chunks move
        too, and emissions delivered before the crash are not delivered
        again."""
        reference = _read_once_reference()
        moved = {}
        with ServeRuntime(workers=1, shards=2,
                          chunk_size=READ_ONCE_CHUNK) as a, \
                ServeRuntime(workers=2, shards=2,
                             chunk_size=READ_ONCE_CHUNK) as b:
            pipeline = a.add_tenant(
                "t", "countmin-hh", ReadOnceSource(READ_ONCE_SPEC),
                emit="1s", phi=PHI, max_packets=READ_ONCE_PACKETS,
                checkpoint_every=3,
            )

            def hook(turn):
                if "packets" in moved:
                    return
                if when == "live" and turn == 12:
                    moved["packets"] = pipeline.packets
                    a.rebalance("t", target=b)
                elif when == "mid-replay" and turn == 10:
                    moved["before"] = pipeline.packets
                    a.pool.kill_worker(0)
                elif when == "mid-replay" and a.recoveries:
                    moved["packets"] = pipeline.packets
                    a.rebalance("t", target=b)

            a.on_turn = hook
            observed = [_strip(e) for _, e in a.run()]
            assert a.tenants == () and b.tenants == ("t",)
            observed += [_strip(e) for _, e in b.run()]
            assert not a.failed and not b.failed
        if when == "mid-replay":
            assert moved["packets"] < moved["before"]
        _assert_same_emissions(observed, reference)


class TestPoolMechanics:
    def test_kill_is_detected_on_next_command(self):
        with ServePool(2, 2, chunk_capacity=64) as pool:
            pool.open_tenant("t", FACTORY)
            assert pool.dead_workers == ()
            pool.kill_worker(0)
            # Even with no chunk in flight, the next sync point notices:
            # a barrier checks that every worker is still alive.
            with pytest.raises(WorkerCrashError) as info:
                pool.barrier()
            assert info.value.worker == 0
            assert pool.dead_workers == (0,)
            # Further commands fail fast instead of hanging on the pipe.
            with pytest.raises(WorkerCrashError):
                pool.query("t", 1.0)

    def test_kill_worker_bounds_check(self):
        with ServePool(1, chunk_capacity=64) as pool:
            with pytest.raises(ValueError, match="no such worker"):
                pool.kill_worker(3)

    def test_respawn_reopens_tenants_empty(self):
        """respawn_dead() revives the worker with fresh (empty) detectors
        for every registered tenant; the survivor's shards keep their
        state, so a query sees only the surviving half."""
        key0 = next(k for k in range(64) if shard_of_key(k, 2) == 0)
        key1 = next(k for k in range(64) if shard_of_key(k, 2) == 1)
        with ServePool(2, 2, chunk_capacity=64) as pool:
            det = pool.open_tenant("t", FACTORY)
            det.update(key0, 50.0)   # shard 0 -> worker 0
            det.update(key1, 70.0)   # shard 1 -> worker 1
            pool.barrier()
            pool.kill_worker(0)
            with pytest.raises(WorkerCrashError):
                pool.query("t", 1.0)
            assert pool.respawn_dead() == (0,)
            assert pool.dead_workers == ()
            report = det.query(1.0)
            assert report == {key1: 70.0}
            # The revived worker accepts updates again.
            det.update(key0, 5.0)
            assert det.query(1.0) == {key1: 70.0, key0: 5.0}

    def test_respawn_with_nothing_dead_is_a_no_op(self):
        with ServePool(1, chunk_capacity=64) as pool:
            assert pool.respawn_dead() == ()

    def test_dead_worker_releases_slot_reservations(self):
        """Shipping a long burst into a killed worker must raise, not
        block on slot acquisition (the leak fixed in this PR): pending
        reservations are released when the death is detected."""
        with ServePool(1, 1, chunk_capacity=16, slots=2) as pool:
            det = pool.open_tenant("t", FACTORY)
            pool.kill_worker(0)
            with pytest.raises(WorkerCrashError):
                for start in range(0, 160, 16):
                    det.update_batch(list(range(start, start + 16)))
                pool.barrier()
            # All reservations were returned with the crash.
            assert sum(pool._slot_users) == 0

    def test_tenants_are_ordered_by_registration(self):
        with ServePool(1, chunk_capacity=64) as pool:
            for name in ("gamma", "alpha", "beta"):
                pool.open_tenant(name, FACTORY)
            assert pool.tenants == ("gamma", "alpha", "beta")
            pool.close_tenant("alpha")
            assert pool.tenants == ("gamma", "beta")
            pool.open_tenant("alpha", FACTORY)
            assert pool.tenants == ("gamma", "beta", "alpha")


#: Builds a 2-worker pool, reports its process ids and ring name, then
#: waits to be killed.
_SUPERVISOR = """
import json, os, sys, time
from multiprocessing import resource_tracker
from repro.engine import ServePool
pool = ServePool(2, 2, chunk_capacity=64)
info = {"workers": [proc.pid for proc in pool._procs],
        "tracker": resource_tracker._resource_tracker._pid,
        "ring": pool.ring.name}
with open(sys.argv[1] + ".tmp", "w") as f:
    json.dump(info, f)
os.replace(sys.argv[1] + ".tmp", sys.argv[1])
time.sleep(120)
"""


def _running(pid):
    """Whether ``pid`` is a live (not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


@pytest.mark.skipif(not os.path.isdir("/proc") or
                    not os.path.isdir("/dev/shm"),
                    reason="needs /proc and /dev/shm")
class TestSupervisorDeath:
    def test_killed_supervisor_takes_workers_and_segment_down(self, tmp_path):
        """SIGKILL the process that owns a 2-worker pool: both workers see
        their pipe close and exit, and the resource tracker then unlinks
        the ring's shared-memory segment.  Whatever is still running (or
        left in /dev/shm) afterwards is killed and removed here, so a
        failing run leaks nothing."""
        info_path = tmp_path / "pool.json"
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        with open(tmp_path / "stderr", "w") as err:
            supervisor = subprocess.Popen(
                [sys.executable, "-c", _SUPERVISOR, str(info_path)],
                stdout=subprocess.DEVNULL, stderr=err, env=env,
            )
        info = None
        try:
            deadline = time.monotonic() + 60
            while not info_path.exists():
                assert supervisor.poll() is None, (
                    (tmp_path / "stderr").read_text()
                )
                assert time.monotonic() < deadline, "pool never came up"
                time.sleep(0.05)
            info = json.loads(info_path.read_text())
            segment = Path("/dev/shm") / info["ring"]
            assert segment.exists()
            supervisor.kill()
            supervisor.wait(timeout=10)
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and (
                any(_running(pid) for pid in info["workers"])
                or segment.exists()
            ):
                time.sleep(0.05)
            assert not any(_running(pid) for pid in info["workers"])
            assert not segment.exists()
        finally:
            if supervisor.poll() is None:
                supervisor.kill()
                supervisor.wait(timeout=10)
            if info is not None:
                for pid in info["workers"]:
                    if _running(pid):
                        with contextlib.suppress(ProcessLookupError):
                            os.kill(pid, signal.SIGKILL)
                # With the workers gone the tracker unlinks the segment
                # and exits; give it a moment before forcing both.
                time.sleep(0.5)
                if _running(info["tracker"]):
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(info["tracker"], signal.SIGKILL)
                with contextlib.suppress(FileNotFoundError):
                    (Path("/dev/shm") / info["ring"]).unlink()
