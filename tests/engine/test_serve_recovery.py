"""Worker crash recovery: the supervised serve runtime rebuilds killed
workers' tenants from auto-checkpoints and replays to byte-identical
emissions; the pool's death-detection and respawn mechanics underneath."""

from functools import partial

import pytest

from repro.core import make_detector
from repro.engine import (
    ServeError,
    ServePool,
    WorkerCrashError,
    shard_of_key,
)
from repro.stream import ServeRuntime

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
