"""Emission policies: cut placement, state round-trips, parsing."""

import numpy as np
import pytest

from repro.stream import (
    EveryNPackets,
    EveryTraceSeconds,
    parse_emission_policy,
)


class TestEveryNPackets:
    def test_cuts_every_n_across_chunks(self):
        policy = EveryNPackets(5)
        ts = np.arange(7, dtype=np.float64)
        assert policy.cuts(ts) == [(5, None)]
        # 2 packets carried over; next cut after 3 more.
        assert policy.cuts(ts) == [(3, None)]

    def test_multiple_cuts_in_one_chunk(self):
        policy = EveryNPackets(3)
        cuts = policy.cuts(np.arange(10, dtype=np.float64))
        assert cuts == [(3, None), (6, None), (9, None)]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            EveryNPackets(0)

    def test_state_round_trip(self):
        policy = EveryNPackets(5)
        policy.cuts(np.arange(7, dtype=np.float64))  # 2 packets pending
        clone = EveryNPackets(5)
        clone.load_state_dict(policy.state_dict())
        ts = np.arange(10, dtype=np.float64)
        # The clone continues where the original left off (cut after the
        # 3 packets completing the pending 5, then after 5 more).
        assert clone.cuts(ts) == [(3, None), (8, None)]


class TestEveryTraceSeconds:
    def test_cut_positions_are_left_of_the_edge(self):
        policy = EveryTraceSeconds(1.0)
        policy.start(0.0)
        ts = np.asarray([0.2, 0.9, 1.0, 1.4, 2.3])
        # Edge 1.0: packets before it are [0.2, 0.9] -> position 2;
        # edge 2.0: [1.0, 1.4] -> position 4.
        assert policy.cuts(ts) == [(2, 1.0), (4, 2.0)]

    def test_edge_waits_for_a_packet_past_it(self):
        policy = EveryTraceSeconds(1.0)
        policy.start(0.0)
        assert policy.cuts(np.asarray([0.2, 0.8])) == []
        assert policy.cuts(np.asarray([2.5])) == [(0, 1.0), (0, 2.0)]

    def test_requires_start(self):
        with pytest.raises(RuntimeError, match="start"):
            EveryTraceSeconds(1.0).cuts(np.asarray([0.5]))

    def test_state_round_trip_continues_the_schedule(self):
        policy = EveryTraceSeconds(1.0)
        policy.start(0.0)
        policy.cuts(np.asarray([0.5, 1.2]))
        clone = EveryTraceSeconds(1.0)
        clone.load_state_dict(policy.state_dict())
        assert clone.cuts(np.asarray([2.7])) == [(0, 2.0)]

    def test_restore_replays_the_exact_edge_sequence(self):
        ts = np.sort(np.random.default_rng(4).uniform(0, 20, 500))
        half = len(ts) // 2
        uninterrupted = EveryTraceSeconds(1.5)
        uninterrupted.start(float(ts[0]))
        first = uninterrupted.cuts(ts[:half])

        stopped = EveryTraceSeconds(1.5)
        stopped.start(float(ts[0]))
        assert stopped.cuts(ts[:half]) == first
        resumed = EveryTraceSeconds(1.5)
        resumed.load_state_dict(stopped.state_dict())
        # Bit-identical edges, not just approximately equal.
        assert resumed.cuts(ts[half:]) == uninterrupted.cuts(ts[half:])


class TestParsing:
    def test_spellings(self):
        assert isinstance(parse_emission_policy("5000p"), EveryNPackets)
        seconds = parse_emission_policy("2.5s")
        assert isinstance(seconds, EveryTraceSeconds)
        assert seconds.every_s == 2.5

    def test_describe_round_trips(self):
        for text in ("5000p", "2.5s"):
            rebuilt = parse_emission_policy(
                parse_emission_policy(text).describe()
            )
            assert type(rebuilt) is type(parse_emission_policy(text))

    def test_bad_spellings_rejected(self):
        for bad in ("", "10", "p", "-5p", "0p", "0s", "window:2", "10x"):
            with pytest.raises(ValueError):
                parse_emission_policy(bad)
