"""Tests for repro.decay.decayed_spacesaving."""

import random

import pytest

from repro.decay.decayed_counter import ExactDecayedCounts
from repro.decay.decayed_spacesaving import DecayedSpaceSaving
from repro.decay.laws import ExponentialDecay, LinearDecay


class TestDecayedSpaceSaving:
    def test_exact_under_capacity(self):
        ss = DecayedSpaceSaving(8, ExponentialDecay(tau=10.0))
        ss.update(1, 100.0, ts=0.0)
        ss.update(2, 50.0, ts=0.0)
        assert ss.estimate(1, now=0.0) == pytest.approx(100.0)

    def test_eviction_inherits_decayed_min(self):
        ss = DecayedSpaceSaving(2, LinearDecay(rate=1.0))
        ss.update(1, 10.0, ts=0.0)
        ss.update(2, 20.0, ts=0.0)
        # At t=5 key 1 has decayed to 5; key 3 inherits that.
        ss.update(3, 1.0, ts=5.0)
        assert ss.estimate(3, now=5.0) == pytest.approx(6.0)
        assert len(ss) == 2

    def test_never_underestimates_vs_exact(self):
        rng = random.Random(0)
        law = ExponentialDecay(tau=5.0)
        ss = DecayedSpaceSaving(32, law)
        exact = ExactDecayedCounts(law)
        for i in range(4000):
            key = rng.randrange(200)
            w = float(rng.randrange(1, 20))
            ts = i * 0.01
            ss.update(key, w, ts)
            exact.update(key, w, ts)
        now = 40.0
        for key in range(200):
            assert ss.estimate(key, now) >= exact.estimate(key, now) - 1e-6

    def test_heavy_decayed_keys_tracked(self):
        rng = random.Random(1)
        law = ExponentialDecay(tau=5.0)
        ss = DecayedSpaceSaving(32, law)
        exact = ExactDecayedCounts(law)
        for i in range(4000):
            key = 7 if rng.random() < 0.3 else rng.randrange(500)
            ts = i * 0.01
            ss.update(key, 10.0, ts)
            exact.update(key, 10.0, ts)
        now = 40.0
        total = sum(exact.query(0.0, now).values())
        report = ss.query(0.1 * total, now)
        assert 7 in report

    def test_query_and_items(self):
        ss = DecayedSpaceSaving(4, LinearDecay(rate=1.0))
        ss.update(1, 100.0, ts=0.0)
        ss.update(2, 3.0, ts=0.0)
        assert set(ss.query(50.0, now=0.0)) == {1}
        assert set(ss.items(now=0.0)) == {1, 2}

    def test_decayed_values_in_items(self):
        ss = DecayedSpaceSaving(4, LinearDecay(rate=10.0))
        ss.update(1, 100.0, ts=0.0)
        assert ss.items(now=5.0)[1] == pytest.approx(50.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DecayedSpaceSaving(0, LinearDecay(1.0))

    def test_num_counters(self):
        assert DecayedSpaceSaving(16, LinearDecay(1.0)).num_counters == 16
