"""Tests for repro.decay.decayed_counter."""

import math

import pytest

from repro.decay.decayed_counter import DecayedCounter, ExactDecayedCounts
from repro.decay.laws import ExponentialDecay, LinearDecay


class TestDecayedCounter:
    def test_add_and_read(self):
        c = DecayedCounter(ExponentialDecay(tau=10.0))
        c.add(100.0, ts=0.0)
        assert c.read(0.0) == pytest.approx(100.0)
        assert c.read(10.0) == pytest.approx(100.0 / math.e)

    def test_accumulates_with_decay(self):
        c = DecayedCounter(LinearDecay(rate=1.0))
        c.add(10.0, ts=0.0)
        c.add(10.0, ts=5.0)
        assert c.read(5.0) == pytest.approx(15.0)

    def test_read_before_stamp_returns_value(self):
        c = DecayedCounter(ExponentialDecay(tau=1.0))
        c.add(10.0, ts=5.0)
        assert c.read(4.0) == pytest.approx(10.0)

    def test_late_add_decays_contribution(self):
        c = DecayedCounter(ExponentialDecay(tau=10.0))
        c.add(100.0, ts=10.0)
        c.add(100.0, ts=0.0)  # 10 seconds late
        expected = 100.0 + 100.0 / math.e
        assert c.read(10.0) == pytest.approx(expected)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            DecayedCounter(LinearDecay(1.0)).add(-1.0, ts=0.0)


class TestExactDecayedCounts:
    def test_query_thresholds(self):
        d = ExactDecayedCounts(ExponentialDecay(tau=10.0))
        d.update(1, 100.0, ts=0.0)
        d.update(2, 10.0, ts=0.0)
        report = d.query(50.0, now=0.0)
        assert set(report) == {1}

    def test_decay_expires_old_keys(self):
        d = ExactDecayedCounts(LinearDecay(rate=10.0))
        d.update(1, 50.0, ts=0.0)
        assert d.query(1.0, now=10.0) == {}

    def test_estimate_unseen_key(self):
        d = ExactDecayedCounts(LinearDecay(1.0))
        assert d.estimate(9, now=1.0) == 0.0

    def test_steady_state_equals_rate_times_tau(self):
        """The calibration identity behind tau=window: a constant-rate flow's
        decayed volume converges to rate * tau."""
        tau = 5.0
        d = ExactDecayedCounts(ExponentialDecay(tau=tau))
        rate = 100.0  # bytes per second, 10 updates/s
        for i in range(2000):
            d.update(1, rate / 10.0, ts=i * 0.1)
        steady = d.estimate(1, now=199.9)
        assert steady == pytest.approx(rate * tau, rel=0.05)
