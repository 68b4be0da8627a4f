"""Tests for repro.decay.decayed_countmin."""

import math
import random

import pytest

from repro.decay.decayed_counter import ExactDecayedCounts
from repro.decay.decayed_countmin import DecayedCountMin
from repro.decay.laws import ExponentialDecay, LinearDecay


class TestDecayedCountMin:
    def test_requires_law(self):
        with pytest.raises(ValueError):
            DecayedCountMin(width=16, rows=2, law=None)

    def test_single_key_decays(self):
        cm = DecayedCountMin(width=256, rows=3, law=ExponentialDecay(tau=10.0))
        cm.update(1, 100.0, ts=0.0)
        assert cm.estimate(1, now=0.0) >= 100.0
        assert cm.estimate(1, now=10.0) == pytest.approx(
            100.0 / math.e, rel=0.01
        )

    def test_never_underestimates_vs_exact_decayed(self):
        rng = random.Random(0)
        law = ExponentialDecay(tau=5.0)
        cm = DecayedCountMin(width=512, rows=4, law=law)
        exact = ExactDecayedCounts(law)
        for i in range(3000):
            key = rng.randrange(300)
            w = float(rng.randrange(1, 20))
            ts = i * 0.01
            cm.update(key, w, ts)
            exact.update(key, w, ts)
        now = 30.0
        for key in range(300):
            assert cm.estimate(key, now) >= exact.estimate(key, now) - 1e-6

    def test_late_packet_one_sided(self):
        cm = DecayedCountMin(width=64, rows=2, law=ExponentialDecay(tau=10.0))
        cm.update(1, 100.0, ts=10.0)
        cm.update(1, 50.0, ts=5.0)
        estimate = cm.estimate(1, now=10.0)
        assert 100.0 < estimate <= 150.0

    def test_steady_state_bounded(self):
        cm = DecayedCountMin(width=256, rows=3, law=ExponentialDecay(tau=1.0))
        for i in range(4000):
            cm.update(i % 20, 10.0, ts=i * 0.01)
        # Bounded by in-rate * tau (plus collision noise), not stream length.
        assert cm.estimate(5, now=40.0) < 4000

    def test_contains_threshold(self):
        cm = DecayedCountMin(width=128, rows=3, law=LinearDecay(rate=10.0))
        cm.update(9, 50.0, ts=0.0)
        assert cm.estimate(9, now=1.0) == pytest.approx(40.0)
        assert cm.estimate(9, now=5.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DecayedCountMin(width=0, law=LinearDecay(1.0))
        cm = DecayedCountMin(law=LinearDecay(1.0))
        with pytest.raises(ValueError):
            cm.update(1, -1.0, ts=0.0)

    def test_num_counters(self):
        cm = DecayedCountMin(width=100, rows=4, law=LinearDecay(1.0))
        assert cm.num_counters == 400
