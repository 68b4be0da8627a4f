"""Tests for both time-decaying Bloom filter variants."""

import pytest

from repro.decay.laws import ExponentialDecay, LinearDecay
from repro.decay.ondemand_tdbf import OnDemandTDBF
from repro.decay.tdbf import TimeDecayingBloomFilter


class TestSynchronousTDBF:
    def make(self, **kw):
        kw.setdefault("cells", 1024)
        kw.setdefault("hashes", 3)
        kw.setdefault("law", ExponentialDecay(tau=10.0))
        return TimeDecayingBloomFilter(**kw)

    def test_requires_law(self):
        with pytest.raises(ValueError):
            TimeDecayingBloomFilter(cells=10, hashes=2, law=None)

    def test_insert_then_estimate(self):
        f = self.make()
        f.update(1, 100.0, ts=0.0)
        assert f.estimate(1) >= 100.0

    def test_estimate_decays_with_time(self):
        f = self.make()
        f.update(1, 100.0, ts=0.0)
        early = f.estimate(1, now=1.0)
        late = f.estimate(1, now=20.0)
        assert late < early
        assert late == pytest.approx(100.0 * pow(2.718281828, -2), rel=0.01)

    def test_clock_never_goes_backwards(self):
        f = self.make()
        f.tick(5.0)
        with pytest.raises(ValueError):
            f.tick(4.0)

    def test_contains_with_threshold(self):
        f = self.make(law=LinearDecay(rate=10.0))
        f.update(3, 50.0, ts=0.0)
        assert f.estimate(3, now=1.0) == pytest.approx(40.0)
        assert f.estimate(3, now=4.9) == pytest.approx(1.0)

    def test_never_underestimates_single_key(self):
        # Bloom collisions only ever add mass: min-cell is an overestimate.
        f = self.make(cells=64, hashes=2)
        for key in range(50):
            f.update(key, 10.0, ts=0.0)
        assert f.estimate(7, now=0.0) >= 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(cells=0)
        f = self.make()
        with pytest.raises(ValueError):
            f.update(1, -1.0, ts=0.0)


class TestOnDemandTDBF:
    def make(self, **kw):
        kw.setdefault("cells", 1024)
        kw.setdefault("hashes", 3)
        kw.setdefault("law", ExponentialDecay(tau=10.0))
        return OnDemandTDBF(**kw)

    def test_requires_law(self):
        with pytest.raises(ValueError):
            OnDemandTDBF(cells=10, hashes=2, law=None)

    def test_lazy_decay_matches_synchronous(self):
        """The on-demand filter must agree with the ticking filter on a
        shared workload (composable law => lazy application is exact)."""
        law = ExponentialDecay(tau=5.0)
        sync = TimeDecayingBloomFilter(cells=512, hashes=3, law=law)
        lazy = OnDemandTDBF(cells=512, hashes=3, law=law)
        workload = [(1, 10.0, 0.0), (2, 20.0, 1.0), (1, 5.0, 3.0), (3, 7.0, 4.5)]
        for key, w, ts in workload:
            sync.update(key, w, ts)
            lazy.update(key, w, ts)
        for key in (1, 2, 3, 99):
            assert lazy.estimate(key, now=6.0) == pytest.approx(
                sync.estimate(key, now=6.0), rel=1e-9
            )

    def test_estimate_is_read_only(self):
        f = self.make()
        f.update(1, 100.0, ts=0.0)
        first = f.estimate(1, now=5.0)
        second = f.estimate(1, now=5.0)
        assert first == second

    def test_out_of_order_update_keeps_one_sided(self):
        f = self.make()
        f.update(1, 100.0, ts=10.0)
        f.update(1, 50.0, ts=8.0)  # late packet
        # The late mass is decayed by its lateness, never inflated.
        estimate = f.estimate(1, now=10.0)
        assert 100.0 < estimate <= 150.0

    def test_decay_drains_to_zero(self):
        f = self.make(law=LinearDecay(rate=100.0))
        f.update(5, 50.0, ts=0.0)
        assert f.estimate(5, now=1.0) == 0.0

    def test_no_reset_needed_for_long_streams(self):
        """The Section 3 claim: decay prevents counter blow-up without any
        window reset."""
        f = self.make(law=ExponentialDecay(tau=1.0), cells=256, hashes=3)
        for i in range(5000):
            f.update(i % 50, 10.0, ts=i * 0.01)
        # Steady state: estimate bounded by in-rate * tau, not by stream length.
        est = f.estimate(25, now=50.0)
        assert est < 5000  # far below total inserted mass (50_000)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(hashes=0)
        f = self.make()
        with pytest.raises(ValueError):
            f.update(1, -5.0, ts=0.0)
