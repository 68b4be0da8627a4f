"""Unit tests for repro.trace.zipf."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.trace.zipf import ZipfSampler


def make(n=100, alpha=1.0, seed=0):
    return ZipfSampler(n, alpha, np.random.default_rng(seed))


class TestConstruction:
    def test_probabilities_normalised(self):
        z = make()
        assert z.probabilities.sum() == pytest.approx(1.0)

    def test_probabilities_decreasing(self):
        z = make(alpha=1.2)
        assert np.all(np.diff(z.probabilities) <= 0)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ZipfSampler(0, 1.0, rng)
        with pytest.raises(ValueError):
            ZipfSampler(10, 0.0, rng)


class TestSampling:
    def test_sample_range(self):
        z = make()
        ranks = z.sample(1000)
        assert ranks.min() >= 0 and ranks.max() < z.n

    def test_sample_zero(self):
        assert len(make().sample(0)) == 0

    def test_sample_negative_rejected(self):
        with pytest.raises(ValueError):
            make().sample(-1)

    def test_empirical_matches_theoretical_head(self):
        z = make(n=50, alpha=1.0, seed=1)
        ranks = z.sample(200_000)
        freq0 = np.mean(ranks == 0)
        assert freq0 == pytest.approx(z.probabilities[0], rel=0.05)

    def test_head_share(self):
        z = make(n=10, alpha=1.0)
        assert z.head_share(10) == pytest.approx(1.0)
        assert 0 < z.head_share(1) < 1
        assert z.head_share(100) == pytest.approx(1.0)  # capped at n


class TestWeightedSampling:
    def test_zero_weight_excludes(self):
        z = make(n=10)
        weights = np.ones(10)
        weights[3] = 0.0
        ranks = z.sample(5000, z.weighted_cdf(weights))
        assert 3 not in set(ranks.tolist())

    def test_boost_increases_frequency(self):
        z = make(n=100, alpha=1.0, seed=2)
        weights = np.ones(100)
        weights[50] = 200.0
        ranks = z.sample(50_000, z.weighted_cdf(weights))
        boosted = np.mean(ranks == 50)
        assert boosted > z.probabilities[50] * 10

    def test_sorted_lookup_matches_plain_searchsorted(self):
        """sample() looks draws up in sorted order; the ranks are the
        ones a plain searchsorted of the draws gives, for draws equal to
        a CDF entry and zero-weight runs of equal entries too."""
        weights = np.random.default_rng(1).random(500)
        weights[100:140] = 0.0
        cdf = make(n=500, alpha=1.1).weighted_cdf(weights)
        draws = np.concatenate(
            [np.random.default_rng(8).random(3000), cdf[:-1]]
        )
        fixed = SimpleNamespace(random=lambda count: draws[:count])
        z = ZipfSampler(500, 1.1, fixed)
        expected = np.searchsorted(cdf, draws, side="left")
        assert np.array_equal(z.sample(len(draws), cdf), expected)

    def test_weights_length_validated(self):
        with pytest.raises(ValueError):
            make(n=10).weighted_cdf(np.ones(9))

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            make(n=10).weighted_cdf(np.zeros(10))


class TestReweightHead:
    def test_head_shares_pinned(self):
        z = make(n=1000, alpha=1.0, seed=3)
        z.reweight_head([0.10, 0.08])
        assert z.probabilities[0] == pytest.approx(0.10)
        assert z.probabilities[1] == pytest.approx(0.08)
        assert z.probabilities.sum() == pytest.approx(1.0)

    def test_tail_keeps_relative_order(self):
        z = make(n=100, alpha=1.0, seed=4)
        before = z.probabilities.copy()
        z.reweight_head([0.2])
        ratio = z.probabilities[5] / z.probabilities[50]
        assert ratio == pytest.approx(before[5] / before[50])

    def test_validation(self):
        z = make(n=10)
        with pytest.raises(ValueError):
            z.reweight_head([0.1] * 10)  # as large as population
        with pytest.raises(ValueError):
            z.reweight_head([1.5])


class TestFromProbabilities:
    def test_explicit_vector(self):
        rng = np.random.default_rng(5)
        z = ZipfSampler.from_probabilities(np.array([0.5, 0.25, 0.25]), rng)
        ranks = z.sample(10_000)
        assert np.mean(ranks == 0) == pytest.approx(0.5, abs=0.02)

    def test_normalises(self):
        rng = np.random.default_rng(6)
        z = ZipfSampler.from_probabilities(np.array([2.0, 2.0]), rng)
        assert z.probabilities.tolist() == [0.5, 0.5]

    def test_rejects_bad_vectors(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            ZipfSampler.from_probabilities(np.array([]), rng)
        with pytest.raises(ValueError):
            ZipfSampler.from_probabilities(np.array([0.0, 0.0]), rng)
        with pytest.raises(ValueError):
            ZipfSampler.from_probabilities(np.array([-1.0, 2.0]), rng)
