"""Tests for repro.sketch.countmin."""

import random

import pytest

from repro.sketch.countmin import CountMinHeavyHitters, CountMinSketch


class TestCountMinSketch:
    def test_exact_for_single_key(self):
        cm = CountMinSketch(width=64, rows=3)
        cm.update(42, 7)
        cm.update(42, 3)
        assert cm.estimate(42) >= 10

    def test_never_underestimates(self):
        rng = random.Random(0)
        cm = CountMinSketch(width=256, rows=4)
        truth: dict[int, int] = {}
        for _ in range(3000):
            key, w = rng.randrange(500), rng.randrange(1, 50)
            cm.update(key, w)
            truth[key] = truth.get(key, 0) + w
        for key, count in truth.items():
            assert cm.estimate(key) >= count

    def test_error_within_theory(self):
        # eps = e/width; error <= eps * N with prob 1 - e^-rows; with 4
        # rows failures are rare enough to assert on the 99th percentile.
        rng = random.Random(1)
        width, rows = 512, 4
        cm = CountMinSketch(width=width, rows=rows)
        truth: dict[int, int] = {}
        for _ in range(5000):
            key, w = rng.randrange(2000), rng.randrange(1, 10)
            cm.update(key, w)
            truth[key] = truth.get(key, 0) + w
        bound = 2.72 * cm.total / width
        errors = sorted(cm.estimate(k) - c for k, c in truth.items())
        assert errors[int(0.99 * len(errors))] <= bound

    def test_validation(self):
        with pytest.raises(ValueError):
            CountMinSketch(width=0)
        with pytest.raises(ValueError):
            CountMinSketch().update(1, -1)

    def test_num_counters(self):
        assert CountMinSketch(width=128, rows=3).num_counters == 384


class TestCountMinHeavyHitters:
    def test_reports_heavy_keys(self):
        rng = random.Random(3)
        det = CountMinHeavyHitters(width=512, rows=4, track_phi=0.001)
        for _ in range(5000):
            det.update(rng.randrange(200), 1)
        for _ in range(2000):
            det.update(7, 10)  # a clear heavy hitter
        report = det.query(0.2 * det.sketch.total)
        assert 7 in report

    def test_no_false_negatives_vs_threshold(self):
        rng = random.Random(4)
        det = CountMinHeavyHitters(width=1024, rows=4, track_phi=0.005)
        truth: dict[int, int] = {}
        for _ in range(8000):
            key, w = rng.randrange(300), rng.randrange(1, 20)
            det.update(key, w)
            truth[key] = truth.get(key, 0) + w
        threshold = 0.02 * det.sketch.total
        report = det.query(threshold)
        for key, count in truth.items():
            if count >= threshold:
                assert key in report  # CM never underestimates

    def test_track_phi_validation(self):
        with pytest.raises(ValueError):
            CountMinHeavyHitters(track_phi=0.0)

    def test_candidate_map_bounded(self):
        rng = random.Random(5)
        det = CountMinHeavyHitters(width=256, rows=4, track_phi=0.01)
        for _ in range(20000):
            det.update(rng.randrange(5000), 1)
        assert len(det._candidates) <= 4 / 0.01 + 1

    def test_batch_matches_scalar_through_prunes(self):
        # Geometrically growing weights admit every key as it appears, so
        # admissions quickly exceed the 4 / track_phi bound and the batch
        # path must take its mid-chunk prune-and-replay fallback.
        stream = []
        total = 10
        for key in range(120):
            w = int(0.3 * total) + 1
            stream.append((key, w))
            total += w
        scalar = CountMinHeavyHitters(width=256, rows=4, track_phi=0.2)
        batch = CountMinHeavyHitters(width=256, rows=4, track_phi=0.2)
        for key, w in stream:
            scalar.update(key, w)
        for start in range(0, len(stream), 30):
            chunk = stream[start:start + 30]
            batch.update_batch([k for k, _ in chunk], [w for _, w in chunk])
        assert batch.sketch.total == scalar.sketch.total
        assert batch._candidates == scalar._candidates
        assert batch.query(0.0) == scalar.query(0.0)
