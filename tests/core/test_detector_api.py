"""Tests for the unified Detector ABC (repro.core.detector)."""

import numpy as np
import pytest

from repro.core import Detector, as_batch, detector_names, get_spec, make_detector
from repro.sketch.bloom import BloomFilter
from repro.sketch.countmin import CountMinSketch
from repro.sketch.countsketch import CountSketch
from repro.sketch.hashpipe import HashPipe
from repro.sketch.misragries import MisraGries
from repro.sketch.spacesaving import SpaceSaving


class TestABC:
    def test_cannot_instantiate_abstract(self):
        with pytest.raises(TypeError):
            Detector()

    def test_all_registered_are_detectors(self):
        for name in detector_names():
            assert isinstance(make_detector(name), Detector), name

    def test_query_default_raises(self):
        det = make_detector("countmin")
        with pytest.raises(NotImplementedError):
            det.query(1.0)

    def test_merge_default_raises(self):
        det = make_detector("hashpipe")
        with pytest.raises(NotImplementedError):
            det.merge(make_detector("hashpipe"))


class TestAsBatch:
    def test_defaults_weights_to_ones(self):
        keys, weights, ts = as_batch([1, 2, 3], None, None)
        assert weights.tolist() == [1, 1, 1]
        assert ts is None

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            as_batch([1, 2], [1], None)
        with pytest.raises(ValueError):
            as_batch([1, 2], [1, 1], [0.0])


class TestGenericFallback:
    def test_fallback_replays_scalar_updates(self):
        det = SpaceSaving(16)
        det.update_batch([5, 5, 7], [10, 20, 30])
        assert det.estimate(5) == 30
        assert det.estimate(7) == 30
        assert det.total == 60

    def test_fallback_with_default_weights(self):
        det = SpaceSaving(16)
        det.update_batch([1, 1, 2])
        assert det.estimate(1) == 2
        assert det.total == 3


class TestReset:
    @pytest.mark.parametrize("name", [n for n in detector_names()])
    def test_reset_restores_fresh_state(self, name):
        spec = get_spec(name)
        det = spec.factory()
        ts = [0.5, 1.0, 1.5, 2.0]
        keys = [11, 29, 11, 47]
        for key, t in zip(keys, ts):
            det.update(key, 100, t)
        assert spec.estimate(det, 11, now=3.0) > 0
        det.reset()
        assert spec.estimate(det, 11, now=3.0) == 0.0

    def test_reset_reseeds_rhhh_rng(self):
        a = make_detector("rhhh", seed=3)
        b = make_detector("rhhh", seed=3)
        for key in range(50):
            a.update(key, 1)
        a.reset()
        for key in range(50):
            a.update(key, 1)
            b.update(key, 1)
        assert a._levels[0].items() == b._levels[0].items()


class TestRejectedWeight:
    @pytest.mark.parametrize("name", detector_names())
    def test_rejected_negative_weight_leaves_state_unchanged(self, name):
        """A scalar ``update`` that rejects a negative weight does so
        before touching state, as the batch paths do: a new key at a
        later time (a new bucket, a fresh counter, a sampler draw) leaves
        the digest as it was."""
        det = get_spec(name).factory()
        for key, t in zip([11, 29, 11, 47], [0.5, 1.0, 1.5, 2.0]):
            det.update(key, 100, t)
        before = det.state_digest()
        try:
            det.update(12345, -5, 50.0)
        except ValueError:
            assert det.state_digest() == before


class TestMerge:
    def test_countmin_merge_sums(self):
        a, b = CountMinSketch(width=128, rows=4), CountMinSketch(width=128, rows=4)
        a.update(1, 10)
        b.update(1, 5)
        b.update(2, 7)
        a.merge(b)
        assert a.estimate(1) == 15
        assert a.estimate(2) >= 7
        assert a.total == 22

    def test_countmin_merge_geometry_mismatch(self):
        with pytest.raises(ValueError):
            CountMinSketch(width=128).merge(CountMinSketch(width=64))

    def test_countsketch_merge_sums(self):
        a, b = CountSketch(width=128, rows=5), CountSketch(width=128, rows=5)
        a.update(9, 4)
        b.update(9, 6)
        a.merge(b)
        assert a.estimate(9) == pytest.approx(10)

    def test_bloom_merge_is_union(self):
        a, b = BloomFilter(bits=1024, hashes=3), BloomFilter(bits=1024, hashes=3)
        a.add(1)
        b.add(2)
        a.merge(b)
        assert 1 in a and 2 in a

    def test_spacesaving_merge_disjoint_under_capacity(self):
        a, b = SpaceSaving(16), SpaceSaving(16)
        a.update(1, 10)
        b.update(2, 20)
        a.merge(b)
        assert a.estimate(1) == 10
        assert a.estimate(2) == 20
        assert a.total == 30

    def test_spacesaving_merge_keeps_top_capacity(self):
        a, b = SpaceSaving(2), SpaceSaving(2)
        a.update(1, 10)
        a.update(2, 5)
        b.update(3, 50)
        b.update(4, 1)
        a.merge(b)
        assert len(a) == 2
        # The two largest merged counts survive; overestimates preserved.
        assert a.estimate(3) >= 50
        assert a.estimate(1) >= 10

    def test_misragries_merge_keeps_guarantee(self):
        a, b = MisraGries(2), MisraGries(2)
        for _ in range(30):
            a.update(1)
        for _ in range(20):
            a.update(2)
        for _ in range(25):
            b.update(1)
        for _ in range(5):
            b.update(3)
        total = a.total + b.total
        a.merge(b)
        assert a.total == total
        # Underestimate within N/(capacity+1) of the true count of key 1.
        assert a.estimate(1) <= 55
        assert a.estimate(1) >= 55 - total // 3

    def test_merge_type_mismatch(self):
        with pytest.raises(ValueError):
            CountMinSketch().merge(HashPipe())
