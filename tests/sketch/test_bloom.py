"""Tests for repro.sketch.bloom."""

import pytest

from repro.sketch.bloom import BloomFilter


class TestBloomFilter:
    def test_no_false_negatives(self):
        # Sized for 500 keys at a 1% false-positive rate.
        bf = BloomFilter(bits=4793, hashes=7)
        keys = list(range(0, 5000, 10))
        for key in keys:
            bf.add(key)
        assert all(key in bf for key in keys)

    def test_false_positive_rate_near_target(self):
        # Sized for 1000 keys at a 2% false-positive rate.
        bf = BloomFilter(bits=8143, hashes=6)
        for key in range(1000):
            bf.add(key)
        false_positives = sum(1 for key in range(10_000, 30_000) if key in bf)
        rate = false_positives / 20_000
        assert rate < 0.06  # target 0.02 with slack

    def test_saturation_destroys_filtering(self):
        # The windowed-reset motivation: saturate and everything matches.
        bf = BloomFilter(bits=128, hashes=2)
        for key in range(5000):
            bf.add(key)
        assert all(key in bf for key in range(99_000, 99_100))

    def test_validation(self):
        with pytest.raises(ValueError):
            BloomFilter(bits=0)
        with pytest.raises(ValueError):
            BloomFilter(hashes=0)
