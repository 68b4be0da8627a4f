"""Tests for repro.hhh.exact_hh."""

import pytest

from repro.hhh.exact_hh import exact_heavy_hitters


class TestExactHeavyHitters:
    def test_filters_by_threshold(self):
        counts = {1: 100, 2: 50, 3: 10}
        assert exact_heavy_hitters(counts, 50) == {1: 100, 2: 50}

    def test_empty(self):
        assert exact_heavy_hitters({}, 10) == {}

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            exact_heavy_hitters({1: 5}, 0)
