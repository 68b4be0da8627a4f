"""Tests for the Section 3 comparison experiment (``decay-comparison``)."""

import pytest

from repro.experiments import make_experiment


@pytest.fixture(scope="module")
def comparison(request):
    from repro.trace import presets

    trace = presets.caida_like_day(0, duration=30.0)
    exp = make_experiment(
        "decay-comparison", window_size=5.0, phi=0.05, counters_per_level=64
    )
    return exp.run(trace)


def _score(comparison, name):
    return next(r for r in comparison.rows if r["detector"] == name)


class TestDecayComparison:
    def test_all_detectors_scored(self, comparison):
        names = {r["detector"] for r in comparison.rows}
        assert names == {
            "disjoint-exact",
            "disjoint-rhhh",
            "disjoint-perlevel-ss",
            "td-hhh",
        }

    def test_scores_bounded(self, comparison):
        for row in comparison.rows:
            assert 0.0 <= row["recall"] <= 1.0
            assert 0.0 <= row["precision"] <= 1.0
            assert 0.0 <= row["hidden_recall"] <= 1.0

    def test_disjoint_exact_misses_hidden_by_construction(self, comparison):
        score = _score(comparison, "disjoint-exact")
        assert score["hidden_recall"] == 0.0
        assert score["window_reset"] == "yes"

    def test_td_hhh_recovers_hidden(self, comparison):
        """The Section 3 thesis: the windowless detector sees (most of)
        what disjoint windows hide."""
        td = _score(comparison, "td-hhh")
        exact = _score(comparison, "disjoint-exact")
        assert td["window_reset"] == "no"
        if comparison.headline["num_hidden_occurrences"] > 0:
            assert td["hidden_recall"] > exact["hidden_recall"]
            assert td["hidden_recall"] > 0.3
        assert comparison.headline["td_hidden_recall"] == td["hidden_recall"]

    def test_td_overall_recall_competitive(self, comparison):
        assert _score(comparison, "td-hhh")["recall"] > 0.5

    def test_resources_recorded(self, comparison):
        td = _score(comparison, "td-hhh")
        assert td["counters"] > 0
        assert td["stages"] >= 1
        assert td["sram_kib"] > 0

    def test_truth_statistics(self, comparison):
        truth = comparison.headline["num_truth_occurrences"]
        assert truth > 0
        assert 0 <= comparison.headline["num_hidden_occurrences"] <= truth

    def test_table_renders(self, comparison):
        table = comparison.to_table()
        assert "td-hhh" in table
        assert "hidden_recall" in table
