"""Tests for the Figure 2 experiment (``hidden-hhh``)."""

import pytest

from repro.experiments import make_experiment


def _run(trace, label="t", **params):
    return make_experiment("hidden-hhh", **params).run(trace, label)


class TestHiddenHHHExperiment:
    def test_grid_covered(self, small_trace):
        result = _run(
            small_trace, window_sizes=(2.0, 4.0), thresholds=(0.05, 0.10)
        )
        assert len(result.rows) == 4
        combos = {(r["window_s"], r["phi_%"]) for r in result.rows}
        assert combos == {(2.0, 5.0), (2.0, 10.0), (4.0, 5.0), (4.0, 10.0)}

    def test_hidden_bounded_by_total(self, small_trace):
        result = _run(small_trace, window_sizes=(2.0,), thresholds=(0.05,))
        for row in result.rows:
            assert 0 <= row["hidden"] <= row["sliding_total"]
            assert 0.0 <= row["hidden_%"] <= 100.0

    def test_bursty_hides_more_than_calm(self, small_trace, calm_small_trace):
        params = {"window_sizes": (4.0,), "thresholds": (0.05,)}
        bursty = _run(small_trace, "bursty", **params).rows[0]
        calm = _run(calm_small_trace, "calm", **params).rows[0]
        assert bursty["hidden_%"] >= calm["hidden_%"]

    def test_occurrences_mode(self, small_trace):
        row = _run(
            small_trace, window_sizes=(4.0,), thresholds=(0.05,),
            mode="occurrences",
        ).rows[0]
        assert row["mode"] == "occurrences"
        assert row["sliding_total"] > 0

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            make_experiment("hidden-hhh", mode="bogus")

    def test_run_days_pools_rows(self, small_trace, calm_small_trace):
        exp = make_experiment(
            "hidden-hhh", window_sizes=(4.0,), thresholds=(0.05,)
        )
        result = exp.run_many([small_trace, calm_small_trace], ["a", "b"])
        assert {r["trace"] for r in result.rows} == {"a", "b"}
        with pytest.raises(ValueError):
            exp.run_many([small_trace], ["a", "b"])

    def test_rendering(self, small_trace):
        result = _run(small_trace, window_sizes=(4.0,), thresholds=(0.05,))
        assert "hidden_%" in result.to_table()
        assert result.headline["max_hidden_percent"] == result.rows[0]["hidden_%"]

    def test_rows_for_filter(self, small_trace):
        """Each grid cell is one row, addressable by its window/phi
        columns."""
        result = _run(small_trace, window_sizes=(2.0, 4.0), thresholds=(0.05,))
        assert len([r for r in result.rows if r["window_s"] == 2.0]) == 1
        assert len([r for r in result.rows if r["phi_%"] == 5.0]) == 2
