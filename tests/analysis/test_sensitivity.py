"""Tests for the Figure 3 experiment (``window-sensitivity``)."""

import pytest

from repro.experiments import make_experiment
from repro.experiments.sensitivity import (
    DEFAULT_DELTAS,
    cdf_plot,
    similarity_samples,
)
from repro.metrics.cdf import EmpiricalCDF


def _run(trace, **params):
    return make_experiment("window-sensitivity", **params).run(trace)


class TestWindowSensitivityExperiment:
    def test_default_deltas_match_paper(self):
        assert DEFAULT_DELTAS == tuple(round(0.01 * k, 3) for k in range(1, 11))

    def test_samples_per_delta(self, small_trace):
        samples = similarity_samples(
            small_trace, baseline_size=4.0, deltas=(0.05, 0.1), phi=0.05
        )
        assert set(samples) == {0.05, 0.1}
        # 20-second trace, 4-second baseline -> about 5 windows each.
        assert all(len(v) >= 4 for v in samples.values())

    def test_similarities_bounded(self, small_trace):
        samples = similarity_samples(small_trace, baseline_size=4.0,
                                     deltas=(0.1,))
        assert all(0.0 <= s <= 1.0 for s in samples[0.1])

    def test_zero_delta_invalid(self, small_trace):
        with pytest.raises(ValueError):
            make_experiment("window-sensitivity", deltas=(0.0,))
        with pytest.raises(ValueError):
            similarity_samples(small_trace, baseline_size=1.0, deltas=(1.0,))
        with pytest.raises(ValueError):
            make_experiment("window-sensitivity", baseline_size=0.0)

    def test_larger_delta_no_more_similar(self, small_trace):
        """Shrinking more can only change the set as much or more (on
        average) — the paper's monotonicity."""
        result = _run(small_trace, baseline_size=4.0, deltas=(0.02, 0.4),
                      phi=0.05)
        rows = {r["delta_ms"]: r for r in result.rows}
        assert rows[400]["mean_jaccard"] <= rows[20]["mean_jaccard"] + 1e-9

    def test_rows_and_rendering(self, small_trace):
        result = _run(small_trace, baseline_size=4.0, deltas=(0.1,))
        assert result.rows[0]["delta_ms"] == 100
        assert "delta_ms" in result.to_table()
        assert "CDF" in cdf_plot(result, 0.1)

    def test_cdf_accessor(self, small_trace):
        result = _run(small_trace, baseline_size=4.0, deltas=(0.1,))
        cdf = EmpiricalCDF(result.extras["samples"][0.1])
        assert 0.0 <= cdf.mean <= 1.0
