"""Ablation / negative control: the hidden-HHH effect needs burstiness.

With episodes, bursts and churn switched off (a stationary Poisson mix),
disjoint windows hide far less — confirming the paper's diagnosis that the
hidden information is created by traffic dynamics interacting with the
window grid, not by the metric itself.
"""

from benchmarks.conftest import assert_result
from repro.analysis.render import format_table
from repro.experiments.hidden import hidden_rows
from repro.trace import presets


def run_control():
    bursty = presets.caida_like_day(0, duration=60.0)
    calm = presets.calm_trace(duration=60.0)
    grid = {"window_sizes": (10.0,), "thresholds": (0.05,)}
    return hidden_rows(bursty, "bursty", **grid) + hidden_rows(
        calm, "calm", **grid
    )


def test_ablation_burstiness_control(benchmark):
    rows = benchmark.pedantic(run_control, rounds=1, iterations=1)
    assert_result("ablation_burstiness.txt", format_table(rows))
    bursty, calm = rows
    assert bursty["hidden_%"] >= calm["hidden_%"]
    assert bursty["hidden_%"] > 10.0
