"""Ablation: hidden-HHH accounting convention.

Figure 2's number depends on what counts as "one HHH": a unique prefix
over the whole trace, or one per-window detection occurrence.  This bench
runs both conventions on the same trace so EXPERIMENTS.md can report the
sensitivity of the headline number to the convention.
"""

from benchmarks.conftest import assert_result
from repro.analysis.render import format_table
from repro.experiments.hidden import hidden_rows


def run_both(trace):
    rows = []
    for mode in ("unique", "occurrences"):
        rows += hidden_rows(
            trace, label=mode, window_sizes=(5.0, 10.0),
            thresholds=(0.01, 0.05), mode=mode,
        )
    return rows


def test_ablation_identity_convention(benchmark, sec3_trace):
    rows = benchmark.pedantic(
        run_both, args=(sec3_trace,), rounds=1, iterations=1
    )
    assert_result("ablation_identity.txt", format_table(rows))
    unique = [r for r in rows if r["mode"] == "unique"]
    occurrences = [r for r in rows if r["mode"] == "occurrences"]
    # Both conventions must exhibit the effect...
    assert any(r["hidden_%"] > 5.0 for r in unique)
    assert any(r["hidden"] > 0 for r in occurrences)
    # ...and occurrence accounting has (far) larger totals by definition.
    assert sum(r["sliding_total"] for r in occurrences) > sum(
        r["sliding_total"] for r in unique
    )
