"""Ablation: sliding-window step size.

The paper slides by 1 s.  A finer step reveals at least as many HHHs (more
window placements), so the hidden percentage is monotone non-decreasing as
the step shrinks; this bench quantifies how fast the number saturates.
"""

from benchmarks.conftest import assert_result
from repro.analysis.render import format_table
from repro.experiments.hidden import hidden_rows


def run_steps(trace, steps=(2.0, 1.0, 0.5)):
    rows = []
    for step in steps:
        (row,) = hidden_rows(
            trace, window_sizes=(10.0,), thresholds=(0.05,), step=step
        )
        rows.append(
            {
                "step_s": step,
                "sliding_total": row["sliding_total"],
                "hidden": row["hidden"],
                "hidden_%": row["hidden_%"],
            }
        )
    return rows


def test_ablation_sliding_step(benchmark, sec3_trace):
    rows = benchmark.pedantic(
        run_steps, args=(sec3_trace,), rounds=1, iterations=1
    )
    assert_result("ablation_step.txt", format_table(rows))
    by_step = {r["step_s"]: r for r in rows}
    # Finer steps see at least as many unique HHHs.
    assert by_step[0.5]["sliding_total"] >= by_step[2.0]["sliding_total"]
    # The effect exists at every step.
    assert all(r["hidden"] > 0 for r in rows)
