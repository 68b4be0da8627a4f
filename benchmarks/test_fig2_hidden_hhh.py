"""Figure 2 regeneration: percentage of hidden HHHs.

Paper series: window sizes {5, 10, 20} s x thresholds {1%, 5%, 10%},
sliding step 1 s, over four days of traffic.  Expected shape: hidden HHHs
are a substantial fraction everywhere (paper: up to 34%; 24-34% at the 1%
threshold, 18-24% at 5%).
"""

from benchmarks.conftest import assert_result
from repro.experiments import make_experiment


def run_fig2(traces):
    experiment = make_experiment(
        "hidden-hhh",
        window_sizes=(5.0, 10.0, 20.0),
        thresholds=(0.01, 0.05, 0.10),
        step=1.0,
    )
    return experiment.run_many(
        traces, labels=[f"day{i}" for i in range(len(traces))]
    )


def test_fig2_hidden_hhh(benchmark, fig2_traces):
    result = benchmark.pedantic(
        run_fig2, args=(fig2_traces,), rounds=1, iterations=1
    )
    max_hidden = result.headline["max_hidden_percent"]
    assert_result(
        "fig2_hidden_hhh.txt",
        result.to_table()
        + f"\n\nmax hidden: {max_hidden:.1f}% (paper: up to 34%)",
    )

    # Shape assertions (who wins / rough magnitude, not absolute numbers).
    assert 10.0 <= max_hidden <= 70.0

    def pooled_hidden_share(column, value):
        rows = [r for r in result.rows if r[column] == value]
        return sum(r["hidden"] for r in rows) / max(
            1, sum(r["sliding_total"] for r in rows)
        )

    # Hidden HHHs exist at every window size (pooled over days/thresholds).
    for window in (5.0, 10.0, 20.0):
        assert pooled_hidden_share("window_s", window) > 0.05
    # And at every threshold (in percent, as the rows carry it).
    for phi_percent in (1.0, 5.0, 10.0):
        assert pooled_hidden_share("phi_%", phi_percent) > 0.05
