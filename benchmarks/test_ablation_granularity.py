"""Ablation: hierarchy granularity, byte (/8 steps) vs bit.

The paper uses the conventional byte hierarchy.  Bit granularity multiplies
the level count by 8 and therefore both the HHH population and the exact
computation cost; the hidden-HHH effect must survive the change.
"""

from benchmarks.conftest import assert_result
from repro.analysis.render import format_table
from repro.experiments.hidden import hidden_rows
from repro.hierarchy.domain import SourceHierarchy


def run_granularity(trace, granularity):
    return hidden_rows(
        trace,
        label=granularity,
        window_sizes=(5.0,),
        thresholds=(0.05,),
        hierarchy=SourceHierarchy(granularity),
    )


def test_ablation_granularity(benchmark, sec3_trace):
    def run():
        return (
            run_granularity(sec3_trace, "byte"),
            run_granularity(sec3_trace, "bit"),
        )

    byte_rows, bit_rows = benchmark.pedantic(run, rounds=1, iterations=1)
    assert_result("ablation_granularity.txt", format_table(byte_rows + bit_rows))

    byte_row, bit_row = byte_rows[0], bit_rows[0]
    # Bit granularity can only refine detections: at least as many unique
    # HHHs as the byte hierarchy finds aggregates for.
    assert bit_row["sliding_total"] >= byte_row["sliding_total"]
    # The hidden effect is present in both.
    assert byte_row["hidden"] > 0
    assert bit_row["hidden"] > 0
