"""Ablation: decay law in the windowless detector.

Bianchi et al.'s original TDBF decays linearly; the exponential law makes
the decayed volume an EWMA directly comparable to a trailing window.  This
bench scores both laws in the Section 3 setup.
"""

from benchmarks.conftest import assert_result
from repro.analysis.render import format_table
from repro.decay.laws import ExponentialDecay, LinearDecay
from repro.decay.td_hhh import TimeDecayingHHH
from repro.experiments.decay import (
    exact_series,
    hidden_occurrences,
    score_series,
)
from repro.windows.disjoint import DisjointWindows
from repro.windows.schedule import Window
from repro.windows.sliding import SlidingWindows

WINDOW = 10.0
PHI = 0.05


def run_laws(trace):
    truth = exact_series(
        trace, SlidingWindows(WINDOW, 1.0).over_trace(trace), PHI
    )
    disjoint_exact = exact_series(
        trace, DisjointWindows(WINDOW).over_trace(trace), PHI
    )
    hidden = hidden_occurrences(truth, disjoint_exact)

    # Average rate so LinearDecay drains a window's volume in ~WINDOW s.
    rate = trace.total_bytes / max(trace.duration, 1e-9)
    laws = {
        "exponential(tau=W)": ExponentialDecay(tau=WINDOW),
        "linear(rate=avg)": LinearDecay(rate=rate),
    }
    rows = []
    for name, law in laws.items():
        # The Section 3 time-decaying series, rebuilt with this law.
        detector = TimeDecayingHHH(law=law, counters_per_level=128)
        series = []
        next_query = trace.start_time + WINDOW
        index = 0
        ts, src, length = trace.ts, trace.src, trace.length
        for p in range(len(trace)):
            now = float(ts[p])
            while now >= next_query:
                result = detector.query(PHI, next_query)
                series.append(
                    (Window(next_query - WINDOW, next_query, index),
                     result.prefixes)
                )
                index += 1
                next_query += 1.0
            detector.update(int(src[p]), int(length[p]), now)
        recall, precision, hidden_recall = score_series(truth, hidden, series)
        rows.append(
            {
                "law": name,
                "recall": round(recall, 3),
                "precision": round(precision, 3),
                "hidden_recall": round(hidden_recall, 3),
            }
        )
    return rows


def test_ablation_decay_law(benchmark, sec3_trace):
    rows = benchmark.pedantic(run_laws, args=(sec3_trace,), rounds=1,
                              iterations=1)
    assert_result("ablation_decay_law.txt", format_table(rows))
    by_law = {r["law"]: r for r in rows}
    # The ablation's finding: the exponential law (whose decayed volume is
    # an EWMA directly calibrated to the window) is the right choice; the
    # average-rate linear law drains bursty aggregates too aggressively.
    exp_row = by_law["exponential(tau=W)"]
    lin_row = by_law["linear(rate=avg)"]
    assert exp_row["recall"] >= 0.5
    assert exp_row["hidden_recall"] >= 0.3
    assert exp_row["recall"] > lin_row["recall"]
