"""Extension bench: UnivMon (the paper's reference [4]) as the per-window
detector, plus its multi-task outputs.

The poster frames UnivMon as a representative disjoint-window system.
This bench measures (a) its heavy-hitter recall per window against exact
ground truth and (b) the one-sketch-many-tasks outputs (entropy,
cardinality) that motivate deploying it per window — the capability a
windowless replacement must eventually match.
"""

from benchmarks.conftest import assert_result
from repro.analysis.render import format_table
from repro.hhh.exact_hh import exact_heavy_hitters
from repro.sketch.univmon import UnivMon
from repro.windows.disjoint import DisjointWindows


def run_univmon(trace):
    rows = []
    for window in DisjointWindows(10.0).over_trace(trace):
        i, j = trace.index_range(window.t0, window.t1)
        um = UnivMon(levels=8, width=512, top_k=64)
        window_bytes = 0
        for p in range(i, j):
            w = int(trace.length[p])
            um.update(int(trace.src[p]), w)
            window_bytes += w
        threshold = 0.05 * window_bytes
        counts = trace.bytes_by_key(window.t0, window.t1)
        truth = set(exact_heavy_hitters(counts, threshold))
        reported = set(um.query(threshold))
        recall = len(truth & reported) / len(truth) if truth else 1.0
        rows.append(
            {
                "window": window.index,
                "truth_hh": len(truth),
                "reported": len(reported),
                "recall": round(recall, 3),
                "entropy_bits": round(um.entropy(), 2),
                "cardinality": int(um.cardinality()),
                "distinct_true": len(counts),
            }
        )
    return rows


def test_ext_univmon_tasks(benchmark, sec3_trace):
    rows = benchmark.pedantic(
        run_univmon, args=(sec3_trace,), rounds=1, iterations=1
    )
    assert_result("ext_univmon_tasks.txt", format_table(rows))
    # Heavy-hitter recall per window stays high.
    mean_recall = sum(r["recall"] for r in rows) / len(rows)
    assert mean_recall >= 0.7
    # Entropy estimates are positive and below log2(distinct).
    import math

    for r in rows:
        assert 0.0 <= r["entropy_bits"] <= math.log2(max(2, r["distinct_true"])) + 2
