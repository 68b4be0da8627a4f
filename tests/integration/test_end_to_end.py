"""Cross-module integration tests.

These exercise the same paths as the paper's experiments, end to end, on
small traces: generator -> windows -> exact HHH -> metrics, and the
streaming detectors against exact ground truth.
"""

import pytest

from repro.hhh.exact_hhh import ExactHHH
from repro.metrics.classification import classify_sets
from repro.metrics.hidden import hidden_hhh_unique
from repro.sketch.rhhh import RHHH
from repro.windows.disjoint import DisjointWindows
from repro.windows.sliding import SlidingWindows


def truth_series(trace, windows, detector):
    """``[(window, exact HHH result)]`` for each window in order."""
    return [
        (window, detector.detect_window(trace, window.t0, window.t1))
        for window in windows
    ]


class TestGroundTruthPipeline:
    def test_window_ground_truth_series(self, small_trace):
        detector = ExactHHH(0.05)
        windows = list(DisjointWindows(4.0).over_trace(small_trace))
        series = truth_series(small_trace, windows, detector)
        assert len(series) == len(windows)
        for window, result in series:
            assert result.total_bytes == small_trace.bytes_in_range(
                window.t0, window.t1
            )

    def test_sliding_supersets_disjoint_detections(self, small_trace):
        """Every disjoint detection is found by the sliding schedule at
        the same instant (the hidden set is one-sided)."""
        detector = ExactHHH(0.05)
        disjoint = truth_series(
            small_trace, DisjointWindows(4.0).over_trace(small_trace), detector
        )
        sliding = truth_series(
            small_trace,
            SlidingWindows(4.0, 1.0).over_trace(small_trace),
            detector,
        )
        report = hidden_hhh_unique(disjoint, sliding)
        disjoint_union = set()
        for _, result in disjoint:
            disjoint_union |= result.prefixes
        sliding_union = set()
        for _, result in sliding:
            sliding_union |= result.prefixes
        assert disjoint_union <= sliding_union
        assert report.total == len(sliding_union)


class TestStreamingVsExact:
    def test_full_rhhh_matches_exact_on_window(self, small_trace):
        """Per-level Space-Saving with generous capacity must reproduce the
        exact HHH set of a window (same semantics, enough memory)."""
        phi = 0.05
        t0, t1 = small_trace.start_time, small_trace.start_time + 5.0
        exact = ExactHHH(phi).detect_window(small_trace, t0, t1)

        det = RHHH(counters_per_level=4096, sample_levels=False)
        i, j = small_trace.index_range(t0, t1)
        window_bytes = 0
        for p in range(i, j):
            w = int(small_trace.length[p])
            det.update(int(small_trace.src[p]), w)
            window_bytes += w
        approx = det.query_hhh(phi * window_bytes)

        report = classify_sets(exact.prefixes, approx.prefixes)
        assert report.recall == 1.0
        assert report.precision > 0.9

    def test_sampled_rhhh_reasonable(self, small_trace):
        phi = 0.1
        t0, t1 = small_trace.start_time, small_trace.start_time + 10.0
        exact = ExactHHH(phi).detect_window(small_trace, t0, t1)
        det = RHHH(counters_per_level=256, seed=5, sample_levels=True)
        i, j = small_trace.index_range(t0, t1)
        window_bytes = 0
        for p in range(i, j):
            w = int(small_trace.length[p])
            det.update(int(small_trace.src[p]), w)
            window_bytes += w
        approx = det.query_hhh(phi * window_bytes)
        report = classify_sets(exact.prefixes, approx.prefixes)
        # Sampling is noisy on a 10-second window; just require overlap.
        if exact.prefixes:
            assert report.recall > 0.3


class TestPublicAPI:
    def test_top_level_imports(self):
        import repro

        assert repro.__version__
        assert repro.Prefix(0, 0).is_root()
        trace = repro.presets.calm_trace(duration=3.0)
        result = repro.ExactHHH(0.1).detect_window(
            trace, trace.start_time, trace.end_time + 1e-9
        )
        assert result.total_bytes == trace.total_bytes
