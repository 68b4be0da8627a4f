"""Tests for repro.windows.disjoint."""

import pytest

from repro.windows.disjoint import DisjointWindows
from repro.windows.schedule import Window


class TestSchedule:
    def test_exact_tiling(self):
        windows = list(DisjointWindows(5.0).over_span(0.0, 20.0))
        assert len(windows) == 4
        assert windows[0] == Window(0.0, 5.0, 0)
        assert windows[-1] == Window(15.0, 20.0, 3)

    def test_windows_are_disjoint_and_contiguous(self):
        windows = list(DisjointWindows(3.0).over_span(0.0, 30.0))
        for a, b in zip(windows, windows[1:]):
            assert a.t1 == pytest.approx(b.t0)
            assert a.overlap(b) == 0.0

    def test_partial_window_dropped_by_default(self):
        windows = list(DisjointWindows(5.0).over_span(0.0, 12.0))
        assert len(windows) == 2

    def test_nonzero_start(self):
        windows = list(DisjointWindows(2.0).over_span(10.0, 16.0))
        assert windows[0].t0 == 10.0
        assert len(windows) == 3

    def test_empty_span_rejected(self):
        with pytest.raises(ValueError):
            list(DisjointWindows(5.0).over_span(10.0, 10.0))

    def test_size_validation(self):
        with pytest.raises(ValueError):
            DisjointWindows(0.0)

    def test_over_trace(self, tiny_trace):
        windows = list(DisjointWindows(1.0).over_trace(tiny_trace))
        assert windows[0].t0 == tiny_trace.start_time
        assert windows[-1].t1 <= tiny_trace.end_time + 1e-9

    def test_over_empty_trace(self):
        from repro.trace.container import Trace

        assert list(DisjointWindows(1.0).over_trace(Trace.empty())) == []
