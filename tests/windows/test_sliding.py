"""Tests for repro.windows.sliding."""

import pytest

from repro.windows.disjoint import DisjointWindows
from repro.windows.schedule import Window
from repro.windows.sliding import SlidingWindows


class TestSchedule:
    def test_step_advances_start(self):
        windows = list(SlidingWindows(5.0, 1.0).over_span(0.0, 10.0))
        assert windows[0] == Window(0.0, 5.0, 0)
        assert windows[1] == Window(1.0, 6.0, 1)
        assert windows[-1] == Window(5.0, 10.0, 5)

    def test_count_formula(self):
        # floor((span - size)/step) + 1 complete windows.
        windows = list(SlidingWindows(5.0, 1.0).over_span(0.0, 60.0))
        assert len(windows) == 56

    def test_disjoint_schedule_is_subset(self):
        """Every disjoint window appears in the sliding schedule (the
        property that makes hidden-HHH counts well-defined)."""
        sliding = set(
            (w.t0, w.t1) for w in SlidingWindows(5.0, 1.0).over_span(0.0, 30.0)
        )
        disjoint = set(
            (w.t0, w.t1) for w in DisjointWindows(5.0).over_span(0.0, 30.0)
        )
        assert disjoint <= sliding

    def test_validation(self):
        with pytest.raises(ValueError):
            SlidingWindows(0.0, 1.0)
        with pytest.raises(ValueError):
            SlidingWindows(5.0, 0.0)
        with pytest.raises(ValueError):
            SlidingWindows(5.0, 6.0)  # step > size

    def test_step_equal_size_is_disjoint(self):
        sliding = list(SlidingWindows(5.0, 5.0).over_span(0.0, 20.0))
        disjoint = list(DisjointWindows(5.0).over_span(0.0, 20.0))
        assert [(w.t0, w.t1) for w in sliding] == [
            (w.t0, w.t1) for w in disjoint
        ]

    def test_over_empty_trace(self):
        from repro.trace.container import Trace

        assert list(SlidingWindows(5.0).over_trace(Trace.empty())) == []
