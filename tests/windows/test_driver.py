"""Tests for repro.windows.driver."""

import pytest

from repro.sketch.spacesaving import SpaceSaving
from repro.trace.container import Trace
from repro.windows.driver import WindowedDetectorDriver
from repro.packet.model import Packet


def trace_from(points):
    """points: (ts, src, length) triples."""
    return Trace.from_packets(
        Packet(ts=ts, src=src, dst=0, length=length) for ts, src, length in points
    )


class ExactCounter:
    """A trivially exact streaming detector for driver tests."""

    def __init__(self):
        self.counts = {}

    def update(self, key, weight):
        self.counts[key] = self.counts.get(key, 0) + weight

    def query(self, threshold):
        return {k: float(v) for k, v in self.counts.items() if v >= threshold}


class TestDriver:
    def test_resets_at_boundaries(self):
        # Source 1 sends 60 in window 0, source 2 sends 60 in window 1;
        # with resets neither window sees the other's traffic.
        trace = trace_from(
            [(0.1, 1, 60), (0.2, 3, 40), (1.2, 2, 60), (1.3, 3, 40), (2.5, 9, 1)]
        )
        driver = WindowedDetectorDriver(ExactCounter, window_size=1.0, phi=0.5)
        reports = list(driver.run(trace))
        assert len(reports) == 2
        (w0, r0), (w1, r1) = reports
        assert set(r0) == {1}
        assert set(r1) == {2}
        assert w0.index == 0 and w1.index == 1

    def test_threshold_is_relative_to_window_bytes(self):
        # Window bytes = 100, phi = 0.5 -> threshold 50.
        trace = trace_from([(0.2, 1, 50), (0.3, 2, 49), (0.4, 3, 1), (1.5, 9, 1)])
        driver = WindowedDetectorDriver(ExactCounter, window_size=1.0, phi=0.5)
        ((_, report),) = list(driver.run(trace))
        assert set(report) == {1}

    def test_empty_windows_skipped_cleanly(self):
        # A gap longer than one window: the empty middle window reports {}.
        trace = trace_from([(0.1, 1, 10), (2.5, 2, 10), (3.8, 9, 1)])
        driver = WindowedDetectorDriver(ExactCounter, window_size=1.0, phi=0.5)
        reports = list(driver.run(trace))
        assert len(reports) == 3
        assert reports[1][1] == {}

    def test_empty_trace(self):
        driver = WindowedDetectorDriver(ExactCounter, window_size=1.0)
        assert list(driver.run(Trace.empty())) == []

    def test_works_with_real_sketch(self, tiny_trace):
        driver = WindowedDetectorDriver(
            lambda: SpaceSaving(64), window_size=1.0, phi=0.1
        )
        reports = list(driver.run(tiny_trace))
        assert reports
        for window, report in reports:
            assert window.length == pytest.approx(1.0)
            assert all(isinstance(v, float) for v in report.values())

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowedDetectorDriver(ExactCounter, window_size=0.0)
        with pytest.raises(ValueError):
            WindowedDetectorDriver(ExactCounter, window_size=1.0, phi=0.0)


class TestFinalWindowPolicy:
    """Regression tests for the explicit emit_partial flush option
    (replacing the seed's float-epsilon 'exactly full' test)."""

    def test_trace_ending_exactly_on_boundary(self):
        # Last packet at ts == start + window_size: it opens a new
        # (partial) window, which is dropped by default.
        trace = trace_from([(0.0, 1, 10), (0.5, 1, 20), (1.0, 2, 30)])
        driver = WindowedDetectorDriver(ExactCounter, window_size=1.0, phi=0.1)
        reports = list(driver.run(trace))
        assert len(reports) == 1
        assert set(reports[0][1]) == {1}

    def test_trace_ending_exactly_on_boundary_with_emit_partial(self):
        trace = trace_from([(0.0, 1, 10), (0.5, 1, 20), (1.0, 2, 30)])
        driver = WindowedDetectorDriver(
            ExactCounter, window_size=1.0, phi=0.1, emit_partial=True
        )
        reports = list(driver.run(trace))
        assert len(reports) == 2
        (w0, r0), (w1, r1) = reports
        assert set(r0) == {1}
        assert set(r1) == {2}
        assert w1.t0 == pytest.approx(1.0) and w1.index == 1

    def test_trace_ending_inside_window(self):
        # Last packet strictly inside the second window: dropped by
        # default, reported under emit_partial.
        points = [(0.0, 1, 10), (0.5, 1, 20), (1.7, 2, 30)]
        default = WindowedDetectorDriver(ExactCounter, window_size=1.0, phi=0.1)
        assert len(list(default.run(trace_from(points)))) == 1
        flushing = WindowedDetectorDriver(
            ExactCounter, window_size=1.0, phi=0.1, emit_partial=True
        )
        reports = list(flushing.run(trace_from(points)))
        assert len(reports) == 2
        assert set(reports[1][1]) == {2}

    def test_single_window_trace_only_reported_with_emit_partial(self):
        points = [(0.0, 1, 10), (0.2, 1, 20)]
        default = WindowedDetectorDriver(ExactCounter, window_size=1.0, phi=0.1)
        assert list(default.run(trace_from(points))) == []
        flushing = WindowedDetectorDriver(
            ExactCounter, window_size=1.0, phi=0.1, emit_partial=True
        )
        ((window, report),) = list(flushing.run(trace_from(points)))
        assert set(report) == {1}
        assert window.index == 0


class TestWindowSlices:
    """The driver's exposed per-window packet/byte offsets."""

    def test_slices_partition_the_trace(self, tiny_trace):
        from repro.windows.driver import window_slices

        slices = window_slices(tiny_trace, 1.0, emit_partial=True)
        assert slices[0].start == 0
        for previous, current in zip(slices, slices[1:]):
            assert current.start == previous.stop
            assert current.window.index == previous.window.index + 1
        assert slices[-1].stop == len(tiny_trace)
        assert sum(s.bytes for s in slices) == tiny_trace.total_bytes
        assert sum(s.packets for s in slices) == len(tiny_trace)

    def test_offsets_match_trace_index_range(self, tiny_trace):
        from repro.windows.driver import window_slices

        for piece in window_slices(tiny_trace, 1.0):
            i, j = tiny_trace.index_range(piece.window.t0, piece.window.t1)
            assert (piece.start, piece.stop) == (i, j)
            assert piece.bytes == int(
                tiny_trace.length[piece.start:piece.stop].sum()
            )

    def test_driver_method_matches_run_windows(self, tiny_trace):
        driver = WindowedDetectorDriver(
            ExactCounter, window_size=1.0, phi=0.1
        )
        slices = driver.window_slices(tiny_trace)
        windows = [window for window, _ in driver.run(tiny_trace)]
        assert [s.window for s in slices] == windows

    def test_empty_trace_has_no_slices(self):
        from repro.windows.driver import window_slices

        assert window_slices(Trace.empty(), 1.0) == []

    def test_partial_slice_only_under_emit_partial(self):
        from repro.windows.driver import window_slices

        trace = trace_from([(0.0, 1, 10), (0.5, 1, 20), (1.7, 2, 30)])
        assert len(window_slices(trace, 1.0)) == 1
        flushed = window_slices(trace, 1.0, emit_partial=True)
        assert len(flushed) == 2
        assert flushed[1].packets == 1


class TestBatchPath:
    def test_batch_detector_matches_legacy_scalar_detector(self, tiny_trace):
        # A Detector subclass (batched) and a plain legacy object (scalar
        # protocol) must report identical windows.
        batched = WindowedDetectorDriver(
            lambda: SpaceSaving(4096), window_size=1.0, phi=0.2
        )
        legacy = WindowedDetectorDriver(ExactCounter, window_size=1.0, phi=0.2)
        got = list(batched.run(tiny_trace))
        expected = list(legacy.run(tiny_trace))
        assert [w for w, _ in got] == [w for w, _ in expected]
        # With capacity far above the key count Space-Saving is exact.
        assert [r for _, r in got] == [r for _, r in expected]
