"""Sliding windows (the paper's Figure 1b).

The reference model: windows of the same length as the disjoint baseline
but advanced by a small ``step`` (1 second in the paper).  Every disjoint
window is also a sliding window, so anything the disjoint model detects the
sliding model detects too — the *extra* detections are the hidden HHHs.
"""

from __future__ import annotations

from typing import Iterator

from repro.trace.container import Trace
from repro.windows.schedule import Window, align_start


class SlidingWindows:
    """Windows of ``size`` seconds advanced by ``step`` seconds."""

    def __init__(self, size: float, step: float = 1.0) -> None:
        if size <= 0:
            raise ValueError(f"window size must be positive, got {size}")
        if step <= 0:
            raise ValueError(f"step must be positive, got {step}")
        if step > size:
            raise ValueError(
                f"step {step} larger than window {size}: windows would not "
                "overlap; use DisjointWindows for non-overlapping schedules"
            )
        self.size = size
        self.step = step

    def over_span(self, start: float, end: float) -> Iterator[Window]:
        """The schedule covering [start, end)."""
        start, end = align_start(start, end)
        index = 0
        t0 = start
        while t0 + self.size <= end + 1e-12:
            yield Window(t0, t0 + self.size, index)
            t0 = start + (index + 1) * self.step
            index += 1

    def over_trace(self, trace: Trace) -> Iterator[Window]:
        """The schedule covering the trace's time span."""
        if len(trace) == 0:
            return iter(())
        return self.over_span(trace.start_time, trace.end_time)

    def __repr__(self) -> str:
        return f"SlidingWindows(size={self.size}, step={self.step})"
