"""Disjoint fixed-time windows (the paper's Figure 1a).

"Most of the proposed solutions suggest to divide the network stream into
fixed-time disjoint intervals and perform the required identification
process in each of them separately, without considering the traffic trends
from previous intervals."
"""

from __future__ import annotations

from typing import Iterator

from repro.trace.container import Trace
from repro.windows.schedule import Window, align_start


class DisjointWindows:
    """Back-to-back windows of fixed ``size`` seconds.

    Iterating over ``(trace)`` or ``(start, end)`` yields the window
    schedule; a trailing partial window is dropped (partial windows have a
    different effective threshold and the paper's methodology drops them).
    """

    def __init__(self, size: float) -> None:
        if size <= 0:
            raise ValueError(f"window size must be positive, got {size}")
        self.size = size

    def over_span(self, start: float, end: float) -> Iterator[Window]:
        """The schedule covering [start, end)."""
        start, end = align_start(start, end)
        index = 0
        t0 = start
        while t0 + self.size <= end + 1e-12:
            yield Window(t0, t0 + self.size, index)
            t0 += self.size
            index += 1

    def over_trace(self, trace: Trace) -> Iterator[Window]:
        """The schedule covering the trace's time span."""
        if len(trace) == 0:
            return iter(())
        return self.over_span(trace.start_time, trace.end_time)

    def __repr__(self) -> str:
        return f"DisjointWindows(size={self.size})"
