"""Window models (the paper's Figure 1) and streaming drivers.

- :class:`DisjointWindows` — Fig 1a: back-to-back fixed-length windows, the
  model used by the data-plane systems the paper critiques;
- :class:`SlidingWindows` — Fig 1b: same length, advanced by a small step
  (1 s in the paper), the reference revealing "hidden" HHHs;
- :class:`NestedShrunkWindows` — Fig 1c: same start as a baseline window
  but 10–100 ms shorter, for the micro-variation sensitivity study;
- :class:`WindowedDetectorDriver` — feeds packets to any streaming detector,
  resetting it at disjoint window boundaries (the "reset the data structure
  at the end of each time window" practice the paper describes).
"""

from repro.windows.schedule import Window, align_start, edge_schedule
from repro.windows.disjoint import DisjointWindows
from repro.windows.sliding import SlidingWindows
from repro.windows.shrunk import NestedShrunkWindows
from repro.windows.driver import (
    StreamingDetector,
    WindowSlice,
    WindowedDetectorDriver,
    window_slices,
)

__all__ = [
    "Window",
    "WindowSlice",
    "align_start",
    "edge_schedule",
    "window_slices",
    "DisjointWindows",
    "SlidingWindows",
    "NestedShrunkWindows",
    "StreamingDetector",
    "WindowedDetectorDriver",
]
