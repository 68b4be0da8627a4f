"""Streaming drivers: feed packets to a detector under a window policy.

The exact ground truth in :mod:`repro.hhh` slices the trace offline; real
detectors (the sketches in :mod:`repro.sketch`) are *streaming* — they see
the packets of one window and are reset at window boundaries.  The driver
encapsulates that protocol so every detector is exercised identically:

    driver = WindowedDetectorDriver(make_detector, window_size=5.0)
    for window, report in driver.run(trace):
        ...

``make_detector`` is a zero-argument factory because the disjoint-window
practice is to *reset* the data structure at each boundary ("by resetting
the data structure at the end of each time window, there is no risk of
counter overflowing").

Since :class:`repro.trace.Trace` is columnar, the driver slices each
window out of the timestamp column by binary search and hands the whole
window to the detector's ``update_batch`` in one call — the vectorized
fast path for array-backed detectors, an exact scalar replay for the
rest.  Plain objects that only implement the legacy ``update(key,
weight)`` protocol are driven packet by packet, as before.

The trailing *partial* window (the one containing the trace's last packet)
is dropped by default, matching the offline schedules; pass
``emit_partial=True`` to report it too.  This replaces the seed's
float-epsilon "exactly full" test with an explicit policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Protocol

import numpy as np

from repro.trace.container import Trace
from repro.windows.schedule import Window, edge_schedule


@dataclass(frozen=True)
class WindowSlice:
    """One window of a trace with its packet/byte offsets.

    ``start``/``stop`` are packet indices into the trace's columns
    (half-open) and ``bytes`` the window's byte volume — computed once by
    :func:`window_slices` and shared by every consumer (the driver's own
    reporting loop, the Section 3 experiment) instead of each recomputing
    ``searchsorted`` boundaries.
    """

    window: Window
    start: int
    stop: int
    bytes: int

    @property
    def packets(self) -> int:
        """Packets in the window."""
        return self.stop - self.start


def window_slices(
    trace: Trace, window_size: float, emit_partial: bool = False
) -> list[WindowSlice]:
    """Per-window packet/byte offsets for the disjoint schedule.

    Edges come from :func:`repro.windows.schedule.edge_schedule` (the
    accumulating schedule, bit-identical to historic driver behaviour);
    packet boundaries are one vectorized ``searchsorted`` over the
    timestamp column.  The trailing partial window is included only under
    ``emit_partial``.
    """
    if len(trace) == 0:
        return []
    edges = edge_schedule(
        trace.start_time, trace.end_time, window_size, emit_partial
    )
    cuts = np.searchsorted(trace.ts, np.asarray(edges), side="left")
    slices: list[WindowSlice] = []
    start = 0
    # Each window's left edge is the previous right edge (the trace start
    # for the first), so window bounds and packet offsets agree exactly —
    # deriving t0 as ``edge - window_size`` can land one float ulp off the
    # accumulated boundary the packet cut was made at.
    left = trace.start_time
    for index, (edge, stop) in enumerate(zip(edges, cuts)):
        stop = int(stop)
        slices.append(
            WindowSlice(
                window=Window(left, edge, index),
                start=start,
                stop=stop,
                bytes=int(trace.length[start:stop].sum()),
            )
        )
        start = stop
        left = edge
    return slices


class StreamingDetector(Protocol):
    """What the driver requires of a streaming detector."""

    def update(self, key: int, weight: int) -> None:
        """Account one packet with the given key and byte weight."""
        ...

    def query(self, threshold: float) -> dict[int, float]:
        """Current items whose estimate reaches ``threshold``."""
        ...


class WindowedDetectorDriver:
    """Run a streaming detector over disjoint windows with resets.

    Parameters
    ----------
    detector_factory:
        Zero-argument callable building a fresh detector (called once per
        window — the reset).
    window_size:
        Disjoint window length in seconds.  Packets are keyed by source
        address, straight from the trace's ``src`` column.
    phi:
        Relative threshold: each window's report uses
        ``phi * window_bytes`` as the absolute threshold, matching the
        paper's per-window percentage thresholds.
    emit_partial:
        When true, the trailing partial window (the one holding the last
        packet) is reported as well instead of being dropped.
    """

    def __init__(
        self,
        detector_factory: Callable[[], StreamingDetector],
        window_size: float,
        phi: float = 0.05,
        emit_partial: bool = False,
    ) -> None:
        if window_size <= 0:
            raise ValueError(f"window_size must be positive, got {window_size}")
        if not 0.0 < phi <= 1.0:
            raise ValueError(f"phi must be in (0, 1], got {phi}")
        self.detector_factory = detector_factory
        self.window_size = window_size
        self.phi = phi
        self.emit_partial = emit_partial

    def window_slices(self, trace: Trace) -> list[WindowSlice]:
        """The driver's window schedule with packet/byte offsets exposed.

        This is the single place boundaries are computed; :meth:`run`
        consumes it internally, and callers that need offsets (the
        Section 3 experiment) share it instead of recomputing
        ``searchsorted`` per window.
        """
        return window_slices(trace, self.window_size, self.emit_partial)

    def run(self, trace: Trace) -> Iterator[tuple[Window, dict[int, float]]]:
        """Yield ``(window, report)`` for each reported window of the trace.

        The report maps keys to estimated byte volumes at or above the
        window's threshold.
        """
        for piece in self.window_slices(trace):
            detector = self.detector_factory()
            if piece.stop > piece.start:
                self._feed(detector, trace, piece.start, piece.stop)
            yield self._report(piece, detector)

    def _feed(
        self, detector: StreamingDetector, trace: Trace, i: int, j: int
    ) -> None:
        """Hand packets [i, j) to the detector, batched when supported."""
        keys = trace.src[i:j]
        weights = trace.length[i:j]
        update_batch = getattr(detector, "update_batch", None)
        if update_batch is not None:
            update_batch(keys, weights, trace.ts[i:j])
        else:
            update = detector.update
            for key, weight in zip(keys.tolist(), weights.tolist()):
                update(key, weight)

    def _report(
        self, piece: WindowSlice, detector: StreamingDetector
    ) -> tuple[Window, dict[int, float]]:
        threshold = self.phi * piece.bytes
        report = detector.query(threshold) if piece.bytes else {}
        return piece.window, report
