"""Trace transformations: slicing, shifting, concatenation."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.trace.container import Trace


def slice_time(trace: Trace, t0: float, t1: float) -> Trace:
    """The sub-trace in [t0, t1) (alias of :meth:`Trace.slice_time`)."""
    return trace.slice_time(t0, t1)


def shift_trace(trace: Trace, dt: float) -> Trace:
    """The same trace with all timestamps moved by ``dt``."""
    return Trace(
        trace.ts + dt, trace.src, trace.dst, trace.length,
        trace.sport, trace.dport, trace.proto,
    )


def concat_traces(traces: Sequence[Trace]) -> Trace:
    """Merge traces into one, re-sorting by timestamp.

    Use with :func:`shift_trace` to splice scenarios end to end.
    """
    parts = [t for t in traces if len(t)]
    if not parts:
        return Trace.empty()
    ts = np.concatenate([t.ts for t in parts])
    order = np.argsort(ts, kind="stable")
    return Trace(
        ts[order],
        np.concatenate([t.src for t in parts])[order],
        np.concatenate([t.dst for t in parts])[order],
        np.concatenate([t.length for t in parts])[order],
        np.concatenate([t.sport for t in parts])[order],
        np.concatenate([t.dport for t in parts])[order],
        np.concatenate([t.proto for t in parts])[order],
    )
