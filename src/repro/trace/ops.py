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
    """Merge traces into one, re-sorting by timestamp (stable).

    Use with :func:`shift_trace` to splice scenarios end to end.  Parts
    already in time order (each starts no earlier than the one before it
    ends, as spliced phases and consecutive stream slices do) concatenate
    as they are: a stable sort would leave them in place.  A single
    non-empty part is returned as it is.
    """
    parts = [t for t in traces if len(t)]
    if not parts:
        return Trace.empty()
    if len(parts) == 1:
        return parts[0]
    columns = [
        np.concatenate([getattr(t, name) for t in parts])
        for name in Trace.__slots__
    ]
    if any(a.end_time > b.start_time for a, b in zip(parts, parts[1:])):
        order = np.argsort(columns[0], kind="stable")
        columns = [column[order] for column in columns]
    return Trace(*columns)
