"""Scalar-vs-batch update timing harness.

Shared by ``repro-hhh bench`` and ``benchmarks/test_batch_throughput.py``
so the CLI's smoke numbers and the gated benchmark use the same
methodology: best-of-N fresh-detector runs on both paths, each after one
untimed warm-up run, identical row schema.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import make_detector
from repro.trace.container import Trace

Columns = tuple[np.ndarray, np.ndarray, np.ndarray]


def trace_columns(trace: Trace, limit: int = 20_000) -> Columns:
    """The first ``limit`` packets as (src, length, ts) numpy columns."""
    n = min(len(trace), limit)
    return trace.src[:n], trace.length[:n], trace.ts[:n]


def measure_update_seconds(
    name: str, columns: Columns, *, batch: bool, repeats: int = 3, **kwargs
) -> float:
    """Best-of-``repeats`` seconds to stream the columns through a fresh
    detector, per packet (``batch=False``) or as one columnar call.

    One untimed run on a fresh detector of its own comes first, so the
    timed runs find the allocator's pages and the caches already warm.
    """
    src, length, ts = columns
    best = float("inf")
    for run in range(repeats + 1):
        detector = make_detector(name, **kwargs)
        if batch:
            t0 = time.perf_counter()
            detector.update_batch(src, length, ts)
        else:
            update = detector.update
            t0 = time.perf_counter()
            for key, weight, when in zip(
                src.tolist(), length.tolist(), ts.tolist()
            ):
                update(key, weight, when)
        if run:
            best = min(best, time.perf_counter() - t0)
    return best


def speedup_row(
    name: str, columns: Columns, repeats: int = 3, **kwargs
) -> dict[str, object]:
    """One batch-vs-scalar comparison row for table rendering."""
    scalar_s = measure_update_seconds(
        name, columns, batch=False, repeats=repeats, **kwargs
    )
    batch_s = measure_update_seconds(
        name, columns, batch=True, repeats=repeats, **kwargs
    )
    n = len(columns[0])
    return {
        "detector": name,
        "packets": n,
        "scalar_pps": int(n / scalar_s),
        "batch_pps": int(n / batch_s),
        "speedup": round(scalar_s / batch_s, 1),
    }
