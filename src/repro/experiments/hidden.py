"""Figure 2: percentage of hidden HHHs.

"We compared the outputs of 5, 10 and 20 seconds time windows against one
that uses a sliding window of the same length and with a step of 1 second.
We consider one-dimension HHH (based on source IP addresses), the flows
which exceed 1%, 5%, 10% of the total bytes measured in a specific
time-window."

For each (window size, threshold) pair the experiment computes exact HHH
sets for the disjoint schedule and for the sliding schedule and reports the
fraction of sliding-side detections the disjoint schedule misses.  The
registered ``hidden-hhh`` experiment, the ``fig2`` alias and the ablation
benchmarks all go through :func:`hidden_rows`.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.base import (
    Experiment,
    Param,
    check_phi,
    check_positive,
)
from repro.experiments.registry import register_experiment
from repro.experiments.result import ExperimentResult
from repro.hhh.exact_hhh import ExactHHH, HHHResult
from repro.hierarchy.domain import SourceHierarchy
from repro.metrics.hidden import hidden_hhh_occurrences, hidden_hhh_unique
from repro.trace.container import Trace
from repro.windows.disjoint import DisjointWindows
from repro.windows.schedule import Window
from repro.windows.sliding import SlidingWindows

#: Accounting mode -> hidden-HHH accounting function.
ACCOUNTING = {"unique": hidden_hhh_unique, "occurrences": hidden_hhh_occurrences}


def _series(
    trace: Trace, windows: list[Window], detector: ExactHHH
) -> list[tuple[Window, HHHResult]]:
    return [
        (window, detector.detect(trace.bytes_by_key(window.t0, window.t1)))
        for window in windows
    ]


def hidden_rows(
    trace: Trace,
    label: str = "trace",
    window_sizes: Sequence[float] = (5.0, 10.0, 20.0),
    thresholds: Sequence[float] = (0.01, 0.05, 0.10),
    step: float = 1.0,
    mode: str = "unique",
    hierarchy: SourceHierarchy | None = None,
) -> list[dict[str, object]]:
    """One Figure 2 row per (window size, threshold) cell of the grid.

    ``hierarchy`` defaults to the paper's byte-granularity source
    hierarchy; the granularity ablation passes a bit-granularity one.
    """
    account = ACCOUNTING[mode]
    rows: list[dict[str, object]] = []
    for window_size in window_sizes:
        disjoint = list(DisjointWindows(window_size).over_trace(trace))
        sliding = list(SlidingWindows(window_size, step).over_trace(trace))
        for phi in thresholds:
            detector = ExactHHH(phi, hierarchy)
            report = account(
                _series(trace, disjoint, detector),
                _series(trace, sliding, detector),
            )
            total, hidden = report.total, report.hidden
            rows.append({
                "trace": label,
                "window_s": window_size,
                "phi_%": round(phi * 100, 1),
                "mode": mode,
                "sliding_total": total,
                "hidden": hidden,
                "hidden_%": round(100.0 * hidden / total if total else 0.0, 1),
            })
    return rows


def _check_thresholds(value: object) -> None:
    for phi in value:  # type: ignore[union-attr]
        check_phi(phi)


def _check_window_sizes(value: object) -> None:
    for size in value:  # type: ignore[union-attr]
        check_positive(size)


@register_experiment
class HiddenHHH(Experiment):
    """Figure 2: share of sliding-window HHHs disjoint windows miss."""

    name = "hidden-hhh"
    description = (
        "Figure 2 — % of sliding-window HHH detections that disjoint "
        "windows of the same size hide"
    )
    PARAMS = (
        Param("window_sizes", "floats", (5.0, 10.0, 20.0),
              "window sizes in seconds", check=_check_window_sizes),
        Param("thresholds", "floats", (0.01, 0.05, 0.10),
              "HHH byte-share thresholds (phi)", check=_check_thresholds),
        Param("step", "float", 1.0, "sliding-window step in seconds",
              check=check_positive),
        Param("mode", "choice", "unique",
              "accounting mode", choices=tuple(ACCOUNTING)),
    )
    default_trace = "caida:day=0,duration=60"
    smoke_trace = "caida:day=0,duration=10"
    smoke_overrides = {"window_sizes": (5.0,), "thresholds": (0.05,)}

    def run(self, trace: Trace, label: str = "trace") -> ExperimentResult:
        rows = hidden_rows(trace, label, **self.bound_params)
        return self._finish(
            trace, label, rows,
            headline={
                # The headline number (the paper reports up to 34 %).
                "max_hidden_percent": max(
                    (row["hidden_%"] for row in rows), default=0.0
                ),
            },
        )

    def combine_headlines(
        self, headlines: Sequence[dict[str, object]]
    ) -> dict[str, object]:
        """Pooling four days keeps the overall worst case (the paper's 34%)."""
        peaks = [h["max_hidden_percent"] for h in headlines if h]
        return {"max_hidden_percent": max(peaks)} if peaks else {}
