"""Section 3: time-decaying vs disjoint-window detection.

The poster commits to "compare [the time-decaying approach] with existing
solutions in terms of performance, resource utilization and result's
accuracy".  This experiment does exactly that:

- **reference truth**: exact HHH over a sliding window (size = the disjoint
  window, step = 1 s) — the detections a window-free observer should see;
- **detectors**: the disjoint-window practice (exact per window, RHHH, and
  per-level Space-Saving — all reset at boundaries) against the
  time-decaying HHH detector (exponential decay with ``tau`` equal to the
  window size, queried every step, never reset);
- **accuracy**: occurrence recall against the truth (was each truth
  detection reported at the right time?), precision, and *hidden recall* —
  the share of hidden HHHs (truth detections the disjoint-exact schedule
  misses) each detector recovers;
- **resources**: counters, and for data-plane-mappable detectors the
  pipeline stages / SRAM from :mod:`repro.dataplane`.

Update performance is measured separately in ``benchmarks/`` (wall-clock
packets/second); this module reports per-packet update operation counts.
The series builders and :func:`score_series` are module functions so
ablations can score other detectors against the same truth.
"""

from __future__ import annotations

import bisect
from typing import Iterable

import numpy as np

from repro.dataplane.mappings import map_ondemand_tdbf, map_rhhh
from repro.dataplane.resources import ResourceProfile
from repro.decay.laws import ExponentialDecay
from repro.decay.td_hhh import TimeDecayingHHH
from repro.experiments.base import (
    Experiment,
    Param,
    check_min1,
    check_phi,
    check_positive,
)
from repro.experiments.registry import register_experiment
from repro.experiments.result import ExperimentResult
from repro.hhh.exact_hhh import ExactHHH
from repro.hierarchy.domain import SourceHierarchy
from repro.net.prefix import Prefix
from repro.sketch.rhhh import RHHH
from repro.trace.container import Trace
from repro.windows.disjoint import DisjointWindows
from repro.windows.driver import window_slices
from repro.windows.schedule import Window
from repro.windows.sliding import SlidingWindows

#: A detection series: time-ordered (window, reported prefixes) pairs.
Series = list[tuple[Window, frozenset[Prefix]]]


def _covered(detections: Series, window: Window, prefix: Prefix) -> bool:
    """True when ``prefix`` is reported by a series entry overlapping
    ``window``."""
    starts = [w.t0 for w, _ in detections]
    longest = max((w.length for w, _ in detections), default=0.0)
    lo = bisect.bisect_left(starts, window.t0 - longest)
    for i in range(lo, len(detections)):
        w, prefixes = detections[i]
        if w.t0 >= window.t1:
            break
        if window.overlap(w) > 0 and prefix in prefixes:
            return True
    return False


def hidden_occurrences(
    truth: Series, disjoint_exact: Series
) -> set[tuple[int, Prefix]]:
    """Truth detections the disjoint-exact schedule does not report in any
    overlapping window, as ``(truth window index, prefix)``."""
    return {
        (window.index, prefix)
        for window, prefixes in truth
        for prefix in prefixes
        if not _covered(disjoint_exact, window, prefix)
    }


def score_series(
    truth: Series, hidden: set[tuple[int, Prefix]], detected: Series
) -> tuple[float, float, float]:
    """(occurrence recall, precision, hidden recall) of ``detected``."""
    total = hits = 0
    hidden_total = hidden_hits = 0
    for window, prefixes in truth:
        for prefix in prefixes:
            total += 1
            hit = _covered(detected, window, prefix)
            hits += hit
            if (window.index, prefix) in hidden:
                hidden_total += 1
                hidden_hits += hit
    # Precision: detector detections that match some truth occurrence.
    reported = matched = 0
    for window, prefixes in detected:
        for prefix in prefixes:
            reported += 1
            matched += _covered(truth, window, prefix)
    recall = hits / total if total else 1.0
    precision = matched / reported if reported else 1.0
    hidden_recall = hidden_hits / hidden_total if hidden_total else 1.0
    return recall, precision, hidden_recall


def exact_series(
    trace: Trace, windows: Iterable[Window], phi: float
) -> Series:
    """Exact HHH detections per window."""
    detector = ExactHHH(phi)
    return [
        (w, detector.detect_window(trace, w.t0, w.t1).prefixes)
        for w in windows
    ]


def _rhhh_series(
    trace: Trace,
    window_size: float,
    phi: float,
    counters_per_level: int,
    hierarchy: SourceHierarchy,
    seed: int,
    sample_levels: bool,
) -> Series:
    """Disjoint windows, RHHH reset at each boundary.

    Each window is handed to the detector as one columnar batch
    (``update_batch`` replays scalar updates in trace order, so the
    RNG-driven level sampling is unchanged).
    """
    series: Series = []
    for piece in window_slices(trace, window_size):
        detector = RHHH(
            hierarchy,
            counters_per_level,
            seed=seed + piece.window.index,
            sample_levels=sample_levels,
        )
        i, j = piece.start, piece.stop
        detector.update_batch(trace.src[i:j], trace.length[i:j])
        result = detector.query_hhh(phi * piece.bytes)
        series.append((piece.window, result.prefixes))
    return series


def _td_series(
    trace: Trace,
    detector: TimeDecayingHHH,
    window_size: float,
    step: float,
    phi: float,
) -> Series:
    """Feed ``detector`` the whole trace, querying it every ``step``
    seconds from one window after the trace start."""
    series: Series = []
    ts, src, length = trace.ts, trace.src, trace.length
    # Query instants, accumulated exactly like a per-packet loop would
    # (a query fires once some packet reaches it).
    query_times: list[float] = []
    next_query = trace.start_time + window_size
    while trace.end_time >= next_query:
        query_times.append(next_query)
        next_query += step
    # Packets strictly before a query instant are applied before it;
    # batches between instants go through the unified batch path.
    cuts = np.searchsorted(ts, np.asarray(query_times), side="left")
    prev = 0
    for index, (when, cut) in enumerate(zip(query_times, cuts)):
        cut = int(cut)
        if cut > prev:
            detector.update_batch(src[prev:cut], length[prev:cut], ts[prev:cut])
            prev = cut
        result = detector.query(phi, when)
        series.append((Window(when - window_size, when, index), result.prefixes))
    if prev < len(trace):
        detector.update_batch(src[prev:], length[prev:], ts[prev:])
    return series


@register_experiment
class DecayComparison(Experiment):
    """Section 3: accuracy/resource comparison against windowed practice."""

    name = "decay-comparison"
    description = (
        "Section 3 — time-decaying HHH vs disjoint-window detectors on "
        "recall, precision, hidden recall and resources"
    )
    PARAMS = (
        Param("window_size", "float", 10.0,
              "disjoint window size / decay tau in seconds",
              check=check_positive),
        Param("phi", "float", 0.05, "HHH byte-share threshold",
              check=check_phi),
        Param("step", "float", 1.0, "truth sliding step / query period",
              check=check_positive),
        Param("counters_per_level", "int", 128,
              "sketch counters per hierarchy level", check=check_min1),
        Param("seed", "int", 0, "RNG seed for the sampled detectors"),
    )
    default_trace = "caida:day=0,duration=60"
    smoke_trace = "caida:day=0,duration=12"
    smoke_overrides = {"window_size": 4.0}

    def run(self, trace: Trace, label: str = "trace") -> ExperimentResult:
        p = self.bound_params
        window_size, phi, step = p["window_size"], p["phi"], p["step"]
        per_level, seed = p["counters_per_level"], p["seed"]
        hierarchy = SourceHierarchy()
        levels = hierarchy.num_levels
        truth = exact_series(
            trace, SlidingWindows(window_size, step).over_trace(trace), phi
        )
        disjoint_exact = exact_series(
            trace, DisjointWindows(window_size).over_trace(trace), phi
        )
        hidden = hidden_occurrences(truth, disjoint_exact)

        def row(name: str, series: Series, counters: int,
                profile: ResourceProfile | None = None,
                reset: bool = True) -> dict[str, object]:
            recall, precision, hidden_recall = score_series(
                truth, hidden, series
            )
            return {
                "detector": name,
                "recall": round(recall, 3),
                "precision": round(precision, 3),
                "hidden_recall": round(hidden_recall, 3),
                "counters": counters,
                "stages": profile.stages if profile else "-",
                "sram_kib": round(profile.sram_kib, 1) if profile else "-",
                "window_reset": "yes" if reset else "no",
            }

        rhhh_profile = map_rhhh(per_level, levels).profile()
        td = TimeDecayingHHH(
            law=ExponentialDecay(tau=window_size),
            hierarchy=hierarchy,
            counters_per_level=per_level,
            sample_levels=False,
            seed=seed,
        )
        td_series = _td_series(trace, td, window_size, step, phi)
        rows = [
            row("disjoint-exact", disjoint_exact, counters=0),
            row("disjoint-rhhh",
                _rhhh_series(trace, window_size, phi, per_level, hierarchy,
                             seed, sample_levels=True),
                counters=per_level * levels, profile=rhhh_profile),
            row("disjoint-perlevel-ss",
                _rhhh_series(trace, window_size, phi, per_level, hierarchy,
                             seed, sample_levels=False),
                counters=per_level * levels, profile=rhhh_profile),
            row("td-hhh", td_series, counters=td.num_counters,
                profile=map_ondemand_tdbf(
                    cells=per_level * levels, hashes=levels
                ).profile(),
                reset=False),
        ]
        return self._finish(
            trace, label, rows,
            headline={
                "num_truth_occurrences": sum(
                    len(prefixes) for _, prefixes in truth
                ),
                "num_hidden_occurrences": len(hidden),
                "td_hidden_recall": rows[-1]["hidden_recall"],
            },
        )
