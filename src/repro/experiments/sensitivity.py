"""Figure 3: sensitivity of the reported HHH set to micro window shrinkage.

"Using as a baseline a fixed time window of 10 seconds, we compare the
detected HHHs against the one identified in other time windows which are
10-100 milliseconds shorter from the baseline window.  All the windows have
the same starting point [...] The results produced by the baseline window
have been compared against the one obtained with different windows sizes
using the Jaccard similarity coefficient."

For each delta the experiment produces the per-window Jaccard similarities
and summarises their CDF; the paper's reading — "window sizes of 100 and
40 ms smaller [...] differ by 25% and 11% respectively, for at least 70% of
the cases" — is the 70th-percentile similarity column.  The raw per-delta
samples travel in ``result.extras["samples"]``; :func:`cdf_plot` renders
one delta's CDF from them.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.render import ascii_cdf
from repro.experiments.base import (
    Experiment,
    Param,
    check_phi,
    check_positive,
)
from repro.experiments.registry import register_experiment
from repro.experiments.result import ExperimentResult
from repro.hhh.exact_hhh import ExactHHH
from repro.metrics.cdf import EmpiricalCDF
from repro.metrics.sets import jaccard
from repro.trace.container import Trace
from repro.windows.shrunk import NestedShrunkWindows

#: The paper's deltas: 10..100 ms in 10 ms steps.
DEFAULT_DELTAS = tuple(round(0.01 * k, 3) for k in range(1, 11))


def similarity_samples(
    trace: Trace,
    baseline_size: float = 10.0,
    deltas: Sequence[float] = DEFAULT_DELTAS,
    phi: float = 0.05,
) -> dict[float, list[float]]:
    """Per-window Jaccard similarity of baseline vs shrunk HHH sets, by
    delta."""
    for delta in deltas:
        if not 0 < delta < baseline_size:
            raise ValueError(f"delta {delta} out of (0, {baseline_size})")
    detector = ExactHHH(phi)
    schedule = NestedShrunkWindows(baseline_size, deltas[0])
    bases = [base for base, _ in schedule.over_trace(trace)]
    # Baseline detections, computed once per baseline window.
    baseline_sets = [
        detector.detect(trace.bytes_by_key(base.t0, base.t1)).prefixes
        for base in bases
    ]
    return {
        delta: [
            jaccard(
                baseline,
                detector.detect(
                    trace.bytes_by_key(base.t0, base.t1 - delta)
                ).prefixes,
            )
            for base, baseline in zip(bases, baseline_sets)
        ]
        for delta in deltas
    }


def cdf_plot(result: ExperimentResult, delta: float) -> str:
    """ASCII rendering of one delta's Jaccard-similarity CDF."""
    return ascii_cdf(
        EmpiricalCDF(result.extras["samples"][delta]).points(),
        title=(
            f"Jaccard similarity CDF, baseline "
            f"{result.params['baseline_size']:g}s, "
            f"delta {delta * 1000:g}ms, phi={result.params['phi']:.0%}"
        ),
    )


def _check_deltas(value: object) -> None:
    for delta in value:  # type: ignore[union-attr]
        check_positive(delta)


@register_experiment
class WindowSensitivity(Experiment):
    """Figure 3: Jaccard similarity of HHH sets under micro window shrinks."""

    name = "window-sensitivity"
    description = (
        "Figure 3 — Jaccard similarity of the HHH set when the window is "
        "shrunk by 10-100 ms"
    )
    PARAMS = (
        Param("baseline_size", "float", 10.0,
              "baseline window size in seconds", check=check_positive),
        Param("deltas", "floats", DEFAULT_DELTAS,
              "shrink deltas in seconds", check=_check_deltas),
        Param("phi", "float", 0.05, "HHH byte-share threshold",
              check=check_phi),
    )
    default_trace = "sensitivity:duration=240"
    smoke_trace = "sensitivity:duration=25"

    def run(self, trace: Trace, label: str = "trace") -> ExperimentResult:
        samples = similarity_samples(trace, **self.bound_params)
        rows = []
        for delta in sorted(samples):
            cdf = EmpiricalCDF(samples[delta])
            rows.append({
                "delta_ms": round(delta * 1000),
                "windows": len(samples[delta]),
                "mean_jaccard": round(cdf.mean, 3),
                "p70_jaccard": round(cdf.quantile(0.70), 3),
                "changed_windows_%": round(
                    100 * cdf.fraction_at_most(1.0 - 1e-12), 1
                ),
            })
        worst = min(rows, key=lambda r: r["p70_jaccard"])
        return self._finish(
            trace, label, rows,
            headline={
                "worst_delta_ms": worst["delta_ms"],
                "worst_p70_jaccard": worst["p70_jaccard"],
            },
            extras={"samples": samples},
        )
