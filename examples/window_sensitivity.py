#!/usr/bin/env python3
"""Figure 3 reproduction: micro window-size variations change the result.

Replicates the paper's setup: a 10-second baseline window compared against
windows 10-100 ms shorter (same start), Jaccard similarity of the reported
HHH sets at a 5% threshold, CDF across windows — driven through the
experiment registry (the same path as ``repro-hhh run window-sensitivity``).

Run with::

    python examples/window_sensitivity.py [duration_seconds]

Duration defaults to 240 s (the paper uses a 20-minute trace; pass 1200
for the full-length run).
"""

import sys

from repro.experiments import run_experiment
from repro.experiments.sensitivity import cdf_plot


def main() -> None:
    duration = float(sys.argv[1]) if len(sys.argv) > 1 else 240.0
    print(f"generating sensitivity trace ({duration:.0f}s) ...")
    result = run_experiment(
        "window-sensitivity",
        trace_specs=[f"sensitivity:duration={duration}"],
        overrides={"baseline_size": 10.0, "phi": 0.05},
    )

    print("\nFigure 3 — Jaccard similarity vs shrink delta")
    print(result.to_table())
    # The per-delta similarity samples ride in result.extras["samples"].
    for delta in (0.04, 0.10):
        print()
        print(cdf_plot(result, delta))
    print(
        "\npaper: at delta=100ms the reported set differs by ~25% "
        "(J~0.75), at 40ms by ~11% (J~0.89), for at least 70% of windows"
    )


if __name__ == "__main__":
    main()
