"""Shared measurement helpers under the experiment layer.

- :mod:`repro.analysis.render` — aligned text tables, ASCII CDF curves
  and bar charts (no plotting dependency is available offline);
- :mod:`repro.analysis.accuracy` — exact-ground-truth precision/recall/F1
  scoring for enumerable detectors;
- :mod:`repro.analysis.throughput` — the scalar-vs-batch update timing
  methodology.

The paper's figures themselves (Figure 2 hidden HHHs, Figure 3 window
sensitivity, the Section 3 comparison) are registered experiments in
:mod:`repro.experiments`; those modules are their only implementation.
"""

from repro.analysis.render import format_table, ascii_cdf, ascii_bars

__all__ = [
    "format_table",
    "ascii_cdf",
    "ascii_bars",
]
