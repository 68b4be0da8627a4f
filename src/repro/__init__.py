"""repro — reproduction of *Revealing Hidden Hierarchical Heavy Hitters in
network traffic* (Galea et al., SIGCOMM Posters and Demos 2018).

The package provides, from the bottom up:

- :mod:`repro.core` — the unified :class:`~repro.core.Detector` contract
  (scalar + vectorized batch updates) and the string-keyed detector
  registry every other layer programs against;
- :mod:`repro.net` — IPv4 address and prefix algebra;
- :mod:`repro.hashing` — a seeded, deterministic hash family for sketches;
- :mod:`repro.packet` — packet records and pcap I/O;
- :mod:`repro.trace` — synthetic Tier-1-like trace generation (the CAIDA
  substitute) and trace statistics;
- :mod:`repro.hierarchy` — the 1D source-prefix hierarchy;
- :mod:`repro.hhh` — exact heavy-hitter and hierarchical-heavy-hitter
  ground-truth algorithms;
- :mod:`repro.windows` — the three window models of the paper's Figure 1
  (disjoint, sliding, micro-shrunk) and streaming drivers;
- :mod:`repro.stream` — the streaming runtime: chunked unbounded
  ingestion (finite traces, infinite synthetic scenarios, drift splices),
  online report emission with churn accounting, and pipeline
  checkpoint/restore;
- :mod:`repro.sketch` — the prior-work detectors the poster positions itself
  against (Count-Min, Space-Saving, HashPipe, RHHH, ...);
- :mod:`repro.decay` — the direction the paper advocates in Section 3:
  time-decaying Bloom filters and a windowless time-decaying HHH detector;
- :mod:`repro.dataplane` — a match-action pipeline resource model used to
  judge "match-action friendliness";
- :mod:`repro.metrics` — the measurement methodology itself:
  hidden-HHH accounting, set similarity and empirical CDFs;
- :mod:`repro.experiments` — the registered experiments, one module per
  paper result (``hidden-hhh`` for Figure 2, ``window-sensitivity`` for
  Figure 3, ``decay-comparison`` for Section 3) plus the perf and
  accuracy experiments, all returning one uniform result artifact.

Quickstart::

    from repro import presets
    from repro.experiments import make_experiment

    trace = presets.caida_like_day(day=0, duration=60.0)
    exp = make_experiment("hidden-hhh", window_sizes=(5.0,),
                          thresholds=(0.05,))
    result = exp.run(trace)
    print(result.to_table())
"""

from repro.core import Detector, detector_names, make_detector
from repro.net import Prefix
from repro.packet import Packet
from repro.hierarchy import SourceHierarchy
from repro.hhh import ExactHHH, HHHResult, exact_heavy_hitters
from repro.windows import DisjointWindows, SlidingWindows, NestedShrunkWindows
from repro.decay import TimeDecayingBloomFilter, TimeDecayingHHH
from repro.trace import presets

__version__ = "1.0.0"

__all__ = [
    "Detector",
    "detector_names",
    "make_detector",
    "Prefix",
    "Packet",
    "SourceHierarchy",
    "ExactHHH",
    "HHHResult",
    "exact_heavy_hitters",
    "DisjointWindows",
    "SlidingWindows",
    "NestedShrunkWindows",
    "TimeDecayingBloomFilter",
    "TimeDecayingHHH",
    "presets",
    "__version__",
]
