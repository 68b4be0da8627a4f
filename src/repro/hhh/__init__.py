"""Exact heavy-hitter and hierarchical-heavy-hitter algorithms.

These are the ground-truth computations both figures of the paper are built
on: given the per-source byte volume of a time window, find

- **HH**: sources whose volume exceeds ``phi * total_bytes``;
- **HHH**: prefixes whose volume exceeds the threshold *after excluding the
  contribution of all their HHH descendants* (the standard
  Cormode–Korn–Muthukrishnan–Srivastava discounted-count semantics, which
  is also how the paper phrases it).

The implementations here are exact and offline (they see the whole window);
approximate streaming detectors live in :mod:`repro.sketch` and
:mod:`repro.decay`.
"""

from repro.hhh.exact_hh import exact_heavy_hitters
from repro.hhh.exact_hhh import ExactHHH, HHHResult, HHHItem
from repro.hhh.trie import PrefixTrie

__all__ = [
    "exact_heavy_hitters",
    "ExactHHH",
    "HHHResult",
    "HHHItem",
    "PrefixTrie",
]
