"""Time-decaying structures — the paper's Section 3 direction.

"We need to consider new directions to streaming algorithms which are based
on continuous-time operation [...] we consider to implement a Time-decaying
Bloom Filter and its extension [Bianchi et al. 2011] as a proof of concept."

This package builds that proof of concept out fully:

- :class:`DecayLaw` implementations (linear — Bianchi's original — and
  exponential);
- :class:`TimeDecayingBloomFilter` — synchronous-tick variant;
- :class:`OnDemandTDBF` — the *on-demand* variant of the cited paper: cells
  carry a timestamp and decay lazily when touched, so there is no
  background sweep (the match-action-friendly formulation);
- :class:`DecayedCounter` / :class:`ExactDecayedCounts` — per-key decayed
  counters, the unbounded-memory ground truth for decayed volumes;
- :class:`DecayedSpaceSaving` — Space-Saving over decayed counts (bounded
  memory, enumerable — the workhorse of the HHH detector);
- :class:`SlidingWindowSpaceSaving` — bucketed sliding-window heavy hitters
  in the spirit of Ben-Basat et al. (reference [1]);
- :class:`TimeDecayingHHH` — the windowless hierarchical detector: one
  decayed summary per hierarchy level with conditioned-count extraction.
  This is the algorithm the poster calls for.
"""

from repro.decay.laws import DecayLaw, ExponentialDecay, LinearDecay
from repro.decay.tdbf import TimeDecayingBloomFilter
from repro.decay.ondemand_tdbf import OnDemandTDBF
from repro.decay.decayed_countmin import DecayedCountMin
from repro.decay.decayed_counter import DecayedCounter, ExactDecayedCounts
from repro.decay.decayed_spacesaving import DecayedSpaceSaving
from repro.decay.sliding_hh import SlidingWindowSpaceSaving
from repro.decay.td_hhh import TimeDecayingHHH

__all__ = [
    "DecayLaw",
    "LinearDecay",
    "ExponentialDecay",
    "TimeDecayingBloomFilter",
    "OnDemandTDBF",
    "DecayedCountMin",
    "DecayedCounter",
    "ExactDecayedCounts",
    "DecayedSpaceSaving",
    "SlidingWindowSpaceSaving",
    "TimeDecayingHHH",
]
