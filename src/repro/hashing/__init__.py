"""Deterministic, seedable hash functions for sketches.

Python's builtin ``hash`` is salted per process, which would make every
sketch non-reproducible across runs.  All sketches in :mod:`repro.sketch`
and :mod:`repro.decay` therefore draw their hash functions from the family
defined here: multiply-shift universal hashing, seeded by the splitmix64
mixer.  Each function is one object: ``h(key)`` hashes a Python int and
``h.array(keys)`` a uint64 numpy array, bit-exactly.
"""

from repro.hashing.mixers import splitmix64
from repro.hashing.families import MultiplyShiftFamily

__all__ = ["splitmix64", "MultiplyShiftFamily"]
