"""Prefix hierarchies.

A *hierarchy* tells HHH algorithms how keys generalise: which prefix lengths
exist (byte or bit granularity for 1D source hierarchies) and how to mask a
key to a given level.  Levels are indexed from 0 = leaf (most specific) to
``num_levels - 1`` = root (the whole address space), matching the bottom-up
order in which HHH algorithms process them.
"""

from repro.hierarchy.domain import (
    BIT_LENGTHS,
    BYTE_LENGTHS,
    SourceHierarchy,
)

__all__ = [
    "SourceHierarchy",
    "BYTE_LENGTHS",
    "BIT_LENGTHS",
]
