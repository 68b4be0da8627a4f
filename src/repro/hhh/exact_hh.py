"""Exact (plain, non-hierarchical) heavy hitters.

The paper: "[HH detection] seeks to find an IP prefix p which contributes
with a traffic volume larger than a given threshold T during a fixed time
interval t."  At the leaf level this is a simple filter over aggregated
counts.
"""

from __future__ import annotations

from typing import Mapping


def exact_heavy_hitters(
    counts: Mapping[int, int], threshold: float
) -> dict[int, int]:
    """Keys whose count meets an absolute ``threshold``.

    Returns ``{key: count}`` for every key with ``count >= threshold``.
    ``threshold`` is in the same unit as the counts (bytes in the paper).
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    return {k: c for k, c in counts.items() if c >= threshold}
