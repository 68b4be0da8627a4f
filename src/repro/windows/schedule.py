"""The :class:`Window` record and shared schedule helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True, slots=True, order=True)
class Window:
    """A half-open time interval [t0, t1) with its position in a schedule."""

    t0: float
    t1: float
    index: int = 0

    def __post_init__(self) -> None:
        if self.t1 < self.t0:
            raise ValueError(f"window ends before it starts: {self}")

    @property
    def length(self) -> float:
        """Window length in seconds."""
        return self.t1 - self.t0

    def contains(self, ts: float) -> bool:
        """True when ``ts`` falls inside [t0, t1)."""
        return self.t0 <= ts < self.t1

    def overlap(self, other: "Window") -> float:
        """Seconds of overlap with another window."""
        return max(0.0, min(self.t1, other.t1) - max(self.t0, other.t0))

    def __str__(self) -> str:
        return f"[{self.t0:.3f}, {self.t1:.3f})#{self.index}"


def align_start(start: float, end: float) -> tuple[float, float]:
    """Validate and return a (start, end) span for a schedule."""
    if end <= start:
        raise ValueError(f"empty time span [{start}, {end})")
    return start, end


def edge_iter(start: float, size: float) -> Iterator[float]:
    """The unbounded accumulating right-edge schedule from ``start``.

    Edges accumulate (``edge += size``) exactly like the seed's per-packet
    loop, so every consumer — the windowed driver, window-aligned stream
    emission — places boundaries bit-identically.
    """
    if size <= 0:
        raise ValueError(f"window size must be positive, got {size}")
    edge = start + size
    while True:
        yield edge
        edge += size


def edge_schedule(
    start: float, end: float, size: float, emit_partial: bool = False
) -> list[float]:
    """Right edges of the complete windows covering ``[start, end]``.

    A window is *complete* once the span extends to its right edge; with
    ``emit_partial`` the first edge past ``end`` (the trailing partial
    window) is appended too.
    """
    edges: list[float] = []
    for edge in edge_iter(start, size):
        if end < edge:
            if emit_partial:
                edges.append(edge)
            break
        edges.append(edge)
    return edges
