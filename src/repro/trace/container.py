"""Column-oriented packet trace container.

Experiments repeatedly aggregate byte counts by source over thousands of
overlapping windows; doing that over Python objects would dominate runtime.
:class:`Trace` therefore keeps the packet fields in parallel numpy arrays
sorted by timestamp, and offers exactly the primitives the window engines
need: time slicing by binary search and grouped byte aggregation.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.packet.model import Packet


class Trace:
    """An immutable, time-sorted packet trace backed by numpy columns."""

    __slots__ = ("ts", "src", "dst", "length", "sport", "dport", "proto")

    def __init__(
        self,
        ts: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        length: np.ndarray,
        sport: np.ndarray | None = None,
        dport: np.ndarray | None = None,
        proto: np.ndarray | None = None,
    ) -> None:
        n = len(ts)
        for name, col in (("src", src), ("dst", dst), ("length", length)):
            if len(col) != n:
                raise ValueError(f"column {name} has length {len(col)} != {n}")
        ts = np.asarray(ts, dtype=np.float64)
        if n and np.any(ts[1:] < ts[:-1]):
            raise ValueError("timestamps must be sorted non-decreasing")
        self.ts = ts
        self.src = np.asarray(src, dtype=np.uint32)
        self.dst = np.asarray(dst, dtype=np.uint32)
        self.length = np.asarray(length, dtype=np.int64)
        self.sport = (
            np.zeros(n, dtype=np.uint16) if sport is None
            else np.asarray(sport, dtype=np.uint16)
        )
        self.dport = (
            np.zeros(n, dtype=np.uint16) if dport is None
            else np.asarray(dport, dtype=np.uint16)
        )
        self.proto = (
            np.full(n, 6, dtype=np.uint8) if proto is None
            else np.asarray(proto, dtype=np.uint8)
        )

    # -- construction ----------------------------------------------------

    @classmethod
    def from_packets(cls, packets: Iterable[Packet]) -> "Trace":
        """Build a trace from packet records (sorting by timestamp)."""
        pkts = sorted(packets, key=lambda p: p.ts)
        n = len(pkts)
        ts = np.fromiter((p.ts for p in pkts), dtype=np.float64, count=n)
        src = np.fromiter((p.src for p in pkts), dtype=np.uint32, count=n)
        dst = np.fromiter((p.dst for p in pkts), dtype=np.uint32, count=n)
        length = np.fromiter((p.length for p in pkts), dtype=np.int64, count=n)
        sport = np.fromiter((p.sport for p in pkts), dtype=np.uint16, count=n)
        dport = np.fromiter((p.dport for p in pkts), dtype=np.uint16, count=n)
        proto = np.fromiter((p.proto for p in pkts), dtype=np.uint8, count=n)
        return cls(ts, src, dst, length, sport, dport, proto)

    @classmethod
    def empty(cls) -> "Trace":
        """A trace with no packets."""
        return cls(
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.uint32),
            np.empty(0, dtype=np.uint32),
            np.empty(0, dtype=np.int64),
        )

    # -- basic properties -------------------------------------------------

    def __len__(self) -> int:
        return len(self.ts)

    @property
    def start_time(self) -> float:
        """Timestamp of the first packet (0.0 for an empty trace)."""
        return float(self.ts[0]) if len(self) else 0.0

    @property
    def end_time(self) -> float:
        """Timestamp of the last packet (0.0 for an empty trace)."""
        return float(self.ts[-1]) if len(self) else 0.0

    @property
    def duration(self) -> float:
        """end_time - start_time."""
        return self.end_time - self.start_time

    @property
    def total_bytes(self) -> int:
        """Sum of packet lengths."""
        return int(self.length.sum())

    # -- slicing & aggregation -------------------------------------------

    def index_range(self, t0: float, t1: float) -> tuple[int, int]:
        """Packet index range [i, j) covering timestamps in [t0, t1)."""
        i = int(np.searchsorted(self.ts, t0, side="left"))
        j = int(np.searchsorted(self.ts, t1, side="left"))
        return i, j

    def slice_time(self, t0: float, t1: float) -> "Trace":
        """The sub-trace with timestamps in [t0, t1)."""
        i, j = self.index_range(t0, t1)
        return self.slice_index(i, j)

    def slice_index(self, i: int, j: int) -> "Trace":
        """The sub-trace of packets [i, j) (columns are shared views)."""
        return Trace(
            self.ts[i:j], self.src[i:j], self.dst[i:j], self.length[i:j],
            self.sport[i:j], self.dport[i:j], self.proto[i:j],
        )

    def bytes_by_key(
        self, t0: float, t1: float, key: str = "src"
    ) -> dict[int, int]:
        """Byte volume per key over the time range [t0, t1).

        ``key`` selects the column: ``"src"`` (the paper's setting) or
        ``"dst"``.  Returns ``{key_value: bytes}``.
        """
        i, j = self.index_range(t0, t1)
        return self.bytes_by_key_index(i, j, key)

    def key_column(self, key: str) -> np.ndarray:
        """The column addressed by a key name (``"src"`` or ``"dst"``)."""
        if key == "src":
            return self.src
        if key == "dst":
            return self.dst
        raise ValueError(f"unknown key column {key!r}")

    def bytes_by_key_index(
        self, i: int, j: int, key: str = "src"
    ) -> dict[int, int]:
        """Like :meth:`bytes_by_key` but over a packet index range [i, j)."""
        col = self.key_column(key)
        keys, inverse = np.unique(col[i:j], return_inverse=True)
        sums = np.bincount(inverse, weights=self.length[i:j].astype(np.float64))
        return {int(k): int(s) for k, s in zip(keys, sums)}

    def bytes_in_range(self, t0: float, t1: float) -> int:
        """Total bytes with timestamps in [t0, t1)."""
        i, j = self.index_range(t0, t1)
        return int(self.length[i:j].sum())

    # -- iteration ---------------------------------------------------------

    def packet_at(self, index: int) -> Packet:
        """Materialise packet ``index`` as a :class:`Packet` record."""
        return Packet(
            ts=float(self.ts[index]),
            src=int(self.src[index]),
            dst=int(self.dst[index]),
            length=int(self.length[index]),
            sport=int(self.sport[index]),
            dport=int(self.dport[index]),
            proto=int(self.proto[index]),
        )

    def packets(self) -> Iterator[Packet]:
        """Iterate the trace as :class:`Packet` records."""
        for i in range(len(self)):
            yield self.packet_at(i)

    def __iter__(self) -> Iterator[Packet]:
        return self.packets()

    def __repr__(self) -> str:
        return (
            f"Trace(n={len(self)}, span=[{self.start_time:.3f}, "
            f"{self.end_time:.3f}], bytes={self.total_bytes})"
        )
