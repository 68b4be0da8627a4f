"""The packet record.

A :class:`Packet` is deliberately minimal: the experiments in the paper need
only a timestamp, a source address and a byte count (one-dimensional HHH over
source IPs, weighted by bytes), but we carry the full 5-tuple so traces
round-trip through pcap files and can be keyed by destination as well.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17


@dataclass(frozen=True, slots=True)
class Packet:
    """One observed packet.

    Attributes
    ----------
    ts:
        Capture timestamp in seconds (float, epoch-relative or
        trace-relative — the library only ever uses differences).
    src, dst:
        Source / destination IPv4 addresses as unsigned 32-bit ints.
    sport, dport:
        Transport ports (0 when not applicable).
    proto:
        IP protocol number.
    length:
        Bytes on the wire for this packet; all heavy-hitter thresholds in
        the paper are byte-volume based.
    """

    ts: float
    src: int
    dst: int
    length: int
    sport: int = 0
    dport: int = 0
    proto: int = PROTO_TCP

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError(f"negative packet length {self.length}")
        if not 0 <= self.src <= 0xFFFFFFFF or not 0 <= self.dst <= 0xFFFFFFFF:
            raise ValueError("addresses must be 32-bit unsigned values")
        if not 0 <= self.sport <= 0xFFFF or not 0 <= self.dport <= 0xFFFF:
            raise ValueError("ports must be 16-bit unsigned values")
        if not 0 <= self.proto <= 0xFF:
            raise ValueError(f"bad protocol number {self.proto}")

    def shifted(self, dt: float) -> "Packet":
        """A copy of this packet with the timestamp moved by ``dt``."""
        return replace(self, ts=self.ts + dt)

    def with_length(self, length: int) -> "Packet":
        """A copy of this packet with a different byte count."""
        return replace(self, length=length)
