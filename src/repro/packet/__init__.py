"""Packet records and pcap I/O.

The unit the whole library streams over is :class:`Packet`: a timestamped
5-tuple plus a byte count.  Traces are plain sequences (or iterators) of
packets.  :mod:`repro.packet.pcap` can round-trip traces through the classic
libpcap on-disk format so external tools can inspect synthetic traces and
real captures can be fed to the experiments.
"""

from repro.packet.model import PROTO_ICMP, PROTO_TCP, PROTO_UDP, Packet
from repro.packet.pcap import PcapReader, PcapWriter, read_pcap, write_pcap

__all__ = [
    "Packet",
    "PROTO_TCP",
    "PROTO_UDP",
    "PROTO_ICMP",
    "PcapReader",
    "PcapWriter",
    "read_pcap",
    "write_pcap",
]
