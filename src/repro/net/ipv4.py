"""IPv4 addresses as integers.

The library stores addresses as unsigned 32-bit integers everywhere; this
module provides the address-width constants and dotted-quad formatting.  We
deliberately do not use :mod:`ipaddress` in hot paths: the exact-HHH trie
and the trace generator touch millions of addresses and an int is an order
of magnitude cheaper than a standard-library address object.
"""

from __future__ import annotations

IPV4_BITS = 32
IPV4_MAX = (1 << IPV4_BITS) - 1


def format_ipv4(value: int) -> str:
    """Format an unsigned 32-bit integer as dotted-quad notation.

    >>> format_ipv4(167772161)
    '10.0.0.1'
    """
    if not 0 <= value <= IPV4_MAX:
        raise ValueError(f"not a 32-bit address value: {value}")
    return ".".join(
        str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0)
    )
