"""IPv4 address and prefix algebra.

Everything in this package works on plain integers under the hood so that the
hot paths (hierarchy generalisation, trie keys) never allocate objects.
:class:`Prefix` is a thin, immutable, hashable wrapper for results and for
readable test assertions.
"""

from repro.net.ipv4 import IPV4_BITS, IPV4_MAX, format_ipv4
from repro.net.prefix import (
    Prefix,
    mask_for_length,
    prefix_contains,
    truncate,
)
from repro.net.random_net import RandomAddressSpace

__all__ = [
    "IPV4_BITS",
    "IPV4_MAX",
    "format_ipv4",
    "Prefix",
    "mask_for_length",
    "prefix_contains",
    "truncate",
    "RandomAddressSpace",
]
