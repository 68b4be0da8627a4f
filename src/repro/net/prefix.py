"""IPv4 prefixes (CIDR blocks) and the algebra the HHH hierarchy needs.

A prefix is a ``(value, length)`` pair where ``value`` has all host bits
zeroed.  The functions here operate on raw integers; :class:`Prefix` is the
immutable wrapper used at API boundaries and inside result sets, where
hashability and a readable ``repr`` matter more than allocation cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.ipv4 import IPV4_BITS, IPV4_MAX, format_ipv4


def mask_for_length(length: int) -> int:
    """Network mask (as an int) for a prefix of ``length`` bits.

    >>> hex(mask_for_length(8))
    '0xff000000'
    """
    if not 0 <= length <= IPV4_BITS:
        raise ValueError(f"prefix length {length} out of range")
    if length == 0:
        return 0
    return (IPV4_MAX << (IPV4_BITS - length)) & IPV4_MAX


def truncate(value: int, length: int) -> int:
    """Zero the host bits of ``value``, keeping the top ``length`` bits."""
    return value & mask_for_length(length)


def prefix_contains(p_value: int, p_length: int, address: int) -> bool:
    """True when ``address`` falls inside prefix ``(p_value, p_length)``."""
    return truncate(address, p_length) == p_value


@dataclass(frozen=True, slots=True, order=True)
class Prefix:
    """An immutable IPv4 prefix: network ``value`` plus bit ``length``.

    The constructor validates that host bits are zero, so two equal networks
    always compare equal regardless of how they were produced.
    """

    value: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= IPV4_BITS:
            raise ValueError(f"prefix length {self.length} out of range")
        if not 0 <= self.value <= IPV4_MAX:
            raise ValueError(f"not a 32-bit value: {self.value}")
        if truncate(self.value, self.length) != self.value:
            raise ValueError(
                f"host bits set: {format_ipv4(self.value)}/{self.length}"
            )

    @classmethod
    def from_address(cls, address: int, length: int) -> "Prefix":
        """The length-``length`` prefix containing ``address``."""
        return cls(truncate(address, length), length)

    @property
    def mask(self) -> int:
        """The network mask as an integer."""
        return mask_for_length(self.length)

    @property
    def num_addresses(self) -> int:
        """How many addresses the prefix covers."""
        return 1 << (IPV4_BITS - self.length)

    @property
    def first_address(self) -> int:
        """Lowest address in the prefix (the network value itself)."""
        return self.value

    @property
    def last_address(self) -> int:
        """Highest address in the prefix."""
        return self.value | (IPV4_MAX >> self.length if self.length else IPV4_MAX)

    def contains_address(self, address: int) -> bool:
        """True when ``address`` is inside this prefix."""
        return prefix_contains(self.value, self.length, address)

    def contains_prefix(self, other: "Prefix") -> bool:
        """True when ``other`` is equal to or nested inside this prefix."""
        return (
            other.length >= self.length
            and truncate(other.value, self.length) == self.value
        )

    def parent(self, levels: int = 1) -> "Prefix":
        """The ancestor ``levels`` bits shorter.

        Raises :class:`ValueError` when asked to go above the root.
        """
        new_length = self.length - levels
        if new_length < 0:
            raise ValueError(f"no ancestor {levels} above /{self.length}")
        return Prefix(truncate(self.value, new_length), new_length)

    def children(self) -> tuple["Prefix", "Prefix"]:
        """The two one-bit-longer sub-prefixes."""
        if self.length >= IPV4_BITS:
            raise ValueError("a /32 has no children")
        child_len = self.length + 1
        left = Prefix(self.value, child_len)
        right = Prefix(self.value | (1 << (IPV4_BITS - child_len)), child_len)
        return (left, right)

    def is_root(self) -> bool:
        """True for the zero-length prefix covering the whole space."""
        return self.length == 0

    def __str__(self) -> str:
        return f"{format_ipv4(self.value)}/{self.length}"

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Prefix):
            return self.contains_prefix(item)
        if isinstance(item, int):
            return self.contains_address(item)
        return NotImplemented


ROOT_PREFIX = Prefix(0, 0)
