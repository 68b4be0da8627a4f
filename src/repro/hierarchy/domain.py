"""One-dimensional source-IP hierarchies.

The paper's experiments use "one-dimension HHH (based on source IP
addresses)".  The conventional hierarchy over IPv4 sources is byte
granularity — /32, /24, /16, /8, /0 — which is also what P4 switch
implementations (and RHHH) use; bit granularity (every length 32..0) is
supported for finer analyses and ablations.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.net.ipv4 import IPV4_BITS
from repro.net.prefix import Prefix, mask_for_length

#: Byte-granularity prefix lengths, leaf first.
BYTE_LENGTHS: tuple[int, ...] = (32, 24, 16, 8, 0)

#: Bit-granularity prefix lengths, leaf first.
BIT_LENGTHS: tuple[int, ...] = tuple(range(IPV4_BITS, -1, -1))


class SourceHierarchy:
    """A 1D generalisation hierarchy over 32-bit source addresses.

    Parameters
    ----------
    granularity:
        ``"byte"`` (default, the paper's setting), ``"bit"``, or a custom
        strictly-decreasing tuple of prefix lengths starting at 32 and
        ending at 0.
    """

    _STATE_ATTRS = ("lengths", "_masks")

    def __init__(
        self, granularity: str | Sequence[int] = "byte"
    ) -> None:
        if granularity == "byte":
            lengths = BYTE_LENGTHS
        elif granularity == "bit":
            lengths = BIT_LENGTHS
        else:
            lengths = tuple(granularity)
            if not lengths or lengths[0] != IPV4_BITS or lengths[-1] != 0:
                raise ValueError(
                    "custom hierarchies must start at 32 and end at 0, got "
                    f"{lengths}"
                )
            if any(a <= b for a, b in zip(lengths, lengths[1:])):
                raise ValueError(f"lengths must strictly decrease: {lengths}")
        self.lengths: tuple[int, ...] = lengths
        self._masks = tuple(mask_for_length(l) for l in lengths)

    @property
    def num_levels(self) -> int:
        """How many levels the hierarchy has (including leaf and root)."""
        return len(self.lengths)

    @property
    def leaf_level(self) -> int:
        """Index of the leaf level (always 0)."""
        return 0

    @property
    def root_level(self) -> int:
        """Index of the root level."""
        return self.num_levels - 1

    def length_at(self, level: int) -> int:
        """Prefix length of ``level`` (0 = leaf)."""
        return self.lengths[level]

    def generalize(self, key: int, level: int) -> int:
        """Mask ``key`` to the prefix value at ``level``."""
        return key & self._masks[level]

    def generalize_array(self, keys: np.ndarray, level: int) -> np.ndarray:
        """Vectorized :meth:`generalize` over a uint64 key column."""
        return keys & np.uint64(self._masks[level])

    def ancestors(self, key: int) -> Iterator[tuple[int, int]]:
        """Yield ``(level, generalized_value)`` from leaf to root."""
        for level, mask in enumerate(self._masks):
            yield level, key & mask

    def prefix_at(self, value: int, level: int) -> Prefix:
        """Wrap a generalized value at ``level`` as a :class:`Prefix`."""
        return Prefix(value, self.lengths[level])

    def level_of_length(self, length: int) -> int:
        """The level index whose prefix length equals ``length``."""
        try:
            return self.lengths.index(length)
        except ValueError:
            raise ValueError(
                f"length {length} not in hierarchy {self.lengths}"
            ) from None

    def __repr__(self) -> str:
        return f"SourceHierarchy(lengths={self.lengths})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SourceHierarchy) and self.lengths == other.lengths

    def __hash__(self) -> int:
        return hash(self.lengths)
