"""Structured random address generation.

Real Tier-1 traffic does not draw source addresses uniformly: addresses
cluster into networks, so the per-/8, /16, /24 aggregates that hierarchical
heavy hitters are made of exist at all levels.  :class:`RandomAddressSpace`
draws a population of host addresses nested under a configurable number of
top-level networks so that synthetic traces produce non-degenerate prefix
hierarchies.
"""

from __future__ import annotations

import random

import numpy as np

from repro.net.ipv4 import IPV4_BITS
from repro.net.prefix import Prefix, truncate


class RandomAddressSpace:
    """Draw host addresses clustered under random networks.

    Parameters
    ----------
    num_networks:
        How many distinct top-level networks to create.
    network_length:
        Prefix length of the top-level networks (default /8-like 8 bits).
    subnets_per_network:
        How many distinct subnets to carve inside each network.
    subnet_length:
        Prefix length of the subnets (must be >= ``network_length``).
    rng:
        Seeded :class:`random.Random`; all draws flow through it.
    """

    def __init__(
        self,
        num_networks: int = 16,
        network_length: int = 8,
        subnets_per_network: int = 16,
        subnet_length: int = 24,
        rng: random.Random | None = None,
    ) -> None:
        if not 0 < network_length <= subnet_length <= IPV4_BITS:
            raise ValueError(
                "need 0 < network_length <= subnet_length <= 32, got "
                f"{network_length}/{subnet_length}"
            )
        if num_networks < 1 or subnets_per_network < 1:
            raise ValueError("need at least one network and one subnet")
        self._rng = rng or random.Random(0)
        self.network_length = network_length
        self.subnet_length = subnet_length
        self.networks = self._draw_distinct(num_networks, network_length)
        self.subnets: list[int] = []
        host_bits_in_net = subnet_length - network_length
        for net in self.networks:
            seen: set[int] = set()
            # Cap at the number of distinct subnets that actually fit.
            want = min(subnets_per_network, 1 << host_bits_in_net)
            while len(seen) < want:
                offset = self._rng.getrandbits(host_bits_in_net) if host_bits_in_net else 0
                subnet = net | (offset << (IPV4_BITS - subnet_length))
                seen.add(subnet)
            self.subnets.extend(sorted(seen))

    def _draw_distinct(self, count: int, length: int) -> list[int]:
        """Draw ``count`` distinct prefix values of ``length`` bits."""
        if count > (1 << min(length, 62)):
            raise ValueError(f"cannot draw {count} distinct /{length} networks")
        seen: set[int] = set()
        while len(seen) < count:
            value = self._rng.getrandbits(length) << (IPV4_BITS - length)
            seen.add(value)
        return sorted(seen)

    def draw_host(self) -> int:
        """A uniformly random host inside a uniformly random subnet.

        The scalar reference: :meth:`draw_hosts` is the vectorized form
        the generator calls, and the tests hold it to this method's
        output and ``rng`` state.
        """
        subnet = self._rng.choice(self.subnets)
        host_bits = IPV4_BITS - self.subnet_length
        return subnet | (self._rng.getrandbits(host_bits) if host_bits else 0)

    def draw_hosts(self, count: int) -> np.ndarray:
        """``count`` draws of :meth:`draw_host`, as a uint32 array.

        Bit-identical to calling :meth:`draw_host` ``count`` times, and
        ``rng`` ends in the same state.  Both draws are top bits of 32-bit
        Mersenne Twister words: ``getrandbits(b)`` keeps the top ``b``
        bits of one word, and ``choice`` draws words until the top
        ``len(subnets).bit_length()`` bits index a subnet.  So this method
        reads a block of words from ``rng`` in one call, parses it with
        :func:`_accepted_choices`, and then rewinds ``rng`` and advances it
        by exactly the words the draws used.
        """
        if count <= 0:
            return np.empty(0, dtype=np.uint32)
        num_subnets = len(self.subnets)
        choice_bits = num_subnets.bit_length()
        host_bits = IPV4_BITS - self.subnet_length
        start = self._rng.getstate()
        # Words per host: 2**choice_bits / num_subnets candidates on
        # average, plus the host word; 10% slack makes a refill rare.
        per_host = (1 << choice_bits) / num_subnets + (1 if host_bits else 0)
        words = self._words(int(count * per_host * 1.1) + 64)
        while True:
            picks = _accepted_choices(
                words, choice_bits, num_subnets, bool(host_bits)
            )[:count]
            used = int(picks[-1]) + (2 if host_bits else 1) if len(picks) else 0
            if len(picks) == count and used <= len(words):
                break
            words = np.concatenate([words, self._words(len(words))])
        hosts = np.array(self.subnets, dtype=np.uint32)[
            words[picks] >> (IPV4_BITS - choice_bits)
        ]
        if host_bits:
            hosts |= words[picks + 1] >> (IPV4_BITS - host_bits)
        self._rng.setstate(start)
        self._rng.getrandbits(IPV4_BITS * used)
        return hosts

    def _words(self, count: int) -> np.ndarray:
        """The next ``count`` 32-bit outputs of ``rng``, in draw order.

        ``getrandbits`` fills its result from the least significant word
        up, one generator output per 32 bits, on any byte order.
        """
        bits = self._rng.getrandbits(IPV4_BITS * count)
        return np.frombuffer(bits.to_bytes(4 * count, "little"), dtype="<u4")

    def subnet_prefixes(self) -> list[Prefix]:
        """All subnets as :class:`Prefix` objects."""
        return [Prefix(v, self.subnet_length) for v in self.subnets]

    def network_prefixes(self) -> list[Prefix]:
        """All top-level networks as :class:`Prefix` objects."""
        return [Prefix(v, self.network_length) for v in self.networks]

    def network_of(self, address: int) -> Prefix:
        """The top-level network containing ``address``."""
        return Prefix(truncate(address, self.network_length), self.network_length)


def _accepted_choices(
    words: np.ndarray, choice_bits: int, num_subnets: int, host_words: bool
) -> np.ndarray:
    """Indices of the words that ``random.choice`` accepts, in order.

    A word *fits* when its top ``choice_bits`` bits index a subnet.  With
    host words, each accepted choice is followed by a host word.  A word
    that does not fit was either a rejected candidate or a host word, so
    the word after it is a candidate; in the run of fitting words that
    starts there, candidates (all accepted) and host words alternate.
    """
    fits = (words >> (IPV4_BITS - choice_bits)) < num_subnets
    if not host_words:
        return np.flatnonzero(fits)
    misfits = np.flatnonzero(~fits)
    run_start = np.concatenate(([0], misfits + 1))
    run_picks = (np.append(misfits, len(words)) - run_start + 1) // 2
    first_pick = np.cumsum(run_picks) - run_picks
    return np.repeat(run_start - 2 * first_pick, run_picks) + 2 * np.arange(
        run_picks.sum()
    )
