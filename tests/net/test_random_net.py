"""Unit tests for repro.net.random_net."""

import random

import numpy as np
import pytest

from repro.net.random_net import RandomAddressSpace


class TestRandomAddressSpace:
    def test_deterministic_under_seed(self):
        a = RandomAddressSpace(rng=random.Random(5))
        b = RandomAddressSpace(rng=random.Random(5))
        assert a.networks == b.networks
        assert a.subnets == b.subnets

    def test_networks_are_distinct_and_masked(self):
        space = RandomAddressSpace(num_networks=32, rng=random.Random(1))
        assert len(set(space.networks)) == 32
        for net in space.networks:
            assert net & ~0xFF000000 == 0  # /8 values only

    def test_subnets_nested_in_networks(self):
        space = RandomAddressSpace(
            num_networks=8, subnets_per_network=4, rng=random.Random(2)
        )
        nets = set(space.networks)
        for subnet in space.subnets:
            assert (subnet & 0xFF000000) in nets

    def test_draw_host_lands_in_some_subnet(self):
        space = RandomAddressSpace(rng=random.Random(3))
        subnets = set(space.subnets)
        for _ in range(100):
            host = space.draw_host()
            assert (host & 0xFFFFFF00) in subnets

    def test_draw_hosts_count(self):
        space = RandomAddressSpace(rng=random.Random(4))
        assert len(space.draw_hosts(17)) == 17

    @pytest.mark.parametrize("count", [0, 1, 5000])
    @pytest.mark.parametrize("shape", [
        # 352 subnets, not a power of two (the sensitivity preset's space)
        dict(num_networks=22, subnets_per_network=16),
        # 256 subnets: the choice rejects half of its words
        dict(num_networks=16, subnets_per_network=16),
        dict(num_networks=1, subnets_per_network=1),
        # no host bits: every word is a subnet candidate
        dict(num_networks=3, subnets_per_network=5, subnet_length=32),
    ])
    def test_draw_hosts_matches_draw_host_loop(self, shape, count):
        """The vectorized draw is the scalar loop, word for word: the
        same hosts, and the generator left in the same state."""
        looped = RandomAddressSpace(rng=random.Random(9), **shape)
        vectorized = RandomAddressSpace(rng=random.Random(9), **shape)
        expected = [looped.draw_host() for _ in range(count)]
        hosts = vectorized.draw_hosts(count)
        assert hosts.dtype == np.uint32
        assert hosts.tolist() == expected
        assert vectorized._rng.getstate() == looped._rng.getstate()

    def test_draw_hosts_refills_a_short_word_block(self, monkeypatch):
        """A word block that runs out before the last host is drawn is
        extended from the same stream: reads capped at 5 words still
        match the loop."""
        looped = RandomAddressSpace(rng=random.Random(3))
        capped = RandomAddressSpace(rng=random.Random(3))
        read = capped._words
        monkeypatch.setattr(capped, "_words", lambda count: read(min(count, 5)))
        expected = [looped.draw_host() for _ in range(300)]
        assert capped.draw_hosts(300).tolist() == expected
        assert capped._rng.getstate() == looped._rng.getstate()

    def test_network_of(self):
        space = RandomAddressSpace(rng=random.Random(6))
        host = space.draw_host()
        assert space.network_of(host).contains_address(host)
        assert space.network_of(host).length == 8

    def test_prefix_accessors(self):
        space = RandomAddressSpace(
            num_networks=3, subnets_per_network=2, rng=random.Random(7)
        )
        assert len(space.network_prefixes()) == 3
        assert all(p.length == 8 for p in space.network_prefixes())
        assert all(p.length == 24 for p in space.subnet_prefixes())

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomAddressSpace(network_length=24, subnet_length=8)
        with pytest.raises(ValueError):
            RandomAddressSpace(num_networks=0)

    def test_subnet_count_capped_by_space(self):
        # 4 subnets requested inside /30-sized room (2 bits) -> capped at 4.
        space = RandomAddressSpace(
            num_networks=1, network_length=22, subnets_per_network=10,
            subnet_length=24, rng=random.Random(8),
        )
        assert len(space.subnets) == 4
