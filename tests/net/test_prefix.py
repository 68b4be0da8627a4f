"""Unit and property tests for repro.net.prefix."""

import pytest
from hypothesis import given, strategies as st

from repro.net.ipv4 import IPV4_MAX
from repro.net.prefix import Prefix, mask_for_length, prefix_contains, truncate

addresses = st.integers(min_value=0, max_value=IPV4_MAX)
lengths = st.integers(min_value=0, max_value=32)


class TestMask:
    def test_known_values(self):
        assert mask_for_length(0) == 0
        assert mask_for_length(8) == 0xFF000000
        assert mask_for_length(24) == 0xFFFFFF00
        assert mask_for_length(32) == 0xFFFFFFFF

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            mask_for_length(33)
        with pytest.raises(ValueError):
            mask_for_length(-1)

    @given(lengths)
    def test_mask_has_length_leading_ones(self, length):
        mask = mask_for_length(length)
        assert bin(mask).count("1") == length
        # All set bits are at the top.
        if length:
            assert mask >> (32 - length) == (1 << length) - 1


class TestTruncate:
    @given(addresses, lengths)
    def test_idempotent(self, addr, length):
        once = truncate(addr, length)
        assert truncate(once, length) == once

    @given(addresses, lengths)
    def test_truncated_contains_original(self, addr, length):
        assert prefix_contains(truncate(addr, length), length, addr)


class TestPrefix:
    def test_validates_host_bits(self):
        with pytest.raises(ValueError):
            Prefix(0x0A000001, 8)

    def test_from_address_masks(self):
        p = Prefix.from_address(0x0A0B0C0D, 16)
        assert p == Prefix(0x0A0B0000, 16)

    def test_str(self):
        assert str(Prefix(0x0A000000, 8)) == "10.0.0.0/8"

    def test_num_addresses(self):
        assert Prefix(0, 0).num_addresses == 2**32
        assert Prefix(0x0A000000, 24).num_addresses == 256

    def test_first_last_address(self):
        p = Prefix(0x0A000000, 24)
        assert p.first_address == 0x0A000000
        assert p.last_address == 0x0A0000FF

    def test_parent(self):
        p = Prefix(0x0A800000, 9)
        assert p.parent() == Prefix(0x0A000000, 8)
        assert p.parent(9) == Prefix(0, 0)
        with pytest.raises(ValueError):
            p.parent(10)

    def test_children_partition_parent(self):
        p = Prefix(0x0A000000, 8)
        left, right = p.children()
        assert left.length == right.length == 9
        assert p.contains_prefix(left) and p.contains_prefix(right)
        assert left != right
        assert left.num_addresses + right.num_addresses == p.num_addresses

    def test_children_of_host_raises(self):
        with pytest.raises(ValueError):
            Prefix(1, 32).children()

    def test_contains_operator(self):
        p = Prefix(0x0A000000, 8)
        assert 0x0A123456 in p
        assert 0x0B000000 not in p
        assert Prefix(0x0A000000, 24) in p
        assert p in Prefix(0, 0)

    @given(addresses, lengths)
    def test_from_address_contains_address(self, addr, length):
        assert Prefix.from_address(addr, length).contains_address(addr)

    @given(addresses, lengths, lengths)
    def test_ancestor_contains_descendant(self, addr, l1, l2):
        lo, hi = sorted((l1, l2))
        assert Prefix.from_address(addr, lo).contains_prefix(
            Prefix.from_address(addr, hi)
        )

    def test_root_is_root(self):
        assert Prefix(0, 0).is_root()
        assert not Prefix(0, 1).is_root()
