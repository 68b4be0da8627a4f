"""Unit tests for repro.net.ipv4."""

import pytest
from hypothesis import given, strategies as st

from repro.net.ipv4 import IPV4_MAX, format_ipv4


class TestFormat:
    def test_basic(self):
        assert format_ipv4(0x0A000001) == "10.0.0.1"

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            format_ipv4(IPV4_MAX + 1)
        with pytest.raises(ValueError):
            format_ipv4(-1)

    @given(st.integers(min_value=0, max_value=IPV4_MAX))
    def test_roundtrip(self, value):
        octets = [int(part) for part in format_ipv4(value).split(".")]
        assert len(octets) == 4
        assert all(0 <= octet <= 255 for octet in octets)
        assert (octets[0] << 24 | octets[1] << 16 | octets[2] << 8
                | octets[3]) == value
