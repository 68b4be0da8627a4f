"""Unit tests for repro.hashing.mixers."""

from hypothesis import given, strategies as st

from repro.hashing.mixers import splitmix64

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestSplitmix64:
    @given(u64)
    def test_stays_in_64_bits(self, x):
        assert 0 <= splitmix64(x) < (1 << 64)

    def test_deterministic(self):
        assert splitmix64(12345) == splitmix64(12345)

    def test_spreads_sequential_inputs(self):
        outputs = {splitmix64(i) for i in range(1000)}
        assert len(outputs) == 1000

    def test_avalanche_on_single_bit(self):
        a = splitmix64(0)
        b = splitmix64(1)
        # A good mixer flips roughly half the bits.
        assert 16 <= bin(a ^ b).count("1") <= 48
