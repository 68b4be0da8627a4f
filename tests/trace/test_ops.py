"""Tests for repro.trace.ops."""

import numpy as np
import pytest

from repro.trace.container import Trace
from repro.trace.ops import concat_traces, shift_trace, slice_time


class TestShift:
    def test_shift_moves_timestamps(self, tiny_trace):
        moved = shift_trace(tiny_trace, 100.0)
        assert moved.start_time == pytest.approx(tiny_trace.start_time + 100.0)
        assert np.array_equal(moved.src, tiny_trace.src)

    def test_negative_shift(self, tiny_trace):
        moved = shift_trace(tiny_trace, -0.5)
        assert moved.start_time == pytest.approx(tiny_trace.start_time - 0.5)


class TestConcat:
    def test_empty_list(self):
        assert len(concat_traces([])) == 0

    def test_concat_preserves_packets(self, tiny_trace):
        shifted = shift_trace(tiny_trace, tiny_trace.end_time + 1.0)
        merged = concat_traces([tiny_trace, shifted])
        assert len(merged) == 2 * len(tiny_trace)
        assert np.all(np.diff(merged.ts) >= 0)

    def test_interleaved_merge_sorted(self, tiny_trace):
        half = shift_trace(tiny_trace, 0.37)
        merged = concat_traces([tiny_trace, half])
        assert np.all(np.diff(merged.ts) >= 0)
        assert merged.total_bytes == 2 * tiny_trace.total_bytes

    def test_skips_empty(self, tiny_trace):
        merged = concat_traces([Trace.empty(), tiny_trace])
        assert len(merged) == len(tiny_trace)


class TestSlice:
    def test_slice_alias(self, tiny_trace):
        a = slice_time(tiny_trace, 1.0, 2.0)
        b = tiny_trace.slice_time(1.0, 2.0)
        assert np.array_equal(a.ts, b.ts)
