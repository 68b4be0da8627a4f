"""Tests for repro.trace.presets."""

import numpy as np
import pytest

from repro.trace import presets


class TestDays:
    def test_four_days_defined(self):
        for day in range(4):
            config = presets.caida_like_config(day, duration=10.0)
            assert config.duration_s == 10.0

    def test_day_out_of_range(self):
        with pytest.raises(ValueError):
            presets.caida_like_config(4)
        with pytest.raises(ValueError):
            presets.caida_like_config(-1)

    def test_days_differ(self):
        t0 = presets.caida_like_day(0, duration=10.0)
        t1 = presets.caida_like_day(1, duration=10.0)
        assert len(t0) != len(t1) or not np.array_equal(t0.src, t1.src)

    def test_day_deterministic(self):
        a = presets.caida_like_day(2, duration=5.0)
        b = presets.caida_like_day(2, duration=5.0)
        assert np.array_equal(a.ts, b.ts)

    def test_all_days(self):
        traces = presets.all_days(duration=5.0)
        assert len(traces) == 4
        assert all(len(t) > 0 for t in traces)


class TestOtherPresets:
    def test_calm_trace_is_smooth(self):
        calm = presets.calm_trace(duration=20.0)
        bins = np.histogram(calm.ts, bins=np.arange(0, 20.5, 1.0))[0]
        cv = bins.std() / bins.mean()
        assert cv < 0.15  # Poisson-only variability

    def test_sensitivity_trace_has_borderline_band(self):
        t = presets.sensitivity_trace(duration=30.0)
        counts = t.bytes_by_key(0.0, 1e9)
        total = sum(counts.values())
        shares = sorted((v / total for v in counts.values()), reverse=True)
        # Several leaf sources cluster near the 5% threshold.
        near = [s for s in shares if 0.03 < s < 0.08]
        assert len(near) >= 5

    def test_ddos_trace_has_violent_episodes(self):
        t = presets.ddos_trace(duration=30.0)
        assert len(t) > 0
