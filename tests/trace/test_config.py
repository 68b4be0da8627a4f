"""Validation tests for repro.trace.config."""

import pytest

from repro.trace.config import (
    BurstConfig,
    ChurnConfig,
    HeavyEpisodeConfig,
    RateConfig,
    SyntheticTraceConfig,
)


class TestRateConfig:
    def test_defaults_valid(self):
        RateConfig()

    @pytest.mark.parametrize(
        "kw",
        [
            {"base_rate": 0},
            {"base_rate": -1},
            {"busy_factor": 0.5},
            {"mean_calm_s": 0},
            {"mean_busy_s": -1},
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            RateConfig(**kw)


class TestChurnConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"epoch_s": 0},
            {"deactivate_prob": 1.5},
            {"activate_prob": -0.1},
            {"initially_active_fraction": 2.0},
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            ChurnConfig(**kw)


class TestBurstConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"bursts_per_epoch": -1},
            {"burst_packets": -1},
            {"burst_span_s": 0},
            {"burst_size_bytes": 0},
            {"slot_sigma": -1.0},
            {"slot_s": 0},
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            BurstConfig(**kw)


class TestHeavyEpisodeConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"episodes_per_minute": -1},
            {"min_share": 0.0},
            {"min_share": 0.2, "max_share": 0.1},
            {"max_share": 1.0},
            {"min_duration_s": 0},
            {"min_duration_s": 5.0, "max_duration_s": 1.0},
            {"subnet_fraction": 1.5},
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            HeavyEpisodeConfig(**kw)


class TestSyntheticTraceConfig:
    def test_defaults_valid(self):
        SyntheticTraceConfig()

    @pytest.mark.parametrize(
        "kw",
        [
            {"duration_s": 0},
            {"num_sources": 0},
            {"zipf_alpha": 0},
            {"mean_packet_bytes": 30},
            {"mean_packet_bytes": 2000},
            {"band_subnet_hosts": 0},
            {"head_shares": (0.5, 0.5)},  # pins 1.0
            {"head_shares": (-0.1,)},
            {"head_shares": (0.5,), "band_subnets": (0.5,)},
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            SyntheticTraceConfig(**kw)

    def test_frozen(self):
        config = SyntheticTraceConfig()
        with pytest.raises(AttributeError):
            config.seed = 5  # type: ignore[misc]
