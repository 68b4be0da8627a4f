"""Unit tests for repro.trace.generator."""

import hashlib

import numpy as np
import pytest

from repro.trace.config import (
    BurstConfig,
    ChurnConfig,
    HeavyEpisodeConfig,
    RateConfig,
    SyntheticTraceConfig,
)
from repro.trace.container import Trace
from repro.trace.generator import (
    HeavyEpisode,
    SyntheticTraceGenerator,
    generate_trace,
)
from repro.trace.spec import TraceSpec


class TestDeterminism:
    def test_same_seed_same_trace(self, tiny_config):
        a = generate_trace(tiny_config)
        b = generate_trace(tiny_config)
        assert np.array_equal(a.ts, b.ts)
        assert np.array_equal(a.src, b.src)
        assert np.array_equal(a.length, b.length)

    def test_different_seed_differs(self, tiny_config):
        from dataclasses import replace

        other = replace(tiny_config, seed=tiny_config.seed + 1)
        a, b = generate_trace(tiny_config), generate_trace(other)
        assert len(a) != len(b) or not np.array_equal(a.src, b.src)


#: SHA-256 over all seven ``Trace`` columns of each preset, in slot order.
#: A generator change that is meant to be byte-identical (same draws in the
#: same order) must leave these pins alone.
PINNED_DIGESTS = {
    "caida:day=0,duration=10":
        "c612996f1c854a731d5fd5f75063b53fc9b071b36b641303dc9a279803b7bbb0",
    "caida:day=1,duration=10":
        "2cd928403fe5e192a3ce2ba364d1e1a03fbd51a202fad7ac5e0b621824f46c0f",
    "caida:day=2,duration=10":
        "2eceeebc598dd55fa07fb08bba2dc8d958080195a37c168cf55930f8760140a4",
    "caida:day=3,duration=10":
        "b2b11387b251a65ab77e9805920833eebb1450567c0b2a0efea58524b922e30d",
    "sensitivity:duration=10":
        "7cdba0416a4bb6f116ecaa33b87bd5277fecb3c17e43ff67244d7513db148a84",
    "drift:duration=10":
        "f8e77c44d167a9073bb59b09a0568f77a3b2ad8d8607ee17751583749cb813a2",
}


@pytest.mark.parametrize("spec", sorted(PINNED_DIGESTS))
def test_preset_build_is_byte_identical(spec):
    trace = TraceSpec.parse(spec).build(cache=False)
    digest = hashlib.sha256()
    for name in Trace.__slots__:
        digest.update(np.ascontiguousarray(getattr(trace, name)).tobytes())
    assert digest.hexdigest() == PINNED_DIGESTS[spec]


class TestStructure:
    def test_timestamps_sorted_and_bounded(self, tiny_config, tiny_trace):
        assert np.all(np.diff(tiny_trace.ts) >= 0)
        assert tiny_trace.ts[0] >= 0
        assert tiny_trace.ts[-1] <= tiny_config.duration_s

    def test_rate_matches_config(self, tiny_config, tiny_trace):
        pps = len(tiny_trace) / tiny_config.duration_s
        base = tiny_config.rate.base_rate
        # Between calm and busy rates, with burst additions on top.
        assert base * 0.5 < pps < base * tiny_config.rate.busy_factor * 2.5

    def test_sources_from_population(self, tiny_config, tiny_trace):
        gen = SyntheticTraceGenerator(tiny_config)
        assert set(np.unique(tiny_trace.src)) <= set(int(s) for s in gen.sources)

    def test_packet_sizes_bimodal_plus_bursts(self, tiny_trace):
        sizes = set(np.unique(tiny_trace.length).tolist())
        assert sizes <= {40, 1400, 1500}

    def test_heavy_tail_present(self, small_trace):
        counts = small_trace.bytes_by_key(0.0, 1e9)
        volumes = sorted(counts.values(), reverse=True)
        total = sum(volumes)
        assert volumes[0] / total > 0.01  # a head exists
        assert len(volumes) > 100  # and a long tail


class TestEpisodes:
    def test_schedule_recorded(self, tiny_config):
        gen = SyntheticTraceGenerator(tiny_config)
        gen.generate()
        assert all(isinstance(ep, HeavyEpisode) for ep in gen.episodes)
        for ep in gen.episodes:
            assert 0 <= ep.start <= tiny_config.duration_s
            assert ep.duration > 0
            assert ep.boost >= 1.0

    def test_overlap_helper(self):
        ep = HeavyEpisode(10.0, 5.0, 0.05, 2.0, (0,), False)
        assert ep.end == 15.0
        assert ep.overlap(0.0, 10.0) == 0.0
        assert ep.overlap(12.0, 13.0) == pytest.approx(1.0)
        assert ep.overlap(14.0, 20.0) == pytest.approx(1.0)

    def test_episode_raises_target_share(self):
        config = SyntheticTraceConfig(
            duration_s=30.0,
            num_sources=500,
            seed=42,
            rate=RateConfig(base_rate=500.0, busy_factor=1.0),
            churn=ChurnConfig(deactivate_prob=0.0, activate_prob=0.0),
            bursts=BurstConfig(bursts_per_epoch=0.0, burst_packets=0),
            episodes=HeavyEpisodeConfig(
                episodes_per_minute=4.0, min_share=0.2, max_share=0.3,
                min_duration_s=8.0, max_duration_s=12.0, subnet_fraction=0.0,
            ),
        )
        gen = SyntheticTraceGenerator(config)
        trace = gen.generate()
        hits = 0
        for ep in gen.episodes:
            mid0, mid1 = ep.start + 0.25 * ep.duration, ep.start + 0.75 * ep.duration
            if mid1 > config.duration_s:
                continue
            total = trace.bytes_in_range(mid0, mid1)
            target = int(gen.sources[ep.source_ranks[0]])
            got = trace.bytes_by_key(mid0, mid1).get(target, 0)
            if total and got / total > 0.1:
                hits += 1
        assert hits >= max(1, len(gen.episodes) // 2)

    def test_subnet_episodes_share_a_slash24(self, tiny_config):
        gen = SyntheticTraceGenerator(tiny_config)
        gen.generate()
        for ep in gen.episodes:
            if ep.is_subnet:
                subnets = {int(gen.sources[r]) >> 8 for r in ep.source_ranks}
                assert len(subnets) == 1


class TestBandsAndHeads:
    def test_head_shares_realised(self):
        config = SyntheticTraceConfig(
            duration_s=30.0, num_sources=500, seed=11,
            head_shares=(0.2, 0.1),
            rate=RateConfig(base_rate=800.0, busy_factor=1.0),
            churn=ChurnConfig(
                deactivate_prob=0.0, activate_prob=0.0,
                initially_active_fraction=1.0,
            ),
            bursts=BurstConfig(bursts_per_epoch=0.0, burst_packets=0),
            episodes=HeavyEpisodeConfig(episodes_per_minute=0.0),
        )
        gen = SyntheticTraceGenerator(config)
        trace = gen.generate()
        counts = trace.bytes_by_key(0.0, 1e9)
        total = sum(counts.values())
        share0 = counts.get(int(gen.sources[0]), 0) / total
        assert share0 == pytest.approx(0.2, rel=0.25)

    def test_band_subnets_extend_population(self):
        config = SyntheticTraceConfig(
            duration_s=5.0, num_sources=100, seed=12,
            band_subnets=(0.1, 0.1), band_subnet_hosts=8,
        )
        gen = SyntheticTraceGenerator(config)
        assert gen.population == 100 + 16
        assert gen.churn_exempt[100:].all()
        # Band hosts share a /24 per band.
        band1 = {int(s) >> 8 for s in gen.sources[100:108]}
        band2 = {int(s) >> 8 for s in gen.sources[108:116]}
        assert len(band1) == 1 and len(band2) == 1 and band1 != band2

    def test_band_share_realised(self):
        config = SyntheticTraceConfig(
            duration_s=30.0, num_sources=300, seed=13,
            band_subnets=(0.25,), band_subnet_hosts=8,
            rate=RateConfig(base_rate=800.0, busy_factor=1.0),
            churn=ChurnConfig(
                deactivate_prob=0.0, activate_prob=0.0,
                initially_active_fraction=1.0,
            ),
            bursts=BurstConfig(bursts_per_epoch=0.0, burst_packets=0),
            episodes=HeavyEpisodeConfig(episodes_per_minute=0.0),
        )
        gen = SyntheticTraceGenerator(config)
        trace = gen.generate()
        counts = trace.bytes_by_key(0.0, 1e9)
        total = sum(counts.values())
        band_hosts = {int(s) for s in gen.sources[300:]}
        band_bytes = sum(v for k, v in counts.items() if k in band_hosts)
        assert band_bytes / total == pytest.approx(0.25, rel=0.2)


class TestTimestampModels:
    def _config(self, **bursts):
        return SyntheticTraceConfig(
            duration_s=10.0, num_sources=50, seed=21,
            rate=RateConfig(base_rate=500.0, busy_factor=1.0),
            churn=ChurnConfig(deactivate_prob=0.0, activate_prob=0.0),
            episodes=HeavyEpisodeConfig(episodes_per_minute=0.0),
            bursts=BurstConfig(bursts_per_epoch=0.0, burst_packets=0, **bursts),
        )

    def _burstiness(self, trace, bin_s=0.1):
        """CV of per-bin packet counts for the heaviest source."""
        counts = trace.bytes_by_key(0.0, 1e9)
        top = max(counts, key=counts.get)
        ts = trace.ts[trace.src == top]
        bins = np.histogram(ts, bins=np.arange(0, 10.01, bin_s))[0]
        return bins.std() / max(bins.mean(), 1e-9)

    def test_slots_increase_small_scale_burstiness(self):
        smooth = generate_trace(self._config())
        slotted = generate_trace(self._config(slot_sigma=1.5))
        assert self._burstiness(slotted) > self._burstiness(smooth) * 1.5
