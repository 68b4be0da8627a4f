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
    _PORT_CDF,
    HeavyEpisode,
    SyntheticTraceGenerator,
    _EpisodeBoosts,
    _port_index,
    generate_trace,
)
from repro.stream.source import parse_stream_spec
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
#: same order) must leave these pins alone.  Together they cover every
#: scenario the generator serves: slot placement (caida, sensitivity, and
#: a duration whose last epoch is short), 22 x 16 subnets and band
#: subnets drawn after the source hosts (sensitivity, portscan), subnet
#: and host episodes, bursts, churn, and the drift splice.
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
    "caida:day=2,duration=10.5":
        "4296ed88f5a2eec448868423fa96edd5031a039f73315874cd9d9e781625ff4d",
    "calm:duration=10":
        "9290b87aff72b23b75cb60aa70889f9acab45fe368e2c958a3d1e37067a67099",
    "ddos:duration=30":
        "3a85a0f3bf7e0e944f98de820c2004725395f4d4232ecaecb280cba8a4ba1af7",
    "ddos-burst:duration=20":
        "4b53cf567d534e2acd616e69a8e86af4e6e27594a1cc6335e28fc2ab739a4bbf",
    "zipf:duration=10":
        "f59d19f60f4fe951786492287298c58eb163f9a1febbf3ac1d087c940451e4bf",
    "zipf:duration=10,skew=0.5,sources=100":
        "2e2dcdb67f6f1ebeb5b0b5e42c518686c6aca5fbad31bd5ce44a5395f2bc242d",
    "flash-crowd:duration=10":
        "a725d76355fb59993774af62da306e1f56f5caad40b01f9ec01b495297d3d1ca",
    "portscan:duration=10":
        "9b9245ee3b776f2e76178d87ac1521267c2b137ba9306eca55e1bc89b61b03e2",
    "portscan:duration=10,scanners=8":
        "85e8fac5e8a63f3fa28a6d526227c9c07ce45320b78288e1fff6181ef8dde697",
}

#: The first packets of two benchmark inputs (perfbench serve-crash's
#: first tenant at seed 1, stream-evict's first day at seed 1), chunked
#: as the benchmark reads them: (packets, SHA-256 of their columns).
#: 140k drift packets span three cycles (each holds 50k-66k).
PINNED_STREAM_DIGESTS = {
    "repeat:drift:seed=1163865517@x20": (
        140_000,
        "9fa4ee50844605e9d32e5ffc233544671966a32d9fdac3d53c84529769b599f3",
    ),
    "repeat:caida:day=1,duration=120": (
        3 * 8192,
        "8e788c594a16bb89f7d6959d6f80c994e149ec637e69518000c72b860a78ba77",
    ),
}


def _digest(traces):
    digest = hashlib.sha256()
    for trace in traces:
        for name in Trace.__slots__:
            digest.update(np.ascontiguousarray(getattr(trace, name)).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("spec", sorted(PINNED_DIGESTS))
def test_preset_build_is_byte_identical(spec):
    trace = TraceSpec.parse(spec).build(cache=False)
    assert _digest([trace]) == PINNED_DIGESTS[spec]


@pytest.mark.parametrize("spec", sorted(PINNED_STREAM_DIGESTS))
def test_benchmark_stream_is_byte_identical(spec):
    packets, pinned = PINNED_STREAM_DIGESTS[spec]
    taken, got = [], 0
    for chunk in parse_stream_spec(spec).chunks(8192):
        taken.append(chunk.slice_index(0, min(len(chunk), packets - got)))
        got += len(taken[-1])
        if got == packets:
            break
    assert got == packets
    assert _digest(taken) == pinned


def test_port_index_is_choice_searchsorted():
    """Ports use ``choice``'s lookup, draws equal to a CDF entry
    included."""
    draws = np.concatenate([
        np.random.default_rng(2).random(5000), _PORT_CDF[:-1],
        np.nextafter(_PORT_CDF[:-1], 0.0), [0.0],
    ])
    assert np.array_equal(
        _port_index(draws), _PORT_CDF.searchsorted(draws, side="right")
    )


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

    def test_epoch_weights_match_per_episode_loop(self):
        """The vectorized overlaps give the weights the per-episode loop
        over :meth:`HeavyEpisode.overlap` gives, bit for bit, including
        a host boosted inside a boosted subnet."""
        episodes = [
            HeavyEpisode(0.2, 1.5, 0.05, 3.0, (1, 2, 3), True),
            HeavyEpisode(0.9, 0.3, 0.05, 7.5, (2,), False),
            HeavyEpisode(2.0, 4.0, 0.1, 1.7, (0, 4), True),
        ]
        boosts = _EpisodeBoosts(episodes, population=6)
        for t0, t1 in [(0.0, 1.0), (1.0, 2.0), (0.5, 0.7), (1.7, 2.0),
                       (2.0, 3.0), (5.9, 6.5), (7.0, 8.0)]:
            expected = np.ones(6)
            for ep in episodes:
                frac = ep.overlap(t0, t1) / (t1 - t0)
                if frac > 0.0:
                    expected[list(ep.source_ranks)] *= (
                        1.0 + (ep.boost - 1.0) * frac
                    )
            assert np.array_equal(
                boosts.weights(boosts.overlaps(t0, t1)), expected
            )

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

    @pytest.mark.parametrize("t0, t1, slot_s", [
        (3.0, 4.0, 0.1),     # 10 slots, the presets' grid
        (10.0, 10.5, 0.1),   # a short last epoch: 5 slots
        (0.0, 0.04, 0.1),    # one slot
        (0.0, 1.0, 0.3),     # 3 slots, edges off the slot grid
        (0.0, 1.0, 0.02),    # 50 slots
        (0.0, 2.0, 0.01),    # 200 slots
    ])
    def test_slot_placement_matches_per_source_loop(self, t0, t1, slot_s):
        """The batched slot placement is the per-source loop it replaced,
        bit for bit, and leaves the generator at the same draw."""
        config = self._config(slot_sigma=1.2, slot_s=slot_s)
        batched = SyntheticTraceGenerator(config)
        looped = SyntheticTraceGenerator(config)
        ranks = np.random.default_rng(4).zipf(1.3, 600) % 50
        expected = _per_source_slot_placement(looped, ranks, t0, t1)
        got = batched._slot_modulated_timestamps(ranks, t0, t1)
        assert np.array_equal(got, expected)
        assert batched._rng.random() == looped._rng.random()


    def test_slot_placement_ties_match_per_source_loop(self):
        """Slot draws that equal a CDF entry land where the loop's
        ``searchsorted(side="right")`` puts them."""
        config = self._config(slot_sigma=1.2)
        weights = np.arange(1.0, 11.0)
        cdf = np.cumsum(weights / weights.sum())
        cdf /= cdf[-1]
        ranks = np.repeat(np.arange(6), 9)
        # Per source: its 9 slot draws (CDF entries), then 9 offsets.
        draws = np.tile(np.concatenate([cdf[:-1], np.linspace(0, 0.9, 9)]), 6)
        batched = SyntheticTraceGenerator(config)
        looped = SyntheticTraceGenerator(config)
        batched._rng = _FixedDraws(weights, draws)
        looped._rng = _FixedDraws(weights, draws)
        assert np.array_equal(
            batched._slot_modulated_timestamps(ranks, 0.0, 1.0),
            _per_source_slot_placement(looped, ranks, 0.0, 1.0),
        )


class _FixedDraws:
    """Stands in for a numpy ``Generator``: ``lognormal`` returns the
    given slot weights, ``random`` hands out the given draws in order."""

    def __init__(self, weights, draws):
        self.weights, self.draws, self.used = weights, draws, 0

    def lognormal(self, mean, sigma, size):
        return self.weights[:size].copy()

    def random(self, size=None, out=None):
        count = len(out) if out is not None else size
        taken = self.draws[self.used:self.used + count]
        self.used += count
        if out is None:
            return taken.copy()
        out[:] = taken
        return out


def _per_source_slot_placement(gen, ranks, t0, t1):
    """Slot placement one source at a time: the scalar reference for
    ``SyntheticTraceGenerator._slot_modulated_timestamps``."""
    cfg = gen.config.bursts
    ts = np.empty(len(ranks))
    num_slots = max(1, int(round((t1 - t0) / cfg.slot_s)))
    edges = np.linspace(t0, t1, num_slots + 1)
    order = np.argsort(ranks, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(ranks[order])) + 1):
        k = len(group)
        weights = gen._rng.lognormal(0.0, cfg.slot_sigma, num_slots)
        weights /= weights.sum()
        u = gen._rng.random(2 * k)
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        slots = cdf.searchsorted(u[:k], side="right")
        ts[group] = edges[slots] + u[k:] * (edges[slots + 1] - edges[slots])
    return np.clip(ts, t0, t1 - 1e-9)
