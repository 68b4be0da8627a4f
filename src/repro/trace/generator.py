"""The synthetic trace generator.

The generator works epoch by epoch (default 1 s):

1. an MMPP state machine sets the epoch's aggregate packet rate;
2. a churn process updates which sources are active;
3. heavy-hitter *episodes* (transient boosts of one host or one subnet,
   unaligned to any window grid) multiply the affected sources' weights;
4. packet timestamps are drawn uniformly inside the epoch (a Poisson field),
   sources are drawn from the boosted/censored Zipf law, sizes from a
   40 B / 1500 B mixture;
5. burst trains add sub-second clumps from single sources.

Two seeded streams draw everything, so traces are bit-for-bit
reproducible: one ``numpy`` generator makes every traffic draw (rates,
churn, episodes, sources, timestamps, sizes, headers), and
``random.Random`` streams seeded from the same config draw the source and
destination address populations
(:class:`repro.net.random_net.RandomAddressSpace`).

The contract every change here keeps: the same draws, with the same
arguments, in the same order, on both streams.  Only the arithmetic
between the draws is batched, into vectorised passes that compute the
same IEEE values as the per-item code they replace.
``tests/trace/test_generator.py`` pins SHA-256 digests of every scenario
to hold the contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.net.random_net import RandomAddressSpace
from repro.trace.config import SyntheticTraceConfig
from repro.trace.container import Trace
from repro.trace.zipf import ZipfSampler

import random as _random

_WELL_KNOWN_PORTS = np.array([80, 443, 53, 22, 123, 8080], dtype=np.uint16)
_WELL_KNOWN_WEIGHTS = np.array([0.35, 0.35, 0.12, 0.05, 0.05, 0.08])
#: The CDF ``Generator.choice(_WELL_KNOWN_PORTS, p=_WELL_KNOWN_WEIGHTS)``
#: builds on every call; ports are drawn from it with that call's
#: ``random(n)`` (see :func:`_port_index`).
_PORT_CDF = _WELL_KNOWN_WEIGHTS.cumsum()
_PORT_CDF /= _PORT_CDF[-1]


def _port_index(u: np.ndarray) -> np.ndarray:
    """``_PORT_CDF.searchsorted(u, side="right")``, as ``choice`` computes
    it: the number of CDF entries at or below each draw (the last entry,
    1.0, never is)."""
    index = np.zeros(len(u), dtype=np.uint8)
    for edge in _PORT_CDF[:-1]:
        index += u >= edge
    return index


@dataclass(frozen=True)
class HeavyEpisode:
    """One transient heavy-hitter episode injected into the trace.

    ``source_ranks`` are the Zipf ranks whose weight is boosted; for subnet
    episodes this covers every population member inside one /24.
    ``target_share`` is the fraction of aggregate traffic the episode aims
    to push through those sources while fully active; ``boost`` is the
    weight multiplier derived from it at scheduling time.
    """

    start: float
    duration: float
    target_share: float
    boost: float
    source_ranks: tuple[int, ...]
    is_subnet: bool

    @property
    def end(self) -> float:
        """Episode end time."""
        return self.start + self.duration

    def overlap(self, t0: float, t1: float) -> float:
        """Seconds of overlap between the episode and [t0, t1)."""
        return max(0.0, min(self.end, t1) - max(self.start, t0))


class SyntheticTraceGenerator:
    """Generate reproducible CAIDA-like traces from a config.

    After :meth:`generate` the injected :attr:`episodes` schedule is
    available for ground-truth checks (e.g. the DDoS example verifies the
    detector fires inside each episode's span).
    """

    def __init__(self, config: SyntheticTraceConfig) -> None:
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        address_rng = _random.Random(config.seed ^ 0xA5A5_5A5A)
        self.space = RandomAddressSpace(
            num_networks=config.num_networks,
            network_length=8,
            subnets_per_network=config.subnets_per_network,
            subnet_length=24,
            rng=address_rng,
        )
        # Source population: hosts clustered under the structured space.
        self.sources = self.space.draw_hosts(config.num_sources)
        dest_rng = _random.Random(config.seed ^ 0x0F0F_F0F0)
        dest_space = RandomAddressSpace(
            num_networks=max(4, config.num_networks // 2),
            subnets_per_network=8,
            rng=dest_rng,
        )
        self.destinations = dest_space.draw_hosts(
            max(64, config.num_sources // 4)
        )
        self.zipf = ZipfSampler(config.num_sources, config.zipf_alpha, self._rng)
        if config.head_shares:
            self.zipf.reweight_head(list(config.head_shares))
        self.churn_exempt = np.zeros(config.num_sources, dtype=bool)
        self.churn_exempt[: len(config.head_shares)] = True
        if config.band_subnets:
            self._append_band_subnets(address_rng)
        self.population = len(self.sources)
        self.episodes: list[HeavyEpisode] = []

    def _append_band_subnets(self, address_rng: _random.Random) -> None:
        """Extend the population with dedicated borderline /24 bands.

        Each band is a fresh /24 holding ``band_subnet_hosts`` equal
        sources whose aggregate share is pinned; the remaining population's
        probabilities shrink proportionally.
        """
        cfg = self.config
        band_total = sum(cfg.band_subnets)
        # Head-share pins stay absolute; only the unpinned tail shrinks to
        # make room for the band subnets.
        base = self.zipf.probabilities.copy()
        num_heads = len(cfg.head_shares)
        head_mass = float(base[:num_heads].sum())
        tail_mass = float(base[num_heads:].sum())
        target_tail = 1.0 - head_mass - band_total
        if target_tail <= 0:
            raise ValueError(
                "head_shares + band_subnets leave no room for tail traffic"
            )
        base[num_heads:] *= target_tail / tail_mass
        probs = [base]
        new_sources: list[int] = []
        used = set((self.sources >> 8).tolist())
        for share in cfg.band_subnets:
            subnet = address_rng.getrandbits(24)
            while subnet in used:
                subnet = address_rng.getrandbits(24)
            used.add(subnet)
            hosts = address_rng.sample(range(256), cfg.band_subnet_hosts)
            new_sources.extend((subnet << 8) | h for h in hosts)
            probs.append(
                np.full(
                    cfg.band_subnet_hosts,
                    share / cfg.band_subnet_hosts,
                    dtype=np.float64,
                )
            )
        self.sources = np.concatenate(
            [self.sources, np.array(new_sources, dtype=np.uint32)]
        )
        self.zipf = ZipfSampler.from_probabilities(
            np.concatenate(probs), self._rng
        )
        self.churn_exempt = np.concatenate(
            [self.churn_exempt, np.ones(len(new_sources), dtype=bool)]
        )

    # -- the component processes ------------------------------------------

    def _epoch_rates(self, num_epochs: int) -> np.ndarray:
        """MMPP: aggregate packets/second for each epoch."""
        cfg = self.config.rate
        rates = np.empty(num_epochs, dtype=np.float64)
        busy = False
        remaining = float(
            self._rng.exponential(cfg.mean_calm_s)
        )
        epoch_len = self.config.churn.epoch_s
        for e in range(num_epochs):
            rates[e] = cfg.base_rate * (cfg.busy_factor if busy else 1.0)
            remaining -= epoch_len
            while remaining <= 0:
                busy = not busy
                mean = cfg.mean_busy_s if busy else cfg.mean_calm_s
                remaining += float(self._rng.exponential(mean))
        return rates

    def _initial_active(self) -> np.ndarray:
        """Initial active-source mask (churn-exempt sources always active)."""
        frac = self.config.churn.initially_active_fraction
        active = self._rng.random(self.population) < frac
        return active | self.churn_exempt

    def _churn_step(self, active: np.ndarray) -> np.ndarray:
        """One epoch of activate/deactivate churn: an active source stays
        unless its draw falls under ``deactivate_prob``, an inactive one
        joins when its draw falls under ``activate_prob``."""
        cfg = self.config.churn
        u = self._rng.random(len(active))
        if not (cfg.deactivate_prob or cfg.activate_prob):
            # No source can flip, and active already holds every
            # churn-exempt source.
            return active
        stays = (active & (u >= cfg.deactivate_prob)) | (
            ~active & (u < cfg.activate_prob)
        )
        return stays | self.churn_exempt

    def _schedule_episodes(self) -> list[HeavyEpisode]:
        """Draw the heavy-episode schedule for the whole trace."""
        cfg = self.config.episodes
        expected = cfg.episodes_per_minute * self.config.duration_s / 60.0
        count = int(self._rng.poisson(expected)) if expected > 0 else 0
        episodes: list[HeavyEpisode] = []
        if not count:
            return episodes
        # /24 of every source, and the distinct /24s in order of first
        # appearance by rank: the order the subnet draw indexes.
        source_subnets = self.sources >> 8
        subnets, first_rank = np.unique(source_subnets, return_index=True)
        subnet_keys = subnets[np.argsort(first_rank)]
        probabilities = self.zipf.probabilities
        for _ in range(count):
            start = float(self._rng.uniform(0.0, self.config.duration_s))
            # Log-uniform durations: most episodes are short relative to the
            # analysis windows.  A short episode straddling a window boundary
            # has its mass split across two disjoint windows — exactly the
            # aggregate a sliding window reveals and a disjoint one hides.
            duration = float(
                np.exp(
                    self._rng.uniform(
                        np.log(cfg.min_duration_s), np.log(cfg.max_duration_s)
                    )
                )
            )
            if self._rng.random() < cfg.subnet_fraction:
                subnet = subnet_keys[int(self._rng.integers(len(subnet_keys)))]
                ranks = tuple(np.flatnonzero(source_subnets == subnet).tolist())
                is_subnet = True
            else:
                ranks = (int(self._rng.integers(self.population)),)
                is_subnet = False
            # Inverse-square share law (p(s) ~ 1/s^2): the count of episodes
            # above share s falls off like 1/s, mirroring the heavy-tailed
            # aggregate-size distribution of backbone traffic — many
            # borderline transients near the smallest detection threshold,
            # rare violent spikes near max_share.
            u = float(self._rng.random())
            inv_lo, inv_hi = 1.0 / cfg.min_share, 1.0 / cfg.max_share
            share = 1.0 / (inv_lo - u * (inv_lo - inv_hi))
            base_mass = float(sum(probabilities[r] for r in ranks))
            # Weight multiplier w so that w*m / (1 - m + w*m) ~= share,
            # where m is the targets' base probability mass.
            if base_mass > 0 and share < 1.0:
                boost = max(
                    1.0, share * (1.0 - base_mass) / (base_mass * (1.0 - share))
                )
            else:
                boost = 1.0
            episodes.append(
                HeavyEpisode(start, duration, share, boost, ranks, is_subnet)
            )
        episodes.sort(key=lambda ep: ep.start)
        return episodes

    def _packet_sizes(self, count: int) -> np.ndarray:
        """Two-point 40 B / 1500 B size mixture hitting the configured mean."""
        mtu_prob = (self.config.mean_packet_bytes - 40.0) / (1500.0 - 40.0)
        # 40 + 1460 * big: branch-free, unlike np.where on random masks.
        sizes = (self._rng.random(count) < mtu_prob).astype(np.int64)
        sizes *= 1500 - 40
        sizes += 40
        return sizes

    # -- main loop ----------------------------------------------------------

    def generate(self) -> Trace:
        """Generate the trace; also populates :attr:`episodes`."""
        cfg = self.config
        epoch_len = cfg.churn.epoch_s
        num_epochs = int(np.ceil(cfg.duration_s / epoch_len))
        rates = self._epoch_rates(num_epochs)
        active = self._initial_active()
        self.episodes = self._schedule_episodes()
        boosts = _EpisodeBoosts(self.episodes, self.population)

        ts_parts: list[np.ndarray] = []
        rank_parts: list[np.ndarray] = []
        size_parts: list[np.ndarray] = []
        cdf = cdf_active = cdf_overlaps = None

        for e in range(num_epochs):
            t0 = e * epoch_len
            t1 = min((e + 1) * epoch_len, cfg.duration_s)
            span = t1 - t0
            if span <= 0:
                break
            if not active.any():
                active = self._initial_active()

            # The weights, and with them the sampling CDF, change only
            # when the active set or an episode's overlap does; the
            # epoch's bursts draw from the same CDF.
            overlaps = boosts.overlaps(t0, t1)
            if active is not cdf_active or not np.array_equal(
                overlaps, cdf_overlaps
            ):
                weights = boosts.weights(overlaps)
                weights *= active
                if weights.sum() <= 0:
                    weights = np.ones(self.population)
                cdf = self.zipf.weighted_cdf(weights)
                cdf_active, cdf_overlaps = active, overlaps

            n = int(self._rng.poisson(rates[e] * span))
            if n:
                ranks = self.zipf.sample(n, cdf)
                ts = self._epoch_timestamps(ranks, t0, t1)
                ts_parts.append(ts)
                rank_parts.append(ranks)
                size_parts.append(self._packet_sizes(n))

            n_bursts = int(self._rng.poisson(cfg.bursts.bursts_per_epoch))
            for _ in range(n_bursts):
                b = self._burst(t0, t1, cdf)
                if b is not None:
                    ts_parts.append(b[0])
                    rank_parts.append(b[1])
                    size_parts.append(b[2])

            active = self._churn_step(active)

        if not ts_parts:
            return Trace.empty()
        return self._assemble(
            np.concatenate(ts_parts),
            np.concatenate(rank_parts),
            np.concatenate(size_parts),
        )

    def _epoch_timestamps(
        self, ranks: np.ndarray, t0: float, t1: float
    ) -> np.ndarray:
        """Timestamps for one epoch's packets, aligned with ``ranks``: a
        uniform (Poisson) field, or multifractal slot placement when
        ``slot_sigma > 0``."""
        if self.config.bursts.slot_sigma > 0:
            return self._slot_modulated_timestamps(ranks, t0, t1)
        return np.sort(self._rng.uniform(t0, t1, len(ranks)))

    def _slot_modulated_timestamps(
        self, ranks: np.ndarray, t0: float, t1: float
    ) -> np.ndarray:
        """Multifractal slot placement of one epoch's packets.

        Each source's packets are spread over ``slot_s`` slots with i.i.d.
        lognormal weights, so any given 100 ms holds anywhere between ~zero
        and several times a source's average — the heavy small-timescale
        variance of real backbone traffic.

        Per source, in rank order: ``lognormal`` slot weights, then
        ``random(2k)`` for its ``k`` packets — ``k`` inverse-CDF slot
        draws, then ``k`` in-slot offsets, the same draws in the same
        order as ``choice(num_slots, k, p=weights)`` and ``uniform(0, 1,
        k)``.  Only those draws run per source; normalising, the CDFs and
        the slot lookups run once for the epoch, as 2-D passes.
        """
        cfg = self.config.bursts
        n = len(ranks)
        num_slots = max(1, int(round((t1 - t0) / cfg.slot_s)))
        slot_edges = np.linspace(t0, t1, num_slots + 1)
        # Stable rank order: the keys rank * n + index are distinct, so a
        # plain sort of them is stable in rank.
        key = np.sort(ranks * n + np.arange(n))
        order = key % n
        starts = np.flatnonzero(np.diff(key // n, prepend=-1))
        counts = np.diff(starts, append=n)
        weights = np.empty((len(counts), num_slots))
        u = np.empty(2 * n)
        lognormal, random = self._rng.lognormal, self._rng.random
        end = 0
        for g, k in enumerate(counts.tolist()):
            weights[g] = lognormal(0.0, cfg.slot_sigma, num_slots)
            begin = end
            end += 2 * k
            random(out=u[begin:end])  # the draws of random(2 * k)
        weights /= weights.sum(axis=1, keepdims=True)
        # One column per slot: cdf[j, g] is source g's CDF at slot j.
        cdf = np.cumsum(weights.T, axis=0)
        cdf /= cdf[-1]
        # Packet i of the rank-sorted epoch is packet i - start of its
        # source, so its slot draw sits at u[start + i] and its offset k
        # words later.
        group = np.repeat(np.arange(len(counts)), counts)
        draw = starts[group] + np.arange(n)
        slot_u = u[draw]
        offset_u = u[draw + counts[group]]
        # searchsorted(cdf_row, x, side="right") on a sorted row is the
        # number of entries <= x; the last entry, 1.0, never is.
        slots = np.zeros(n, dtype=np.intp)
        for column in cdf[:-1]:
            slots += column[group] <= slot_u
        left = slot_edges[slots]
        ts = np.empty(n, dtype=np.float64)
        ts[order] = left + offset_u * (slot_edges[slots + 1] - left)
        np.clip(ts, t0, t1 - 1e-9, out=ts)
        return ts

    def _burst(
        self, t0: float, t1: float, cdf: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """One burst train from a single source drawn from the epoch's
        weighted ``cdf``."""
        cfg = self.config.bursts
        if cfg.burst_packets == 0:
            return None
        rank = int(self.zipf.sample(1, cdf)[0])
        start = float(self._rng.uniform(t0, max(t0, t1 - cfg.burst_span_s)))
        ts = np.sort(
            self._rng.uniform(start, start + cfg.burst_span_s, cfg.burst_packets)
        )
        ranks = np.full(cfg.burst_packets, rank, dtype=np.int64)
        sizes = np.full(cfg.burst_packets, cfg.burst_size_bytes, dtype=np.int64)
        return ts, ranks, sizes

    def _assemble(
        self, ts: np.ndarray, ranks: np.ndarray, sizes: np.ndarray
    ) -> Trace:
        """Sort by time, map ranks to addresses, and fill headers."""
        order = np.argsort(ts, kind="stable")
        ts = ts[order]
        src = self.sources[ranks[order]]
        sizes = sizes[order]
        n = len(ts)
        dst = self.destinations[self._rng.integers(len(self.destinations), size=n)]
        sport = self._rng.integers(1024, 65536, size=n, dtype=np.uint32)
        dport = _WELL_KNOWN_PORTS[_port_index(self._rng.random(n))]
        tcp = (self._rng.random(n) < 0.8).view(np.uint8)
        proto = np.uint8(17) - np.uint8(11) * tcp  # 6 (TCP) or 17 (UDP)
        return Trace(
            ts, src, dst, sizes, sport.astype(np.uint16), dport, proto
        )


class _EpisodeBoosts:
    """The episodes' weight multipliers, epoch by epoch."""

    def __init__(self, episodes: list[HeavyEpisode], population: int) -> None:
        self.population = population
        self.start = np.array([ep.start for ep in episodes])
        self.end = np.array([ep.end for ep in episodes])
        self.boost = np.array([ep.boost for ep in episodes])
        self.ranks = [np.array(ep.source_ranks) for ep in episodes]

    def overlaps(self, t0: float, t1: float) -> np.ndarray:
        """Each episode's :meth:`HeavyEpisode.overlap` with [t0, t1), as a
        fraction of the span."""
        overlap = np.minimum(self.end, t1) - np.maximum(self.start, t0)
        return np.maximum(overlap, 0.0) / (t1 - t0)

    def weights(self, overlaps: np.ndarray) -> np.ndarray:
        """Multiplicative weight vector from the episodes' ``overlaps``.

        Each overlapping episode multiplies its sources' weights by
        ``1 + (boost - 1) * overlap``, in schedule order.
        """
        weights = np.ones(self.population, dtype=np.float64)
        for i in np.flatnonzero(overlaps > 0.0):
            weights[self.ranks[i]] *= 1.0 + (self.boost[i] - 1.0) * overlaps[i]
        return weights


def generate_trace(config: SyntheticTraceConfig) -> Trace:
    """One-call convenience wrapper over :class:`SyntheticTraceGenerator`."""
    return SyntheticTraceGenerator(config).generate()
