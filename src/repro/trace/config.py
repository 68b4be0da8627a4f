"""Configuration dataclasses for the synthetic trace generator.

Each knob maps to one of the traffic properties the paper's effect depends
on; see the package docstring of :mod:`repro.trace`.  All fields have
defaults tuned to produce CAIDA-like behaviour at laptop scale (hundreds of
thousands of packets per experiment rather than the paper's billions).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class RateConfig:
    """Aggregate packet arrival process.

    A two-state Markov-modulated Poisson process (MMPP): the trace
    alternates between a *calm* state at ``base_rate`` packets/second and a
    *busy* state at ``base_rate * busy_factor``.  State holding times are
    exponential with the given means.  ``busy_factor=1`` degenerates to a
    plain Poisson process.
    """

    base_rate: float = 800.0
    busy_factor: float = 2.5
    mean_calm_s: float = 8.0
    mean_busy_s: float = 3.0

    def __post_init__(self) -> None:
        if self.base_rate <= 0:
            raise ValueError(f"base_rate must be positive, got {self.base_rate}")
        if self.busy_factor < 1.0:
            raise ValueError("busy_factor must be >= 1")
        if self.mean_calm_s <= 0 or self.mean_busy_s <= 0:
            raise ValueError("state holding times must be positive")


@dataclass(frozen=True)
class ChurnConfig:
    """Source population churn.

    Every ``epoch_s`` the generator re-samples which sources are active:
    an active source deactivates with probability ``deactivate_prob`` and an
    inactive one activates with probability ``activate_prob``.  Churn makes
    the heavy-hitter set drift over the trace, as it does in real traffic.
    """

    epoch_s: float = 1.0
    deactivate_prob: float = 0.02
    activate_prob: float = 0.04
    initially_active_fraction: float = 0.7

    def __post_init__(self) -> None:
        if self.epoch_s <= 0:
            raise ValueError("epoch_s must be positive")
        for name in ("deactivate_prob", "activate_prob",
                     "initially_active_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class BurstConfig:
    """Per-source sub-second burst trains.

    Independently of the smooth Zipf volume, each epoch a few sources emit a
    clustered burst of packets inside a ``burst_span_s`` interval.  Bursts
    are the sub-window-scale variability behind the paper's Figure 3
    (shaving 100 ms off a window changes the reported set).
    """

    bursts_per_epoch: float = 1.0
    burst_packets: int = 60
    burst_span_s: float = 0.25
    burst_size_bytes: int = 1400
    #: Multifractal slot modulation: each source's packets within an epoch
    #: are distributed over ``slot_s``-second slots with i.i.d. lognormal
    #: weights of log-std ``slot_sigma``.  Heavy-tailed slot weights are
    #: the small-scale burstiness signature of measured backbone traffic
    #: (high variance at 100 ms relative to 10 s means) that independent-
    #: increment models cannot produce.  0 disables modulation.
    slot_sigma: float = 0.0
    slot_s: float = 0.1

    def __post_init__(self) -> None:
        if self.bursts_per_epoch < 0:
            raise ValueError("bursts_per_epoch must be >= 0")
        if self.burst_packets < 0 or self.burst_size_bytes <= 0:
            raise ValueError("burst shape parameters must be positive")
        if self.burst_span_s <= 0:
            raise ValueError("burst_span_s must be positive")
        if self.slot_sigma < 0:
            raise ValueError("slot_sigma must be >= 0")
        if self.slot_s <= 0:
            raise ValueError("slot_s must be positive")


@dataclass(frozen=True)
class HeavyEpisodeConfig:
    """Transient heavy-hitter episodes.

    A random source (or subnet) is boosted so that it transiently carries a
    *target share* of the aggregate traffic, drawn log-uniformly from
    ``[min_share, max_share]``, for a duration drawn uniformly from
    ``[min_duration_s, max_duration_s]``, starting at a random instant —
    deliberately *not* aligned to any window grid.

    Episodes whose span straddles a disjoint-window boundary are the
    canonical "hidden HHH": each half may fall below the per-window
    threshold while some sliding window sees the whole episode.  The
    log-uniform share law makes transients most common just above the
    smallest detection threshold (matching the paper's finding that the
    1 % threshold hides the most), with rarer violent spikes up to
    ``max_share``.
    """

    episodes_per_minute: float = 40.0
    min_share: float = 0.012
    max_share: float = 0.10
    min_duration_s: float = 2.0
    max_duration_s: float = 16.0
    subnet_fraction: float = 0.3

    def __post_init__(self) -> None:
        if self.episodes_per_minute < 0:
            raise ValueError("episodes_per_minute must be >= 0")
        if not 0.0 < self.min_share <= self.max_share < 1.0:
            raise ValueError(
                "need 0 < min_share <= max_share < 1, got "
                f"[{self.min_share}, {self.max_share}]"
            )
        if not 0 < self.min_duration_s <= self.max_duration_s:
            raise ValueError("need 0 < min_duration_s <= max_duration_s")
        if not 0.0 <= self.subnet_fraction <= 1.0:
            raise ValueError("subnet_fraction must be in [0, 1]")


@dataclass(frozen=True)
class SyntheticTraceConfig:
    """Full generator configuration.

    Attributes
    ----------
    duration_s:
        Trace length in seconds.
    num_sources:
        Size of the source population drawn from the structured address
        space.
    zipf_alpha:
        Skew of the per-source popularity distribution (~1.0–1.2 matches
        reported ISP source-volume skew).
    num_networks / subnets_per_network:
        Address-space structure (see
        :class:`repro.net.RandomAddressSpace`); controls how much volume
        aggregates at /8 and /24 levels.
    mean_packet_bytes / mtu_fraction:
        Packet sizes are a two-point mixture of 40-byte and 1500-byte
        packets with the given mean achieved by mixing weight; matches the
        bimodal size distribution of backbone traces.
    seed:
        Master seed; every stream of randomness below derives from it.
    """

    duration_s: float = 120.0
    num_sources: int = 4000
    zipf_alpha: float = 1.05
    num_networks: int = 16
    subnets_per_network: int = 16
    mean_packet_bytes: float = 700.0
    #: Optional explicit traffic shares for the heaviest sources (a "head
    #: band").  Useful to populate the neighbourhood of a detection
    #: threshold with borderline sources, e.g. ``(0.065, 0.058, 0.052,
    #: 0.047, 0.043)`` around a 5 % threshold.  Empty = pure Zipf.
    head_shares: tuple[float, ...] = ()
    #: Optional subnet-level bands: for each share, a dedicated /24 of
    #: ``band_subnet_hosts`` equal small sources whose *aggregate* carries
    #: that share.  These populate the /24 (and /8) levels of the hierarchy
    #: with borderline aggregates the same way ``head_shares`` populates
    #: the leaf level.  Band members are exempt from churn so the band
    #: stays at its designed share.
    band_subnets: tuple[float, ...] = ()
    band_subnet_hosts: int = 16
    rate: RateConfig = field(default_factory=RateConfig)
    churn: ChurnConfig = field(default_factory=ChurnConfig)
    bursts: BurstConfig = field(default_factory=BurstConfig)
    episodes: HeavyEpisodeConfig = field(default_factory=HeavyEpisodeConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.num_sources < 1:
            raise ValueError("need at least one source")
        if self.zipf_alpha <= 0:
            raise ValueError("zipf_alpha must be positive")
        if not 40.0 <= self.mean_packet_bytes <= 1500.0:
            raise ValueError(
                "mean_packet_bytes must lie between the 40B and 1500B modes"
            )
        pinned = sum(self.head_shares) + sum(self.band_subnets)
        if pinned >= 0.95:
            raise ValueError(
                f"head_shares + band_subnets pin {pinned:.2f} of the traffic; "
                "leave at least 5% for the background tail"
            )
        if any(s <= 0 for s in self.head_shares + self.band_subnets):
            raise ValueError("pinned shares must be positive")
        if self.band_subnet_hosts < 1:
            raise ValueError("band_subnet_hosts must be >= 1")
