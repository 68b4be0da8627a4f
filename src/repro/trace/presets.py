"""Preset trace configurations mirroring the paper's datasets.

The paper analyses one-hour CAIDA equinix-chicago traces from **four
different days** (Figure 2) and a **20-minute** trace (Figure 3).  The four
"days" below differ in seed, skew, burstiness and episode rate the way
weekday/weekend backbone snapshots do, so cross-day variation shows up in
the reproduced figures just as it does in the paper's.

Besides the paper's datasets, this module defines adversarial scenarios
(DDoS bursts, flash crowds, hierarchical portscans) that stress the
detectors in ways smooth backbone traffic does not.

Every preset is registered as a :mod:`repro.trace.spec` scenario at the
bottom of the module, so all of them are addressable as strings
(``"caida:day=2,duration=60"``, ``"flash-crowd:duration=90"``) from the
CLI and the experiment runner.

Durations default to laptop scale; pass ``duration`` explicitly to go
longer (the generator is O(packets)).
"""

from __future__ import annotations

import numpy as np

from repro.trace.config import (
    BurstConfig,
    ChurnConfig,
    HeavyEpisodeConfig,
    RateConfig,
    SyntheticTraceConfig,
)
from repro.trace.container import Trace
from repro.trace.generator import generate_trace
from repro.trace.spec import register_scenario

#: Per-day flavour: (seed, zipf_alpha, busy_factor, episodes_per_minute).
_DAY_FLAVOURS = (
    (101, 1.02, 2.2, 40.0),
    (202, 1.08, 2.8, 50.0),
    (303, 1.00, 2.0, 32.0),
    (404, 1.12, 3.2, 45.0),
)


def caida_like_config(day: int = 0, duration: float = 120.0) -> SyntheticTraceConfig:
    """Config for one synthetic "CAIDA day" (day in 0..3)."""
    if not 0 <= day < len(_DAY_FLAVOURS):
        raise ValueError(f"day must be 0..{len(_DAY_FLAVOURS) - 1}, got {day}")
    seed, alpha, busy, episodes = _DAY_FLAVOURS[day]
    return SyntheticTraceConfig(
        duration_s=duration,
        zipf_alpha=alpha,
        seed=seed,
        rate=RateConfig(busy_factor=busy),
        churn=ChurnConfig(deactivate_prob=0.03, activate_prob=0.02),
        bursts=BurstConfig(slot_sigma=1.0),
        episodes=HeavyEpisodeConfig(episodes_per_minute=episodes),
    )


def caida_like_day(day: int = 0, duration: float = 120.0) -> Trace:
    """One synthetic "CAIDA day" trace (day in 0..3)."""
    return generate_trace(caida_like_config(day, duration))


def all_days(duration: float = 120.0) -> list[Trace]:
    """The four synthetic days, as used for Figure 2."""
    return [caida_like_day(day, duration) for day in range(len(_DAY_FLAVOURS))]


def sensitivity_config(
    duration: float = 240.0, seed: int = 777
) -> SyntheticTraceConfig:
    """Config of the Figure 3 trace (see :func:`sensitivity_trace`)."""
    return SyntheticTraceConfig(
        duration_s=duration,
        seed=seed,
        num_sources=4000,
        zipf_alpha=0.7,
        num_networks=22,
        subnets_per_network=16,
        # A dense band of borderline aggregates straddling the 5 %
        # threshold, at both the leaf and the /24 level — the population
        # whose members flip in and out of the HHH set when the window is
        # micro-shrunk.
        head_shares=tuple(np.linspace(0.056, 0.046, 8)),
        band_subnets=tuple(np.linspace(0.0555, 0.0465, 8)),
        rate=RateConfig(base_rate=1200.0, busy_factor=1.0),
        churn=ChurnConfig(deactivate_prob=0.002, activate_prob=0.0015),
        # Multifractal 100 ms slots: the heavy small-timescale variance
        # that makes the last 10-100 ms of a window compositionally
        # different from the window average.
        bursts=BurstConfig(
            bursts_per_epoch=0.0, burst_packets=0, slot_sigma=1.8
        ),
        episodes=HeavyEpisodeConfig(episodes_per_minute=0.0),
    )


def sensitivity_trace(duration: float = 240.0, seed: int = 777) -> Trace:
    """The Figure 3 trace: a dense borderline band + multifractal slots.

    The paper uses 20 minutes; the default here is 4 minutes, which already
    yields enough 10 s windows for a stable CDF.  Pass ``duration=1200`` for
    the full-length version.
    """
    return generate_trace(sensitivity_config(duration, seed))


def calm_trace(duration: float = 60.0, seed: int = 42) -> Trace:
    """A deliberately calm trace: no bursts, no episodes, Poisson arrivals.

    Used by tests and ablations as the negative control — with the
    burstiness knobs off, hidden HHHs (and Figure 3 dissimilarity) should
    mostly vanish.
    """
    config = SyntheticTraceConfig(
        duration_s=duration,
        seed=seed,
        rate=RateConfig(busy_factor=1.0),
        bursts=BurstConfig(bursts_per_epoch=0.0, burst_packets=0),
        episodes=HeavyEpisodeConfig(episodes_per_minute=0.0),
        churn=ChurnConfig(deactivate_prob=0.0, activate_prob=0.0),
    )
    return generate_trace(config)


def ddos_trace(
    duration: float = 120.0,
    seed: int = 909,
    attack_share: float = 0.5,
) -> Trace:
    """A trace with violent subnet-level episodes, for the DDoS example.

    ``attack_share`` is the upper bound on the traffic fraction an attack
    episode carries while active (0.5 = half the link).
    """
    config = SyntheticTraceConfig(
        duration_s=duration,
        seed=seed,
        episodes=HeavyEpisodeConfig(
            episodes_per_minute=3.0,
            min_share=0.15,
            max_share=attack_share,
            min_duration_s=5.0,
            max_duration_s=20.0,
            subnet_fraction=0.8,
        ),
    )
    return generate_trace(config)


def zipf_config(
    skew: float = 1.1,
    duration: float = 60.0,
    sources: int = 4000,
    seed: int = 7,
) -> SyntheticTraceConfig:
    """A plain Zipf population with no dynamics: skew is the only knob."""
    if skew <= 0:
        raise ValueError(f"skew must be positive, got {skew}")
    return SyntheticTraceConfig(
        duration_s=duration,
        num_sources=sources,
        zipf_alpha=skew,
        seed=seed,
        rate=RateConfig(busy_factor=1.0),
        bursts=BurstConfig(bursts_per_epoch=0.0, burst_packets=0),
        episodes=HeavyEpisodeConfig(episodes_per_minute=0.0),
        churn=ChurnConfig(deactivate_prob=0.0, activate_prob=0.0),
    )


def zipf_trace(
    skew: float = 1.1,
    duration: float = 60.0,
    sources: int = 4000,
    seed: int = 7,
) -> Trace:
    """A static Zipf-skewed trace (Poisson arrivals, no churn/episodes)."""
    return generate_trace(zipf_config(skew, duration, sources, seed))


def ddos_burst_config(
    duration: float = 60.0,
    seed: int = 1313,
    attack_share: float = 0.6,
    burst_s: float = 6.0,
) -> SyntheticTraceConfig:
    """Short violent subnet-level attack bursts.

    Unlike :func:`ddos_trace`'s sustained episodes, every attack here is a
    whole-subnet spike of at most ``burst_s`` seconds carrying up to
    ``attack_share`` of the link — the flash DDoS that lives *inside* a
    window and disappears into the window average.
    """
    if not 0.0 < attack_share < 1.0:
        raise ValueError(f"attack_share must be in (0, 1), got {attack_share}")
    if burst_s <= 1.0:
        raise ValueError(f"burst_s must exceed 1 second, got {burst_s}")
    return SyntheticTraceConfig(
        duration_s=duration,
        seed=seed,
        rate=RateConfig(busy_factor=4.0, mean_calm_s=10.0, mean_busy_s=2.0),
        episodes=HeavyEpisodeConfig(
            episodes_per_minute=8.0,
            min_share=0.25,
            max_share=attack_share,
            min_duration_s=1.0,
            max_duration_s=burst_s,
            subnet_fraction=1.0,
        ),
    )


def ddos_burst_trace(
    duration: float = 60.0,
    seed: int = 1313,
    attack_share: float = 0.6,
    burst_s: float = 6.0,
) -> Trace:
    """Short violent subnet attack bursts (see :func:`ddos_burst_config`)."""
    return generate_trace(ddos_burst_config(duration, seed, attack_share, burst_s))


def flash_crowd_config(
    duration: float = 90.0,
    seed: int = 2121,
    dormant_fraction: float = 0.9,
) -> SyntheticTraceConfig:
    """A flash crowd: a mostly dormant population stampedes in.

    Only ``1 - dormant_fraction`` of sources are active at t=0; every epoch
    a large fraction of the dormant ones wake up and almost none leave, so
    the active set — and with it the heavy-hitter aggregates at every
    prefix level — grows explosively over the trace.  The volume ramp is
    reinforced by a busy-heavy arrival process.
    """
    if not 0.0 <= dormant_fraction < 1.0:
        raise ValueError(
            f"dormant_fraction must be in [0, 1), got {dormant_fraction}"
        )
    return SyntheticTraceConfig(
        duration_s=duration,
        seed=seed,
        rate=RateConfig(
            base_rate=900.0, busy_factor=3.0, mean_calm_s=20.0, mean_busy_s=12.0
        ),
        churn=ChurnConfig(
            initially_active_fraction=1.0 - dormant_fraction,
            activate_prob=0.06,
            deactivate_prob=0.004,
        ),
        episodes=HeavyEpisodeConfig(episodes_per_minute=10.0),
    )


def flash_crowd_trace(
    duration: float = 90.0,
    seed: int = 2121,
    dormant_fraction: float = 0.9,
) -> Trace:
    """A flash-crowd stampede (see :func:`flash_crowd_config`)."""
    return generate_trace(flash_crowd_config(duration, seed, dormant_fraction))


def portscan_config(
    duration: float = 90.0,
    seed: int = 3434,
    scan_share: float = 0.25,
    scanners: int = 64,
) -> SyntheticTraceConfig:
    """A hierarchical portscan: heavy at /24, invisible at the leaves.

    A dedicated /24 of ``scanners`` equal small sources jointly carries
    ``scan_share`` of the traffic.  Each individual scanner stays far below
    any leaf-level threshold, so only detectors that aggregate up the
    prefix hierarchy see the scan — the canonical case for HHH over plain
    heavy hitters.
    """
    if scanners < 8:
        raise ValueError(f"need at least 8 scanners, got {scanners}")
    if not 0.0 < scan_share < 0.9:
        raise ValueError(f"scan_share must be in (0, 0.9), got {scan_share}")
    return SyntheticTraceConfig(
        duration_s=duration,
        seed=seed,
        zipf_alpha=1.05,
        band_subnets=(scan_share,),
        band_subnet_hosts=scanners,
        episodes=HeavyEpisodeConfig(episodes_per_minute=10.0),
    )


def portscan_trace(
    duration: float = 90.0,
    seed: int = 3434,
    scan_share: float = 0.25,
    scanners: int = 64,
) -> Trace:
    """A hierarchical portscan /24 (see :func:`portscan_config`)."""
    return generate_trace(portscan_config(duration, seed, scan_share, scanners))


def drift_trace(
    duration: float = 60.0,
    seed: int = 4242,
    attack_share: float = 0.6,
) -> Trace:
    """A drift splice: calm → ddos-burst → calm, thirds of ``duration``.

    The canonical streaming scenario: the heavy-hitter population is
    stable, then a violent burst regime rewrites it, then it reverts.
    Online emissions should show churn flipping on at the first seam and
    off again after the second — the signature the ``stream-replay``
    experiment asserts on.  Built with the splice ops of
    :mod:`repro.trace.ops`, so the timeline is continuous.
    """
    from repro.trace.ops import concat_traces, shift_trace

    third = duration / 3.0
    phases = [
        calm_trace(third, seed),
        ddos_burst_trace(third, seed + 1, attack_share),
        calm_trace(third, seed + 2),
    ]
    spliced: list[Trace] = []
    clock = 0.0
    for phase in phases:
        gap = phase.duration / max(len(phase) - 1, 1)
        spliced.append(shift_trace(phase, clock - phase.start_time))
        clock = spliced[-1].end_time + gap
    return concat_traces(spliced)


def _pcap_trace(path: str) -> Trace:
    """Load a recorded pcap file as a columnar trace."""
    from repro.packet.pcap import read_pcap

    return Trace.from_packets(read_pcap(path))


# -- scenario registrations (string-addressable via repro.trace.spec) --------

register_scenario(
    "caida", caida_like_day,
    description="synthetic CAIDA-like backbone day (day in 0..3)",
    example="caida:day=0,duration=120",
)
register_scenario(
    "sensitivity", sensitivity_trace,
    description="Figure 3 trace: borderline band + multifractal slots",
    example="sensitivity:duration=240",
)
register_scenario(
    "calm", calm_trace,
    description="negative control: Poisson arrivals, no bursts/episodes",
    example="calm:duration=60",
)
register_scenario(
    "zipf", zipf_trace,
    description="static Zipf population, skew as the only knob",
    example="zipf:skew=1.2,duration=60",
)
register_scenario(
    "ddos", ddos_trace,
    description="sustained subnet-level attack episodes",
    example="ddos:duration=120,attack_share=0.5",
)
register_scenario(
    "ddos-burst", ddos_burst_trace,
    description="short violent whole-subnet attack bursts",
    example="ddos-burst:duration=60,attack_share=0.6",
)
register_scenario(
    "flash-crowd", flash_crowd_trace,
    description="dormant population stampedes in; aggregates ramp up",
    example="flash-crowd:duration=90",
)
register_scenario(
    "portscan", portscan_trace,
    description="hierarchical portscan /24: heavy aggregate, tiny leaves",
    example="portscan:scan_share=0.25,scanners=64",
)
register_scenario(
    "drift", drift_trace,
    description="drift splice: calm -> ddos-burst -> calm thirds",
    example="drift:duration=60,attack_share=0.6",
)
register_scenario(
    "pcap", _pcap_trace,
    description="a recorded pcap file",
    example="pcap:/path/to/trace.pcap",
)
