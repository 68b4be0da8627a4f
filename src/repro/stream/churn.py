"""Churn and drift accounting over consecutive online reports.

A streaming deployment cares not just about each report but about how the
heavy-hitter population *moves*: a DDoS burst shows up as a spike of
entries, its end as a spike of exits, and a flash crowd as sustained rank
displacement.  :func:`report_churn` compares two consecutive emissions'
reports on exactly those axes, reusing the set metrics of
:mod:`repro.metrics.sets`:

- Jaccard similarity of the reported key sets (two empty reports agree
  perfectly, matching :func:`repro.metrics.sets.jaccard`);
- entries / exits — keys that joined or left the report;
- rank displacement — the mean absolute change in by-volume rank over the
  keys present in both reports (0.0 when fewer than two keys persist), the
  signal that the population is reshuffling even when membership is
  stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.metrics.sets import jaccard, set_difference_report
from repro.stream.emission import Emission


@dataclass(frozen=True)
class ChurnStats:
    """How one report differs from the previous one."""

    jaccard: float            #: key-set similarity with the previous report
    entries: int              #: keys that joined the report
    exits: int                #: keys that left the report
    common: int               #: keys present in both reports
    rank_displacement: float  #: mean |rank change| over the common keys

    @property
    def flipped(self) -> bool:
        """True when membership changed at all (an entry or an exit)."""
        return bool(self.entries or self.exits)


def _ranks(report: Mapping[int, float]) -> dict[int, int]:
    """Key -> dense rank by descending estimate (ties broken by key for
    determinism)."""
    ordered = sorted(report.items(), key=lambda kv: (-kv[1], kv[0]))
    return {key: rank for rank, (key, _) in enumerate(ordered)}


def report_churn(
    previous: Mapping[int, float], current: Mapping[int, float]
) -> ChurnStats:
    """Churn of ``current`` relative to ``previous``."""
    diff = set_difference_report(set(previous), set(current))
    prev_ranks = _ranks(previous)
    cur_ranks = _ranks(current)
    common = set(prev_ranks) & set(cur_ranks)
    if len(common) >= 2:
        displacement = sum(
            abs(prev_ranks[key] - cur_ranks[key]) for key in common
        ) / len(common)
    else:
        displacement = 0.0
    return ChurnStats(
        jaccard=jaccard(set(previous), set(current)),
        entries=diff.only_observed,
        exits=diff.only_reference,
        common=diff.common,
        rank_displacement=displacement,
    )


def churn_series(emissions: Sequence[Emission]) -> list[ChurnStats]:
    """Per-emission churn along a timeline (the first emission is compared
    against the empty report, so a non-empty opening report counts as
    entries)."""
    out: list[ChurnStats] = []
    previous: Mapping[int, float] = {}
    for emission in emissions:
        out.append(report_churn(previous, emission.report))
        previous = emission.report
    return out


def emission_rows(emissions: Sequence[Emission]) -> list[dict[str, object]]:
    """One flat table row per emission (report + churn + throughput).

    The shared row schema of the ``stream-replay`` experiment and the
    ``repro-hhh stream`` subcommand, so their tables and JSON artifacts
    stay identical.
    """
    return [
        {
            "emission": emission.index,
            "t0": round(emission.window.t0, 3),
            "t1": round(emission.window.t1, 3),
            "packets": emission.packets,
            "bytes": emission.bytes,
            "report_size": len(emission.report),
            "jaccard": round(stats.jaccard, 3),
            "entries": stats.entries,
            "exits": stats.exits,
            "rank_disp": round(stats.rank_displacement, 2),
            "pps": int(emission.pps),
            "wall_ms": round(emission.wall_s * 1e3, 3),
        }
        for emission, stats in zip(emissions, churn_series(emissions))
    ]


def serve_row(tenant: str, emission: Emission) -> dict[str, object]:
    """One flat table row per tenant emission: the shared row schema of
    the ``stream-serve`` experiment and the ``repro-hhh serve``
    subcommand."""
    return {
        "tenant": tenant,
        "emission": emission.index,
        "t0": round(emission.window.t0, 3),
        "t1": round(emission.window.t1, 3),
        "packets": emission.packets,
        "bytes": emission.bytes,
        "report_size": len(emission.report),
        "partial": emission.partial,
    }
