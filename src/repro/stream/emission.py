"""Online report emission: the *when to report* policy and its record.

Offline experiments query a detector at end-of-run; a streaming deployment
must emit heavy-hitter reports *online*, while the stream keeps flowing.
An :class:`EmissionPolicy` decides where the emission boundaries fall —
expressed as cut positions inside each arriving chunk, so a boundary can
land mid-chunk and the pipeline still honours it exactly:

- :class:`EveryNPackets` — a report every N packets of stream;
- :class:`EveryTraceSeconds` — a report every T seconds of *trace time*
  (edges accumulate from the first packet exactly like
  :func:`repro.windows.schedule.edge_schedule`, so emissions are
  bit-aligned with ``WindowedDetectorDriver`` windows of the same size).

Policies are stateful (a pending edge, a packet countdown) and expose
``state_dict``/``load_state_dict`` so a stream checkpoint can freeze and
resume them mid-stream.

An :class:`Emission` is the pipeline's output record: the report plus the
chunk/packet/byte offsets it covers and the wall-clock spent ingesting its
interval.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.windows.schedule import Window

#: One emission boundary inside a chunk: ``(position, edge)``.  ``position``
#: is the number of leading chunk packets that belong to the closing
#: interval; ``edge`` is the trace-time right edge for time-based policies
#: (``None`` for packet-count policies, whose interval ends at its last
#: packet).
Cut = tuple[int, "float | None"]


@dataclass(frozen=True)
class Emission:
    """One online report with the stream offsets it covers."""

    index: int                      #: emission sequence number
    window: Window                  #: trace-time interval [t0, t1) covered
    report: dict[int, float]        #: keys at or above the interval threshold
    packets: int                    #: packets in the interval
    bytes: int                      #: bytes in the interval
    start_packet: int               #: stream offset of the first packet
    end_packet: int                 #: stream offset past the last packet
    chunk_index: int                #: chunk during which the emission fired
    wall_s: float                   #: update wall-clock spent in the interval
    partial: bool = False           #: end-of-stream flush, not a policy cut

    @property
    def pps(self) -> float:
        """Ingest throughput over the interval (packets/second)."""
        return self.packets / self.wall_s if self.wall_s > 0 else 0.0


class EmissionPolicy(abc.ABC):
    """Decides where emission boundaries fall in the arriving stream."""

    def start(self, first_ts: float) -> None:
        """Anchor the policy at the stream's first packet timestamp."""

    @abc.abstractmethod
    def cuts(self, ts: np.ndarray) -> list[Cut]:
        """Emission boundaries inside a chunk with timestamps ``ts``.

        Returns ascending :data:`Cut` positions in ``0..len(ts)``; consuming
        a chunk advances the policy's internal state, so each chunk must be
        offered exactly once.  A position of 0 closes an interval that ended
        before this chunk's first packet (an empty trace-time window).
        """

    @abc.abstractmethod
    def describe(self) -> str:
        """The ``--emit-every`` spelling that rebuilds this policy."""

    def state_dict(self) -> dict[str, object]:
        """Checkpointable policy state (mirrors the public constructor)."""
        return {}

    def load_state_dict(self, state: dict[str, object]) -> None:
        """Restore :meth:`state_dict` output in place."""


class EveryNPackets(EmissionPolicy):
    """Emit after every ``n`` packets of stream."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"emission interval must be >= 1 packet, got {n}")
        self.n = n
        self._countdown = n

    def cuts(self, ts: np.ndarray) -> list[Cut]:
        out: list[Cut] = []
        position = self._countdown
        while position <= len(ts):
            out.append((position, None))
            position += self.n
        self._countdown = position - len(ts)
        return out

    def describe(self) -> str:
        return f"{self.n}p"

    def state_dict(self) -> dict[str, object]:
        return {"countdown": self._countdown}

    def load_state_dict(self, state: dict[str, object]) -> None:
        self._countdown = int(state["countdown"])  # type: ignore[arg-type]


class EveryTraceSeconds(EmissionPolicy):
    """Emit every ``every_s`` seconds of trace time.

    Edges accumulate from the first packet's timestamp (``edge += every_s``),
    and an interval closes as soon as a packet at or past its edge shows up
    — the streaming analogue of the windowed driver's "complete once the
    trace extends to the right edge".
    """

    def __init__(self, every_s: float) -> None:
        if every_s <= 0:
            raise ValueError(
                f"emission interval must be positive, got {every_s}"
            )
        self.every_s = every_s
        self._next_edge: float | None = None

    def start(self, first_ts: float) -> None:
        if self._next_edge is None:
            self._next_edge = first_ts + self.every_s

    def cuts(self, ts: np.ndarray) -> list[Cut]:
        if self._next_edge is None:
            raise RuntimeError("policy not started; call start(first_ts)")
        out: list[Cut] = []
        while True:
            position = int(
                np.searchsorted(ts, self._next_edge, side="left")
            )
            if position >= len(ts):
                return out  # edge beyond this chunk; wait for more stream
            out.append((position, self._next_edge))
            self._next_edge += self.every_s

    def describe(self) -> str:
        return f"{self.every_s:g}s"

    def state_dict(self) -> dict[str, object]:
        return {"next_edge": self._next_edge}

    def load_state_dict(self, state: dict[str, object]) -> None:
        edge = state["next_edge"]
        self._next_edge = None if edge is None else float(edge)  # type: ignore[arg-type]


def parse_emission_policy(text: str) -> EmissionPolicy:
    """Parse an ``--emit-every`` spelling into a fresh policy.

    ``"20000p"`` — every 20k packets; ``"2.5s"`` — every 2.5 trace
    seconds.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty emission policy")
    try:
        if text.endswith("p"):
            return EveryNPackets(int(text[:-1]))
        if text.endswith("s"):
            return EveryTraceSeconds(float(text[:-1]))
    except ValueError as exc:
        raise ValueError(f"bad emission policy {text!r}: {exc}") from None
    raise ValueError(
        f"bad emission policy {text!r}; expected 'Np' (packets) or "
        "'Ts' (trace seconds)"
    )
