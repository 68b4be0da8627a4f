"""Unbounded packet-stream sources yielding fixed-size columnar chunks.

Everything below the stream layer consumes a fully materialized
:class:`repro.trace.Trace`; a production deployment consumes an *unbounded*
packet stream with bounded memory.  :class:`StreamSource` is the bridge: a
source yields time-ordered trace *segments* (possibly forever), and
:meth:`StreamSource.chunks` re-chunks them into fixed-size columnar chunks
— each chunk is itself a small :class:`Trace`, so the chunk layout is
exactly the layout every detector's ``update_batch`` fast path already
speaks.

Sources:

- :class:`TraceSource` — adapts an existing in-memory trace (replay);
- :class:`ScenarioSource` — an *infinite* synthetic generator wrapping the
  scenario registry of :mod:`repro.trace.spec`: it builds the scenario
  again and again (re-seeding each cycle where the scenario accepts a
  ``seed``) and stitches the cycles into one continuous timeline.  Seeded,
  deterministic, and can run forever in O(segment) memory;
- composition ops — :func:`splice` (play sources back to back on one
  continuous clock), :func:`interleave` (overlay sources on one timeline,
  merged by timestamp), and :func:`rate_rewrite` (compress or stretch
  timestamps to rewrite the packet rate).  These are how drift scenarios
  like calm → ddos-burst → calm are built.

Every source is string-addressable via :func:`parse_stream_spec`, the
stream counterpart of ``TraceSpec``::

    calm:duration=20+ddos-burst:duration=30+calm:duration=20   # splice
    calm:duration=60&repeat:ddos-burst:duration=15             # overlay
    caida:day=0,duration=60@x4                                 # 4x rate
"""

from __future__ import annotations

import abc
from typing import Iterator

import numpy as np

from repro.trace.container import Trace
from repro.trace.ops import concat_traces, shift_trace
from repro.trace.spec import TraceSpec, TraceSpecError, get_scenario


def _mean_spacing(segment: Trace) -> float:
    """The mean inter-packet gap of a segment (used to butt segments
    together without colliding or leaving a dead window)."""
    if len(segment) > 1 and segment.duration > 0:
        return segment.duration / (len(segment) - 1)
    return 1e-3


class StreamSource(abc.ABC):
    """An ordered (possibly unbounded) packet stream.

    Subclasses implement :meth:`segments`, yielding non-overlapping,
    time-ordered :class:`Trace` segments; consumers call :meth:`chunks`
    for fixed-size columnar chunks regardless of how the underlying
    segments are sized.
    """

    @abc.abstractmethod
    def segments(self) -> Iterator[Trace]:
        """Yield time-ordered trace segments (may never terminate)."""

    def chunks(self, chunk_size: int) -> Iterator[Trace]:
        """Re-chunk the stream into chunks of exactly ``chunk_size``
        packets (the final chunk of a finite stream may be shorter).

        Memory stays bounded by one segment plus one chunk — nothing
        upstream is ever materialized whole, which is what lets an
        infinite :class:`ScenarioSource` run forever.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        pending: list[Trace] = []
        buffered = 0
        for segment in self.segments():
            if not len(segment):
                continue
            pending.append(segment)
            buffered += len(segment)
            while buffered >= chunk_size:
                chunk, pending, buffered = _take(pending, buffered, chunk_size)
                yield chunk
        if buffered:
            chunk, pending, buffered = _take(pending, buffered, buffered)
            yield chunk


def _take(
    pending: list[Trace], buffered: int, n: int
) -> tuple[Trace, list[Trace], int]:
    """Split the first ``n`` buffered packets off as one chunk."""
    taken: list[Trace] = []
    got = 0
    while got < n:
        head = pending[0]
        need = n - got
        if len(head) <= need:
            taken.append(head)
            got += len(head)
            pending.pop(0)
        else:
            taken.append(head.slice_index(0, need))
            pending[0] = head.slice_index(need, len(head))
            got = n
    return concat_traces(taken), pending, buffered - n


class TraceSource(StreamSource):
    """Replay an existing in-memory trace as a (finite) stream."""

    def __init__(self, trace: Trace) -> None:
        self.trace = trace

    def segments(self) -> Iterator[Trace]:
        if len(self.trace):
            yield self.trace

    def __repr__(self) -> str:
        return f"TraceSource({self.trace!r})"


class ScenarioSource(StreamSource):
    """An infinite synthetic stream wrapping the scenario registry.

    Each *cycle* builds the scenario once and splices it onto the end of
    the stream's continuous timeline.  When the scenario's builder accepts
    a ``seed`` parameter, cycle ``i`` is built with ``base_seed + i`` so
    the stream never repeats; scenarios without a seed knob (the
    CAIDA-like days) replay the same cycle with shifted timestamps, and
    end the stream at once when that cycle is empty.

    Parameters
    ----------
    spec:
        A :class:`TraceSpec` or spec string (``"zipf:skew=1.1"``); ``pcap``
        is rejected (replay a file with :class:`TraceSource` instead).
    seed:
        Base seed for the per-cycle reseeding; defaults to the spec's own
        ``seed`` parameter or the scenario's default.
    cycles:
        Stop after this many cycles; ``None`` (the default) runs forever —
        consumers bound it with ``max_packets`` or by breaking out.
    """

    def __init__(
        self,
        spec: TraceSpec | str,
        seed: int | None = None,
        cycles: int | None = None,
    ) -> None:
        if isinstance(spec, str):
            spec = TraceSpec.parse(spec)
        if spec.scenario == "pcap":
            raise TraceSpecError(
                "ScenarioSource generates synthetic scenarios; replay a "
                "pcap with TraceSource(build_trace('pcap:...'))"
            )
        if cycles is not None and cycles < 1:
            raise ValueError(f"cycles must be >= 1, got {cycles}")
        scenario = get_scenario(spec.scenario)  # validates the name eagerly
        self.cycles = cycles
        self._reseedable = "seed" in scenario.param_names()
        if seed is not None:
            base = seed
        elif "seed" in spec.params:
            base = int(spec.params["seed"])  # type: ignore[arg-type]
        else:
            base = int(scenario.defaults().get("seed", 0))  # type: ignore[arg-type]
        self.seed = base
        if self._reseedable and spec.params.get("seed") != base:
            # Normalise the resolved base seed back into the spec, so
            # ``spec.format()`` is a complete recipe for this stream: two
            # sources built from the same spec string (or one rebuilt from
            # a serialized fuzz-case artifact) yield identical chunks.
            spec = TraceSpec(
                spec.scenario, {**spec.params, "seed": base}
            )
        self.spec = spec
        self._repeat_cycle: Trace | None = None

    def _build_cycle(self, index: int) -> Trace:
        # Without a seed knob every cycle is identical, so build once and
        # replay (segments() shifts into fresh timestamp arrays; the other
        # columns are shared read-only) instead of regenerating the same
        # trace forever.
        if not self._reseedable:
            if self._repeat_cycle is None:
                self._repeat_cycle = self.spec.build(cache=False)
            return self._repeat_cycle
        params = dict(self.spec.params)
        params["seed"] = self.seed + index
        # cache=False: cycles are throwaway segments; do not evict the
        # sweep-memoized traces (nor hand out frozen shared columns).
        return TraceSpec(self.spec.scenario, params).build(cache=False)

    def segments(self) -> Iterator[Trace]:
        clock: float | None = None
        index = 0
        while self.cycles is None or index < self.cycles:
            segment = self._build_cycle(index)
            index += 1
            if not len(segment):
                if not self._reseedable:
                    return  # every cycle is this same empty trace
                continue
            if clock is not None:
                segment = shift_trace(segment, clock - segment.start_time)
            clock = segment.end_time + _mean_spacing(segment)
            yield segment

    def __repr__(self) -> str:
        return (
            f"ScenarioSource({self.spec.format()!r}, seed={self.seed}, "
            f"cycles={self.cycles})"
        )


class SpliceSource(StreamSource):
    """Play sources back to back on one continuous clock.

    Each upstream segment is shifted so it starts where the previous one
    ended (plus one mean inter-packet gap), which is how drift scenarios
    like calm → ddos-burst → calm are stitched.  A source that never
    terminates starves everything after it — put infinite sources last.
    """

    def __init__(self, *sources: StreamSource) -> None:
        if not sources:
            raise ValueError("splice needs at least one source")
        self.sources = sources

    def segments(self) -> Iterator[Trace]:
        clock: float | None = None
        for source in self.sources:
            for segment in source.segments():
                if not len(segment):
                    continue
                if clock is not None:
                    segment = shift_trace(segment, clock - segment.start_time)
                clock = segment.end_time + _mean_spacing(segment)
                yield segment

    def __repr__(self) -> str:
        return f"SpliceSource({', '.join(map(repr, self.sources))})"


class _Overlay:
    """One interleaved source's merge cursor: iterator + lookahead buffer."""

    __slots__ = ("it", "buffer", "offset", "done")

    def __init__(self, source: StreamSource) -> None:
        self.it = source.segments()
        self.buffer = Trace.empty()
        self.offset: float | None = None
        self.done = False

    def refill(self, origin: float | None) -> float | None:
        """Pull segments until the buffer is non-empty or the source ends.

        The first segment pins this source's shift so its first packet
        lands at the overlay ``origin`` (set by the earliest source)."""
        while not self.done and not len(self.buffer):
            segment = next(self.it, None)
            if segment is None:
                self.done = True
                break
            if not len(segment):
                continue
            if self.offset is None:
                origin = segment.start_time if origin is None else origin
                self.offset = origin - segment.start_time
            if self.offset:
                segment = shift_trace(segment, self.offset)
            self.buffer = segment
        return origin


class InterleaveSource(StreamSource):
    """Overlay sources on one shared timeline, merged by timestamp.

    Every source is re-based so its first packet coincides with the
    overlay origin, then packets are merged in time order with a
    watermark (the least buffered end-time across live sources), so the
    merge is streaming: memory stays bounded by one segment per source
    even when some sources are infinite.
    """

    def __init__(self, *sources: StreamSource) -> None:
        if not sources:
            raise ValueError("interleave needs at least one source")
        self.sources = sources

    def segments(self) -> Iterator[Trace]:
        overlays = [_Overlay(source) for source in self.sources]
        origin: float | None = None
        while True:
            for overlay in overlays:
                origin = overlay.refill(origin)
            live = [o for o in overlays if len(o.buffer)]
            if not live:
                return
            active = [o for o in live if not o.done]
            if active:
                # Only packets at or below the watermark are safe to emit:
                # an active source's future packets are all later than its
                # buffered end-time (segments are time-ordered).
                watermark = min(o.buffer.end_time for o in active)
            else:
                watermark = max(o.buffer.end_time for o in live)
            parts = []
            for overlay in live:
                j = int(
                    np.searchsorted(
                        overlay.buffer.ts, watermark, side="right"
                    )
                )
                if j:
                    parts.append(overlay.buffer.slice_index(0, j))
                    overlay.buffer = overlay.buffer.slice_index(
                        j, len(overlay.buffer)
                    )
            if parts:
                yield concat_traces(parts)  # stable re-sort merges the parts

    def __repr__(self) -> str:
        return f"InterleaveSource({', '.join(map(repr, self.sources))})"


class RateRewriteSource(StreamSource):
    """Rewrite the packet rate by compressing or stretching timestamps.

    ``speedup > 1`` packs the same packets into ``1/speedup`` of the time
    (a hotter link); ``speedup < 1`` stretches the stream out.  Packet
    contents and ordering are untouched.
    """

    def __init__(self, source: StreamSource, speedup: float) -> None:
        if speedup <= 0:
            raise ValueError(f"speedup must be positive, got {speedup}")
        self.source = source
        self.speedup = speedup

    def segments(self) -> Iterator[Trace]:
        origin: float | None = None
        for segment in self.source.segments():
            if not len(segment):
                continue
            if origin is None:
                origin = segment.start_time
            yield Trace(
                origin + (segment.ts - origin) / self.speedup,
                segment.src, segment.dst, segment.length,
                segment.sport, segment.dport, segment.proto,
            )

    def __repr__(self) -> str:
        return f"RateRewriteSource({self.source!r}, x{self.speedup:g})"


class SkipSource(StreamSource):
    """The same stream minus its first ``skip`` packets.

    The fast-forward used when resuming a checkpointed pipeline over the
    same deterministic source: skip exactly the packets already consumed
    and continue from there.
    """

    def __init__(self, source: StreamSource, skip: int) -> None:
        if skip < 0:
            raise ValueError(f"skip must be >= 0, got {skip}")
        self.source = source
        self.skip = skip

    def segments(self) -> Iterator[Trace]:
        remaining = self.skip
        for segment in self.source.segments():
            if remaining >= len(segment):
                remaining -= len(segment)
                continue
            if remaining:
                segment = segment.slice_index(remaining, len(segment))
                remaining = 0
            yield segment

    def __repr__(self) -> str:
        return f"SkipSource({self.source!r}, skip={self.skip})"


def skip_packets(source: StreamSource, skip: int) -> StreamSource:
    """The stream with its first ``skip`` packets dropped."""
    return SkipSource(source, skip) if skip else source


def splice(*sources: StreamSource) -> StreamSource:
    """Sources end to end on one continuous clock (drift scenarios)."""
    return sources[0] if len(sources) == 1 else SpliceSource(*sources)


def interleave(*sources: StreamSource) -> StreamSource:
    """Sources overlaid on one timeline, merged by timestamp."""
    return sources[0] if len(sources) == 1 else InterleaveSource(*sources)


def rate_rewrite(source: StreamSource, speedup: float) -> StreamSource:
    """The same stream with its packet rate scaled by ``speedup``."""
    return RateRewriteSource(source, speedup)


# -- string-addressable stream specs -----------------------------------------

def parse_stream_spec(text: str) -> StreamSource:
    """Parse a stream spec into a :class:`StreamSource`.

    Grammar (splice binds loosest, then interleave)::

        STREAM  := OVERLAY ('+' OVERLAY)*          # splice, end to end
        OVERLAY := ATOM ('&' ATOM)*                # interleave on one clock
        ATOM    := ['repeat:'] TRACESPEC ['@x' FACTOR]

    A plain ``TRACESPEC`` builds the trace once and replays it
    (:class:`TraceSource`); the ``repeat:`` prefix wraps it in an infinite
    :class:`ScenarioSource`; the ``@x`` suffix rewrites the packet rate.

    Scenario parameters ride inside the ``TRACESPEC``, including ``seed``
    (``repeat:zipf:seed=7``), and :class:`ScenarioSource` normalises the
    resolved seed back into its spec — so a stream spec string is a
    complete, reproducible recipe: two sources parsed from the same string
    yield identical chunks, which is what lets fuzz-case artifacts
    (:mod:`repro.fuzz`) replay deterministically from the spec alone.

    ``+`` and ``&`` are structural everywhere, so a pcap path containing
    them cannot be expressed in a stream spec — replay such a file from
    Python via ``TraceSource(build_trace("pcap:..."))`` and compose with
    :func:`splice`/:func:`interleave` directly.
    """
    text = text.strip()
    if not text:
        raise TraceSpecError("empty stream spec")
    parts = [part.strip() for part in text.split("+")]
    if any(not part for part in parts):
        raise TraceSpecError(f"empty splice part in stream spec {text!r}")
    return splice(*[_parse_overlay(part) for part in parts])


def _parse_overlay(text: str) -> StreamSource:
    atoms = [atom.strip() for atom in text.split("&")]
    if any(not atom for atom in atoms):
        raise TraceSpecError(f"empty interleave part in stream spec {text!r}")
    return interleave(*[_parse_atom(atom) for atom in atoms])


def _parse_atom(text: str) -> StreamSource:
    speedup = None
    if "@" in text:
        # Only a well-formed '@xFACTOR' tail is a rate suffix; any other
        # '@' stays part of the spec (e.g. a pcap path like 'a@b.pcap' —
        # a malformed factor on a synthetic spec still fails loudly when
        # the scenario rejects the mangled parameter).
        head, _, suffix = text.rpartition("@")
        if suffix.startswith("x"):
            try:
                speedup = float(suffix[1:])
                text = head
            except ValueError:
                pass
    if text.startswith("repeat:"):
        source: StreamSource = ScenarioSource(
            TraceSpec.parse(text.removeprefix("repeat:"))
        )
    else:
        source = TraceSource(TraceSpec.parse(text).build())
    if speedup is not None:
        source = rate_rewrite(source, speedup)
    return source
