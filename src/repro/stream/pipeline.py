"""The streaming pipeline: chunked ingestion, online emission, checkpoints.

:class:`StreamPipeline` is the runtime between a :class:`StreamSource` and
a detector.  It pulls fixed-size columnar chunks, feeds each one through
the detector's vectorized ``update_batch`` path (a plain detector or a
key-partitioned :class:`repro.engine.ShardedDetector` — the pipeline does
not care), and yields an :class:`repro.stream.emission.Emission` whenever
the :class:`~repro.stream.emission.EmissionPolicy` places a boundary —
including boundaries that fall *inside* a chunk, which are honoured
exactly by sub-slicing.

By default the detector is reset at each emission (the disjoint-window
protocol, so consecutive reports are independent and churn between them is
meaningful); ``reset_on_emit=False`` keeps state accumulating for
continuous-time detectors.

The pipeline is *checkpointable*: :meth:`StreamPipeline.checkpoint`
freezes the detector state (via the :mod:`repro.core.checkpoint`
artifact), the emission policy, and every stream offset into one versioned
document, and :meth:`StreamPipeline.restore` resumes an
identically-configured pipeline from it.  Resuming and pushing the
remaining chunks is bit-identical to never having stopped (same chunk
boundaries, same emissions), which
``tests/stream/test_pipeline.py`` and the registry-wide checkpoint suite
enforce.
"""

from __future__ import annotations

import time
from typing import Iterator

from repro.core.checkpoint import CheckpointError
from repro.core.detector import Detector
from repro.stream.emission import Emission, EmissionPolicy
from repro.stream.source import StreamSource
from repro.trace.container import Trace
from repro.windows.schedule import Window

#: Version tag embedded in every stream checkpoint.
STREAM_CHECKPOINT_SCHEMA = "repro-hhh/stream-checkpoint/v2"

_KEY_COLUMNS = ("src", "dst")


def build_stream_detector(spec, shards: int = 1, workers: int = 1):
    """``(detector, runner)`` for a possibly-sharded streaming run.

    The single assembly both the ``stream-replay`` experiment and the
    ``repro-hhh stream`` subcommand use: ``workers > 1`` opens a process
    pool (the caller must ``close()`` the returned runner when done —
    it is ``None`` otherwise), and ``shards > 1`` or a pool wraps the
    detector in the key-partitioned sharded engine.
    """
    from repro.engine import ParallelRunner, ShardedDetector

    runner = ParallelRunner("process", workers) if workers > 1 else None
    detector = (
        ShardedDetector(spec.factory, shards, runner)
        if shards > 1 or runner is not None else spec.factory()
    )
    return detector, runner


class StreamPipeline:
    """Drive one detector over a chunked stream with online emissions.

    Parameters
    ----------
    detector:
        Any :class:`repro.core.Detector` (including a sharded one).
    policy:
        The :class:`EmissionPolicy` placing report boundaries.
    phi:
        Relative threshold: each emission reports keys at or above
        ``phi * interval_bytes``, the per-window percentage thresholds of
        the offline experiments carried over to the stream.
    key:
        Which trace column keys the detector: ``"src"`` or ``"dst"``.
    timestamped:
        Whether ``query`` takes a ``now`` argument (the registry's
        ``timestamped`` flag for the detector).
    reset_on_emit:
        Reset the detector after each emission (disjoint-window semantics,
        the default); continuous-time detectors pass ``False``.
    emit_partial:
        Whether :meth:`finish` flushes the trailing partial interval of a
        finite stream.
    """

    def __init__(
        self,
        detector: Detector,
        policy: EmissionPolicy,
        *,
        phi: float = 0.05,
        key: str = "src",
        timestamped: bool = False,
        reset_on_emit: bool = True,
        emit_partial: bool = True,
    ) -> None:
        if not 0.0 < phi <= 1.0:
            raise ValueError(f"phi must be in (0, 1], got {phi}")
        if key not in _KEY_COLUMNS:
            raise ValueError(
                f"key must be one of {_KEY_COLUMNS}, got {key!r}"
            )
        self.detector = detector
        self.policy = policy
        self.phi = phi
        self.key = key
        self.timestamped = timestamped
        self.reset_on_emit = reset_on_emit
        self.emit_partial = emit_partial
        # Stream offsets (total consumed).
        self.packets = 0
        self.bytes = 0
        self.chunk_index = 0
        self.emissions = 0
        # The open interval (since the last emission).
        self._interval_packets = 0
        self._interval_bytes = 0
        self._interval_start_packet = 0
        self._interval_t0: float | None = None
        self._interval_wall = 0.0
        self._last_ts: float | None = None

    # -- ingestion ---------------------------------------------------------

    def process(
        self,
        source: StreamSource,
        chunk_size: int,
        max_packets: int | None = None,
    ) -> Iterator[Emission]:
        """Consume ``source`` chunk by chunk, yielding emissions online.

        ``max_packets`` bounds unbounded sources (the final chunk is
        truncated to the cap); the trailing partial interval is flushed
        when ``emit_partial`` is set.  Emissions are yielded as they
        happen — a consumer can print, ship, or act on each one while the
        stream is still flowing.
        """
        if max_packets is not None and max_packets < 1:
            raise ValueError(f"max_packets must be >= 1, got {max_packets}")
        remaining = max_packets
        for chunk in source.chunks(chunk_size):
            if remaining is not None and len(chunk) > remaining:
                chunk = chunk.slice_index(0, remaining)
            yield from self.push(chunk)
            if remaining is not None:
                remaining -= len(chunk)
                if remaining <= 0:
                    break
        yield from self.finish()

    def push(self, chunk: Trace) -> Iterator[Emission]:
        """Ingest one chunk, yielding any emissions it completes."""
        if not len(chunk):
            return
        if self._interval_t0 is None:
            self.policy.start(chunk.start_time)
            self._interval_t0 = chunk.start_time
        previous = 0
        for position, edge in self.policy.cuts(chunk.ts):
            self._ingest(chunk, previous, position)
            previous = position
            yield self._emit(edge, partial=False)
        self._ingest(chunk, previous, len(chunk))
        self.chunk_index += 1

    def finish(self) -> Iterator[Emission]:
        """Flush the trailing partial interval of a finite stream."""
        if self.emit_partial and self._interval_packets:
            yield self._emit(edge=None, partial=True)

    def _ingest(self, chunk: Trace, i: int, j: int) -> None:
        if j <= i:
            return
        keys = getattr(chunk, self.key)[i:j]
        t0 = time.perf_counter()
        self.detector.update_batch(keys, chunk.length[i:j], chunk.ts[i:j])
        self._interval_wall += time.perf_counter() - t0
        n = j - i
        volume = int(chunk.length[i:j].sum())
        self.packets += n
        self.bytes += volume
        self._interval_packets += n
        self._interval_bytes += volume
        self._last_ts = float(chunk.ts[j - 1])

    # -- emission ----------------------------------------------------------

    def _emit(self, edge: float | None, partial: bool) -> Emission:
        assert self._interval_t0 is not None
        if edge is not None:
            t1 = edge
        elif self._last_ts is not None and self._last_ts > self._interval_t0:
            t1 = self._last_ts
        else:
            t1 = self._interval_t0
        threshold = self.phi * self._interval_bytes
        if self._interval_bytes:
            if self.timestamped:
                report = self.detector.query(threshold, t1)
            else:
                report = self.detector.query(threshold)
        else:
            report = {}
        emission = Emission(
            index=self.emissions,
            window=Window(self._interval_t0, t1, self.emissions),
            report=report,
            packets=self._interval_packets,
            bytes=self._interval_bytes,
            start_packet=self._interval_start_packet,
            end_packet=self.packets,
            chunk_index=self.chunk_index,
            wall_s=self._interval_wall,
            partial=partial,
        )
        self.emissions += 1
        self._interval_t0 = t1
        self._interval_packets = 0
        self._interval_bytes = 0
        self._interval_start_packet = self.packets
        self._interval_wall = 0.0
        if self.reset_on_emit:
            self.detector.reset()
        return emission

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self) -> dict[str, object]:
        """Freeze the whole pipeline into one versioned artifact.

        Captures the detector state (via :meth:`Detector.save_state`), the
        emission policy's pending state, and every stream offset.  The
        artifact is a self-describing state tree that
        :func:`repro.core.checkpoint.write_checkpoint` can store; pair it
        with :meth:`restore` on an identically-configured pipeline.
        """
        return {
            "schema": STREAM_CHECKPOINT_SCHEMA,
            "policy": self.policy.describe(),
            "detector_state": self.detector.save_state(),
            "policy_state": self.policy.state_dict(),
            "offsets": {
                "packets": self.packets,
                "bytes": self.bytes,
                "chunk_index": self.chunk_index,
                "emissions": self.emissions,
                "interval_packets": self._interval_packets,
                "interval_bytes": self._interval_bytes,
                "interval_start_packet": self._interval_start_packet,
                "interval_t0": self._interval_t0,
                "last_ts": self._last_ts,
            },
        }

    def restore(self, checkpoint: dict[str, object]) -> None:
        """Resume from a :meth:`checkpoint` artifact, in place.

        The pipeline must be configured identically (same policy spelling,
        compatible detector); pushing the chunks that followed the
        snapshot then reproduces the uninterrupted run bit for bit.
        """
        if not isinstance(checkpoint, dict) or (
            checkpoint.get("schema") != STREAM_CHECKPOINT_SCHEMA
        ):
            raise CheckpointError(
                f"expected a {STREAM_CHECKPOINT_SCHEMA!r} artifact"
            )
        if checkpoint.get("policy") != self.policy.describe():
            raise CheckpointError(
                f"checkpoint was cut under policy "
                f"{checkpoint.get('policy')!r}; this pipeline runs "
                f"{self.policy.describe()!r}"
            )
        self.detector.load_state(checkpoint["detector_state"])  # type: ignore[arg-type]
        self.policy.load_state_dict(checkpoint["policy_state"])  # type: ignore[arg-type]
        offsets = checkpoint["offsets"]
        self.packets = int(offsets["packets"])  # type: ignore[index]
        self.bytes = int(offsets["bytes"])  # type: ignore[index]
        self.chunk_index = int(offsets["chunk_index"])  # type: ignore[index]
        self.emissions = int(offsets["emissions"])  # type: ignore[index]
        self._interval_packets = int(offsets["interval_packets"])  # type: ignore[index]
        self._interval_bytes = int(offsets["interval_bytes"])  # type: ignore[index]
        self._interval_start_packet = int(
            offsets["interval_start_packet"]  # type: ignore[index]
        )
        t0 = offsets["interval_t0"]  # type: ignore[index]
        self._interval_t0 = None if t0 is None else float(t0)
        last = offsets["last_ts"]  # type: ignore[index]
        self._last_ts = None if last is None else float(last)
        self._interval_wall = 0.0

    def __repr__(self) -> str:
        return (
            f"StreamPipeline(detector={type(self.detector).__name__}, "
            f"policy={self.policy.describe()!r}, phi={self.phi}, "
            f"packets={self.packets}, emissions={self.emissions})"
        )
