"""Span tracing around the program's public layer boundaries.

The benchmark may not change the program, so tracing wraps the public
functions each layer exposes, from the outside, for the length of one
traced round:

=====================  ==================================================
layer                  wrapped calls
=====================  ==================================================
``trace``              ``TraceSpec.build``
``stream.source``      ``StreamSource.chunks`` (each ``next()``; the first
                       ``next()`` of a source re-aimed during a crash
                       recovery is ``stream.source.reseek``)
``stream.pipeline``    ``StreamPipeline.push`` (each resume of the
                       generator), ``checkpoint``, ``restore``
``core.detector``      ``update_batch``/``query``/``reset`` of every
                       detector class outside ``repro.engine``
``engine.sharded``     ``ShardedDetector.update_batch``
``engine.partition``   ``partition_batch``, ``shard_ids`` (every module
                       that imported them)
``engine.runner``      ``ParallelRunner.update_shards``
``engine.serve``       ``ServePool.update``/``query``/``reset``/
                       ``save_tenant``/``load_tenant``/``barrier``/
                       ``respawn_dead``
=====================  ==================================================

Each span records its name, start, end, parent span and the
``(tenant, chunk)`` id of the chunk being pushed when it opened.  A call
into a layer that is already open on the stack (a subclass calling its
base, ``partition_batch`` calling ``shard_ids``) adds no second span, so
self times never count one interval twice.  Spans are recorded in the
main process only: worker processes forked while tracing is on see the
wrappers but record nothing.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

#: Span fields: name, start, end, parent index (-1 for a root), chunk id.
NAME, START, END, PARENT, CID = range(5)


def approx_bytes(obj: object) -> int:
    """Payload size of a checkpoint artifact: bytes, arrays and strings
    by length, other scalars as 8, containers by their contents."""
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, str):
        return len(obj.encode())
    if isinstance(obj, dict):
        return sum(approx_bytes(k) + approx_bytes(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return sum(approx_bytes(item) for item in obj)
    return 8


class Patches:
    """Attribute replacements that can all be undone, newest first."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, wrapper: Callable) -> None:
        original = owner.__dict__[attr]
        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        #: ``(tenant, chunk)`` of the chunk currently being pushed.
        self.cid: tuple | None = None
        #: Set between a worker respawn and the next scheduler turn: chunk
        #: iterators created then belong to re-aimed sources.
        self.recovering = False
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self.patches = Patches()
        self._tenants: dict[int, str] = {}
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.active = False

    # -- recording ------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.cid])
        index = len(self.spans) - 1
        self._stack.append(index)
        self._depth[name] += 1
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[END] = perf_counter()
        self._stack.pop()
        self._depth[span[NAME]] -= 1

    def recording(self, name: str) -> bool:
        return self.active and not self._depth[name]

    def name_tenant(self, pipeline: object, tenant: str) -> None:
        self._tenants[id(pipeline)] = tenant

    def tenant_of(self, pipeline: object) -> str:
        return self._tenants.get(id(pipeline), "stream")

    def turn(self) -> None:
        """A scheduler turn ended (the runtime is at a chunk boundary)."""
        self.recovering = False

    def timed_iter(
        self,
        gen: Iterator,
        name: str,
        on_item: Callable[[object], None] | None = None,
        first_name: str | None = None,
    ) -> Iterator:
        """Re-yield ``gen``, timing each resume as one ``name`` span."""
        label = first_name or name
        try:
            while True:
                index = self.begin(label) if self.recording(label) else None
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    if index is not None:
                        self.end(index)
                label = name
                if on_item is not None:
                    on_item(item)
                yield item
        finally:
            gen.close()

    # -- summaries ------------------------------------------------------------

    def self_times(self) -> Counter:
        """Per span name: total duration minus what child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        totals: Counter = Counter()
        for span, child in zip(self.spans, covered):
            totals[span[NAME]] += span[END] - span[START] - child
        return totals

    def inclusive_between(self, name: str, t0: float, t1: float) -> float:
        """Total duration of ``name`` spans lying inside ``[t0, t1]``."""
        return sum(
            span[END] - span[START] for span in self.spans
            if span[NAME] == name and span[START] >= t0 and span[END] <= t1
        )

    # -- patching -------------------------------------------------------------

    def _spanned(self, original: Callable, name: str,
                 after: Callable | None = None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording(name):
                return original(*args, **kwargs)
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def wrap(self, owner: type, attr: str, name: str,
             after: Callable | None = None) -> None:
        self.patches.replace(
            owner, attr, self._spanned(owner.__dict__[attr], name, after)
        )

    def wrap_everywhere(self, module, attr: str, name: str) -> None:
        """Wrap a module function in every ``repro`` module bound to it."""
        original = getattr(module, attr)
        wrapper = self._spanned(original, name)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, "__dict__", {}).get(attr) is original):
                self.patches.replace(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer boundary listed in the module docstring."""
        from repro.core.detector import Detector
        from repro.engine import partition
        from repro.engine.runner import ParallelRunner
        from repro.engine.serve import ServePool
        from repro.engine.sharded import ShardedDetector
        from repro.stream.pipeline import StreamPipeline
        from repro.stream.source import StreamSource
        from repro.trace.spec import TraceSpec

        counts = self.counts
        tracer = self

        self.wrap(TraceSpec, "build", "trace.build",
                  lambda args, result: counts.update(["trace.builds"]))

        chunks = StreamSource.__dict__["chunks"]

        def count_chunk(chunk) -> None:
            counts["stream.source.chunks"] += 1

        def chunks_wrapper(source, chunk_size):
            gen = chunks(source, chunk_size)
            if not tracer.active:
                return gen
            first = "stream.source.reseek" if tracer.recovering else None
            return tracer.timed_iter(gen, "stream.source.next",
                                     count_chunk, first)

        self.patches.replace(StreamSource, "chunks", chunks_wrapper)

        push = StreamPipeline.__dict__["push"]

        def count_emission(emission) -> None:
            counts["stream.pipeline.emissions"] += 1
            counts["stream.emission.report_keys"] += len(emission.report)

        def push_wrapper(pipeline, chunk):
            gen = push(pipeline, chunk)
            if not tracer.active:
                return gen
            tracer.cid = (tracer.tenant_of(pipeline), pipeline.chunk_index)
            counts["stream.pipeline.pushes"] += 1
            counts["stream.pipeline.push_packets"] += len(chunk)
            return tracer.timed_iter(gen, "stream.pipeline.push",
                                     count_emission)

        self.patches.replace(StreamPipeline, "push", push_wrapper)

        def count_checkpoint(args, result) -> None:
            counts["stream.pipeline.checkpoints"] += 1
            counts["core.checkpoint.bytes"] += approx_bytes(result)

        self.wrap(StreamPipeline, "checkpoint", "stream.pipeline.checkpoint",
                  count_checkpoint)
        self.wrap(StreamPipeline, "restore", "stream.pipeline.restore")

        def count_packets(args, result) -> None:
            counts["core.detector.packets"] += len(args[1])

        pending, seen = [Detector], set()
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            module = cls.__module__
            if cls in seen or not module.startswith("repro.") or \
                    module.startswith("repro.engine"):
                continue
            seen.add(cls)
            for attr, after in (("update_batch", count_packets),
                                ("query", None), ("reset", None)):
                if attr in cls.__dict__:
                    self.wrap(cls, attr, f"core.detector.{attr}", after)

        self.wrap(ShardedDetector, "update_batch",
                  "engine.sharded.update_batch")
        self.wrap_everywhere(partition, "partition_batch",
                             "engine.partition.partition")
        self.wrap_everywhere(partition, "shard_ids",
                             "engine.partition.partition")
        self.wrap(ParallelRunner, "update_shards", "engine.runner.fanout")

        def count_sync(args, result) -> None:
            counts["engine.serve.syncs"] += 1
            counts["engine.serve.replies"] += args[0].num_workers

        def count_respawn(args, result) -> None:
            counts["engine.serve.crashes"] += len(result)
            tracer.recovering = True

        self.wrap(ServePool, "update", "engine.serve.update",
                  lambda args, result: counts.update(["engine.serve.updates"]))
        for attr, name in (("query", "query"), ("reset", "reset"),
                           ("save_tenant", "save"), ("load_tenant", "load"),
                           ("barrier", "barrier")):
            self.wrap(ServePool, attr, f"engine.serve.{name}", count_sync)
        self.wrap(ServePool, "respawn_dead", "engine.serve.respawn",
                  count_respawn)

    def uninstall(self) -> None:
        self.patches.undo()
