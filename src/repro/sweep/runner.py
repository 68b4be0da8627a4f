"""Cell execution on the serial/process backends.

:class:`SweepRunner` generalizes the sharded engine's execution model from
per-shard updates to whole experiment cells: every expanded
:class:`~repro.sweep.spec.SweepCell` is one independent
``run_experiment`` call (the same spec-to-artifact path the CLI's ``run``
uses, so a cell's rows byte-match the standalone run), fanned out through
:meth:`repro.engine.ParallelRunner.map_tasks`.

Cells ship back as decoded ``experiment-result/v1`` documents rather than
live :class:`ExperimentResult` objects (``extras`` never cross the
boundary), and a cell that fails with a ``ValueError`` — bad parameter
values, unknown scenario names, run-time cross-parameter checks — is
recorded per cell (``status``/``error``) instead of killing the sweep.
Anything else (a genuine bug, a dead pool worker) still propagates: a
crash should be loud, not a quiet ``status=error`` row.  For deterministic experiments the two backends are
bit-identical cell for cell; the one deliberate exception is
execution-context *observability* — ``trace-stats`` surfaces the
process-global trace-cache hit/miss counters in its headline, and those
depend on which cells shared a process.  Trace memoization composes for
free: the serial backend hits one in-process
:class:`~repro.trace.TraceSpec` LRU across all cells, and each pool
worker keeps its own (clearing the cache per cell would make the
counters deterministic at the price of rebuilding every shared trace,
which is exactly what the sweep engine exists to avoid).
"""

from __future__ import annotations

import time

from repro.engine.runner import ParallelRunner
from repro.sweep.result import CellOutcome, SweepResult
from repro.sweep.spec import SweepCell, SweepError, SweepSpec


def _execute_cell(payload: tuple[SweepCell, bool]) -> dict[str, object]:
    """Worker task: run one cell, returning a serializable outcome dict.

    ``ValueError`` (bad parameter values, run-time cross-parameter checks)
    is captured as a per-cell error; anything else is a bug and propagates.
    """
    from repro.experiments.runner import run_experiment

    cell, smoke = payload
    t0 = time.perf_counter()
    try:
        result = run_experiment(
            cell.experiment,
            trace_specs=[cell.trace] if cell.trace is not None else None,
            overrides=dict(cell.params),
            smoke=smoke,
        )
        document, status, error = result.to_dict(), "ok", None
    except ValueError as exc:
        document, status, error = None, "error", str(exc)
    return {
        "index": cell.index,
        "experiment": cell.experiment,
        "trace": cell.trace,
        "params": dict(cell.params),
        "status": status,
        "wall_s": round(time.perf_counter() - t0, 3),
        "error": error,
        "result": document,
    }


class SweepRunner:
    """Expands a :class:`SweepSpec` and executes its cells.

    Parameters mirror :class:`repro.engine.ParallelRunner`: ``backend`` is
    ``"serial"`` (in-process loop, the default) or ``"process"`` (a
    persistent pool shipping whole cells to workers), ``workers`` sizes the
    pool.
    """

    def __init__(self, backend: str = "serial", workers: int | None = None
                 ) -> None:
        self.runner = ParallelRunner(backend, workers)

    @property
    def backend(self) -> str:
        return self.runner.backend

    @property
    def workers(self) -> int:
        return self.runner.workers if self.runner.backend == "process" else 1

    def run(self, spec: SweepSpec | str, smoke: bool = False) -> SweepResult:
        """Expand ``spec`` (a :class:`SweepSpec` or grid string) and run
        every cell, returning the aggregated artifact."""
        if isinstance(spec, str):
            spec = SweepSpec.parse(spec)
        cells = spec.expand()
        if not cells:
            raise SweepError(f"sweep grid {spec.format()!r} expands to no cells")
        t0 = time.perf_counter()
        outcomes = self.runner.map_tasks(
            _execute_cell, [(cell, smoke) for cell in cells]
        )
        total_s = time.perf_counter() - t0
        return SweepResult(
            grid=spec.format(),
            mode=spec.mode,
            backend=self.backend,
            workers=self.workers,
            cells=[CellOutcome.from_dict(o) for o in outcomes],
            timings={
                "total_s": round(total_s, 3),
                "cells_per_s": round(len(cells) / max(total_s, 1e-9), 3),
            },
        )

    def close(self) -> None:
        """Shut the worker pool down (no-op for the serial backend)."""
        self.runner.close()

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"SweepRunner(backend={self.backend!r}, workers={self.workers})"


def run_sweep(
    grid: str,
    backend: str = "serial",
    workers: int | None = None,
    smoke: bool = False,
) -> SweepResult:
    """String-to-artifact convenience: parse, expand, execute, aggregate."""
    with SweepRunner(backend, workers) as runner:
        return runner.run(grid, smoke=smoke)
