"""Measurement logic of the benchmark, kept free of workload wiring.

Everything here is plain bookkeeping over numbers, emissions and the
operating system's process tables, so ``perfbench/test_perfbench.py`` can
check it in isolation:

- percentiles, the tail rule (the highest percentile that leaves at
  least ten samples beyond it) and the best of repeated rounds;
- which chunk closed an emission's interval (the due time of that chunk
  is where an open-loop emission latency starts);
- crash catch-up timing from scripted packet offsets;
- emission comparison against a serial reference;
- the leak check (live child processes, surviving shared-memory blocks);
- resident memory of the workload's processes and the machine tag.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import platform
from multiprocessing import shared_memory
from pathlib import Path
from typing import Sequence

#: Samples a reported percentile must leave beyond it.
TAIL_SAMPLES = 10

SHM_DIR = Path("/dev/shm")


# -- percentiles ----------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def best(values: Sequence[float], better: str) -> float:
    """The best of ``values``: the lowest, or with ``better="higher"`` the
    highest.

    Applied to rounds that repeat the same inputs, which differ only by
    the machine: load from other tenants of a shared host comes in phases
    of seconds that slow whole rounds, so the best round measures the
    program, which a change to it moves all the same.
    """
    if not values:
        raise ValueError("best of no samples")
    return max(values) if better == "higher" else min(values)


def tail_quantile(n: int) -> float | None:
    """The highest percentile, capped at 99, with ``TAIL_SAMPLES`` beyond it.

    1000 samples support p99; 100 support p90; fewer than 20 support no
    tail beyond the median.
    """
    if n < 2 * TAIL_SAMPLES:
        return None
    return min(99.0, 100.0 * (1.0 - TAIL_SAMPLES / n))


# -- emissions -----------------------------------------------------------------

def closing_chunk(end_packet: int, chunk_size: int, partial: bool) -> int | None:
    """Index of the chunk that delivered the packet at offset ``end_packet``.

    An emission covers packets ``[start_packet, end_packet)``; the packet
    at ``end_packet`` is the first one past the boundary, and the chunk
    carrying it is the one whose arrival closed the interval.  When
    ``end_packet`` falls exactly on a chunk edge that is the *next* chunk
    (the boundary is only seen when that chunk arrives).  A partial
    end-of-stream flush is closed by no chunk and yields ``None``.
    """
    if partial:
        return None
    if chunk_size < 1 or end_packet < 0:
        raise ValueError(f"bad offsets: end_packet={end_packet}, "
                         f"chunk_size={chunk_size}")
    return end_packet // chunk_size


def emission_record(emission) -> tuple:
    """Everything an emission promises, in a comparable form.

    The report is kept as an item sequence, so report order counts.  The
    wall-clock fields are left out.
    """
    return (
        int(emission.index),
        float(emission.window.t0),
        float(emission.window.t1),
        tuple((int(k), float(v)) for k, v in emission.report.items()),
        int(emission.packets),
        int(emission.bytes),
        int(emission.start_packet),
        int(emission.end_packet),
        bool(emission.partial),
    )


def _close(a: float, b: float, rel: float, abs_: float) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


def records_match(got: tuple, want: tuple, rel: float | None) -> bool:
    """Exact match, or with ``rel`` set, report values within tolerance
    (same key set; offsets and windows still exact)."""
    if rel is None:
        return got == want
    if got[:3] != want[:3] or got[4:] != want[4:]:
        return False
    got_report, want_report = dict(got[3]), dict(want[3])
    if set(got_report) != set(want_report):
        return False
    return all(
        _close(got_report[k], v, rel, rel) for k, v in want_report.items()
    )


def count_failed(
    got: Sequence[tuple], want: Sequence[tuple], rel: float | None = None
) -> int:
    """Failed emissions of one stream against its reference.

    An expected emission fails when it is missing, delivered more than
    once, or differs; an unexpected extra emission also counts.  The
    count is capped at the number expected, so it reads as a share of it.
    """
    by_index: dict[int, list[tuple]] = {}
    for record in got:
        by_index.setdefault(record[0], []).append(record)
    failed = 0
    for record in want:
        seen = by_index.pop(record[0], [])
        if len(seen) != 1 or not records_match(seen[0], record, rel):
            failed += 1
    failed += sum(len(extra) for extra in by_index.values())
    return min(failed, len(want))


# -- crash catch-up --------------------------------------------------------------

class CatchupTracker:
    """Times how long each injected crash sets the tenants back.

    A sample starts at the kill and ends at the first scheduler turn at
    which (a) the runtime has completed a recovery since the kill and (b)
    every tenant's packet offset is back at its pre-kill value.  Condition
    (a) keeps a turn that ran before the crash was even noticed from
    counting as caught up.  A kill while another catch-up is pending
    replaces it, so that one yields no sample.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._pending: tuple[float, dict[str, int], int] | None = None

    @property
    def pending(self) -> bool:
        return self._pending is not None

    def killed(self, now: float, offsets: dict[str, int],
               recoveries: int) -> None:
        self._pending = (now, dict(offsets), recoveries)

    def turn(self, now: float, offsets: dict[str, int],
             recoveries: int) -> float | None:
        """Feed one turn; returns the finished sample, if this turn ends one."""
        if self._pending is None:
            return None
        started, before, recoveries_at_kill = self._pending
        if recoveries <= recoveries_at_kill:
            return None
        if any(offsets.get(name, -1) < need for name, need in before.items()):
            return None
        self._pending = None
        sample = now - started
        self.samples.append(sample)
        return sample


# -- generator lateness ------------------------------------------------------------

def lateness_grows(lateness: Sequence[float], slack: float) -> bool:
    """Whether release lateness rises across a paced run (a backlog).

    Compares the median lateness of the last quarter of releases with the
    first quarter; a rise of more than ``slack`` seconds means the system
    fell behind the offered rate.
    """
    if len(lateness) < 8:
        return False
    quarter = len(lateness) // 4
    return median(lateness[-quarter:]) - median(lateness[:quarter]) > slack


# -- leaks ----------------------------------------------------------------------

def shm_segments() -> set[str]:
    """Names of the POSIX shared-memory blocks currently in /dev/shm."""
    try:
        return {entry.name for entry in SHM_DIR.iterdir()}
    except OSError:
        return set()


class LeakCheck:
    """Finds processes and shared-memory blocks a workload left behind.

    Create it before the workload; :meth:`check` afterwards lists every
    live child process and every shared-memory block that did not exist
    at creation, then kills and unlinks them so nothing survives the
    benchmark even when the workload leaked.
    """

    def __init__(self) -> None:
        self.before = shm_segments()
        self.children = {p.pid for p in multiprocessing.active_children()}

    def check(self) -> list[str]:
        problems = []
        for child in multiprocessing.active_children():
            if child.pid in self.children:
                continue
            problems.append(f"child process {child.name} (pid {child.pid}) "
                            "still alive")
            child.kill()
            child.join(5)
        for name in sorted(shm_segments() - self.before):
            problems.append(f"shared-memory block /dev/shm/{name} survived")
            try:
                block = shared_memory.SharedMemory(name=name)
                block.close()
                block.unlink()
            except OSError:
                pass
        return problems


# -- memory ---------------------------------------------------------------------

def _status_kb(pid: int | str, field: str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def _private_kb(pid: int) -> int:
    """Memory only this process holds (pages shared with its parent since
    the fork are left to the parent)."""
    try:
        total = 0
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    total += int(line.split()[1])
        return total
    except OSError:
        return _status_kb(pid, "VmRSS")


def workload_memory_mb() -> float:
    """Peak resident memory of this process plus the private resident
    memory of its live worker processes, in MB (2**20 bytes)."""
    kb = _status_kb("self", "VmHWM")
    for child in multiprocessing.active_children():
        try:
            kb += _private_kb(child.pid)
        except OSError:
            pass  # exited between listing and reading
    return kb / 1024.0


# -- provenance -------------------------------------------------------------------

def _git_rev(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = root / ".git" / text[5:]
            if ref.exists():
                return ref.read_text().strip()[:12]
            packed = root / ".git" / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(" " + text[5:]):
                    return line.split()[0][:12]
            return "unknown"
        return text[:12]
    except OSError:
        return "not a git checkout"


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files (identifies the code even
    in a checkout without git metadata)."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine_tag(root: Path) -> dict[str, object]:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": _git_rev(root),
        "src_sha256": source_digest(root),
    }
