"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-live --seed 1 --seconds 12 \\
        --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it name every metric with its unit and sample count,
the inputs, and the machine.  The exit code is 0 only when every
emission matched its serial reference and nothing leaked.

The command re-executes itself in a new process group and waits for it.
Should the measurement overrun its deadline, or the command be stopped,
the whole group is killed, so no worker process the program started can
outlive the benchmark; it also waits until every member of the group has
exited.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.measure import SHM_DIR, shm_segments  # noqa: E402

#: The measuring process is killed if it runs longer than this.
DEADLINE_S = 170.0
#: How long stragglers of the process group get to exit on their own.
REAP_S = 10.0
WORKLOADS = ("serve-live", "serve-crash", "stream-evict", "stream-sharded")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--in-group", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


# -- the launcher ----------------------------------------------------------------

def _group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _become_subreaper() -> None:
    """Adopt orphaned descendants, so their exit status is collected here
    rather than left as zombies."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def _reap_children() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _reap_group(pgid: int) -> None:
    """Wait for the group to empty; kill whatever is left after REAP_S."""
    deadline = time.monotonic() + REAP_S
    while True:
        _reap_children()
        if not _group_members(pgid):
            return
        if time.monotonic() > deadline:
            print(f"perfbench: killing leftover processes "
                  f"{_group_members(pgid)}", file=sys.stderr)
            _kill_group(pgid)
            deadline = time.monotonic() + REAP_S
        time.sleep(0.05)


def _sweep_shm(before: set[str]) -> None:
    """Unlink shared-memory blocks the run created and could not release
    (a killed owner never unlinks)."""
    for name in sorted(shm_segments() - before):
        print(f"perfbench: removing leaked /dev/shm/{name}", file=sys.stderr)
        (SHM_DIR / name).unlink(missing_ok=True)


def launch(argv: list[str]) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
              "run from a repository checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    _become_subreaper()
    shm_before = shm_segments()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *argv, "--in-group"],
        cwd=ROOT, env=env, start_new_session=True,
    )

    def stop(signum, frame):
        _kill_group(child.pid)
        child.wait()
        _reap_group(child.pid)
        _sweep_shm(shm_before)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = child.wait(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {DEADLINE_S:.0f}s; killing the "
              "process group", file=sys.stderr)
        _kill_group(child.pid)
        child.wait()
        code = 124
    _reap_group(child.pid)
    _sweep_shm(shm_before)
    return code


# -- the measuring process -----------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.6g}" if abs(value) < 1e6 else f"{value:,.0f}"


def measure(args: argparse.Namespace) -> int:
    from perfbench import metrics
    from perfbench.measure import (
        lateness_grows, machine_tag, median, percentile,
    )
    from perfbench.spans import Tracer
    from perfbench.workloads import WORKLOADS as BY_NAME, run_workload

    workload = BY_NAME[args.workload](args.seed, args.seconds)
    tracer = Tracer() if args.trace else None
    outcome = run_workload(workload, tracer)
    measured = [r for r in outcome.rounds if not r.traced and r.wall_s > 0]
    traced = [r for r in outcome.rounds if r.traced and r.wall_s > 0]

    out = print
    out(f"perfbench {workload.name}  seed={args.seed}  "
        f"seconds={args.seconds}  trace={args.trace}")
    out(f"  why: {workload.why}")
    provenance = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "rounds": [r.key for r in outcome.rounds if not r.traced],
        "job": workload.job(),
        "machine": machine_tag(ROOT),
        "latency_samples": sum(len(r.latency_s) for r in measured),
    }
    e2e, notes = metrics.end_to_end(measured, workload.repeated)
    out("  end to end (untraced rounds):")
    for metric in metrics.END_TO_END:
        out(f"    {metric.name:<24} {_fmt(e2e[metric.name]):>14} "
            f"{metric.unit:<10} ({notes[metric.name]})")
    for name, values in metrics.per_round(measured).items():
        out(f"      rounds: {name:<16} "
            + " ".join(_fmt(v) for v in values))
    expected, failed = outcome.expected, outcome.failed
    out(f"    {'failed_frac':<24} "
        f"{_fmt(failed / expected if expected else 1.0):>14} "
        f"{'fraction':<10} ({failed} of {expected} expected emissions)")

    if workload.name == "serve-crash":
        catchup = [s for r in measured for s in r.catchup_s]
        recover = [s for r in measured for s in r.recover_s]
        out(f"    {'recovery_catchup_s':<24} "
            f"{_fmt(median(catchup) if catchup else 0.0):>14} {'s':<10} "
            f"(median of {len(catchup)} catch-ups, "
            f"{sum(r.kills for r in measured)} kills)")
        out(f"    {'runtime recoveries[].s':<24} "
            f"{_fmt(median(recover) if recover else 0.0):>14} {'s':<10} "
            f"(median of {len(recover)}; respawn and restore only)")
        provenance["catchup_samples"] = len(catchup)
    if workload.open_loop:
        lateness = [s for r in measured for s in r.lateness_s]
        grew = [i for i, r in enumerate(measured)
                if lateness_grows(r.lateness_s, workload.period / 4)]
        verdict = (f"INVALID: backlog grew in rounds {grew}" if grew
                   else "steady")
        out(f"    {'generator lateness p99':<24} "
            f"{_fmt(percentile(lateness, 99) * 1e3 if lateness else 0):>14} "
            f"{'ms':<10} (n={len(lateness)} releases; {verdict})")
        provenance["offered_pps"] = workload.job()["offered_pps"]
        provenance["generator_valid"] = not grew

    if tracer is not None:
        layer = metrics.per_layer(traced, measured, tracer,
                                  workload.open_loop)
        out("  per layer (traced rounds; expected to move):")
        for metric in metrics.PER_LAYER:
            out(f"    {metric.name:<34} {_fmt(layer[metric.name]):>12} "
                f"{metric.unit:<8} {metric.note}")
        values = {m.name: (layer[m.name], m.unit) for m in metrics.PER_LAYER}
    else:
        values = {m.name: (e2e[m.name], m.unit) for m in metrics.END_TO_END}

    out("  leaks: " + ("; ".join(outcome.leaks) or "none"))
    for problem in outcome.problems:
        out(f"  problem: {problem}")
    out("provenance: " + json.dumps(provenance, sort_keys=True))
    out(json.dumps({
        "correct": outcome.correct,
        "attempted": max(1, expected),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    sys.stdout.flush()
    return 0 if outcome.correct else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if args.in_group:
        return measure(args)
    return launch(argv)


if __name__ == "__main__":
    sys.exit(main())
