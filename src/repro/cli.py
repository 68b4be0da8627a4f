"""Command-line interface.

The experiment layer is registry-driven: any registered experiment runs on
any string-addressable trace and emits the uniform JSON result artifact::

    repro-hhh run <experiment> [--trace SPEC ...] [--set key=value ...]
                  [--json FILE] [--smoke]
    repro-hhh experiments [--names]               # experiment registry
    repro-hhh scenarios                           # trace-scenario registry
    repro-hhh detectors                           # detector registry

The sweep engine fans a grid of (experiment x trace x detector x params)
cells out across cores and aggregates one comparative artifact::

    repro-hhh sweep --grid "exp=...;trace=...;detector=a,b;phi=0.01,0.001"
              [--workers N] [--backend serial|process]
              [--group-by COLS] [--best METRIC] [--json FILE]

The streaming runtime has its own online driver — emissions print as they
happen, and the pipeline can checkpoint at end of run and resume later::

    repro-hhh stream <detector> --source SPEC [--chunk N]
              [--emit-every Np|Ts] [--max-packets N]
              [--checkpoint FILE] [--resume FILE --fast-forward]

The serve runtime multiplexes many tenant streams over one pool of
persistent shard-worker processes (zero-copy shared-memory chunk
handoff, per-tenant checkpoints as the migration unit)::

    repro-hhh serve --tenant a=SPEC --tenant b=SPEC [--workers N]
              [--shards S] [--checkpoint-dir DIR]
              [--resume-dir DIR --fast-forward]

The equivalence fuzz harness samples promised-equivalent plan pairs
(chunking, sharding, checkpoint/resume, serve-vs-serial, merge-order,
serve tenant churn, serve worker crash), runs both sides through the
real stack, and shrinks any divergence to a minimal replayable
artifact::

    repro-hhh fuzz [--budget-s S] [--seed N] [--pairs N]
              [--detector NAME ...] [--axis AXIS ...]
              [--cases-dir DIR] [--replay FILE] [--json FILE]

The paper's artefacts keep short aliases; each one rewrites its flags
into the equivalent ``run`` command line and executes that, so its output
is ``run``'s (``_ALIASES`` below)::

    repro-hhh stats     [--day N] [--duration S]      # run trace-stats
    repro-hhh fig2      [--duration S] [--days N] [--mode unique|occurrences]
    repro-hhh fig3      [--duration S] [--phi P] [--plot]
    repro-hhh sec3      [--duration S] [--window W] [--phi P]
    repro-hhh bench     [--detector NAME ...] [--duration S]
    repro-hhh pcap      --out FILE [--day N] [--duration S]

See EXPERIMENTS.md for the recorded reference outputs of every registered
experiment.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from repro.analysis.render import format_table
from repro.core import detector_names, get_spec
from repro.experiments import (
    ExperimentError,
    ExperimentResult,
    experiment_names,
    get_experiment,
    run_experiment,
)
from repro.fuzz.plan import AXES as _FUZZ_AXES
from repro.packet.pcap import write_pcap
from repro.trace.spec import TraceSpec, TraceSpecError, get_scenario, scenario_names
from repro.experiments.result import TraceProvenance
from repro.experiments.sensitivity import cdf_plot


# -- argparse value types (reject garbage before trace generation) -----------

def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _min1_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _day_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if not 0 <= value <= 3:
        raise argparse.ArgumentTypeError(f"day must be 0..3, got {text}")
    return value


def _phi_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"phi must be in (0, 1], got {text}")
    return value


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _emit_json(result: ExperimentResult, path: str | None) -> None:
    if path:
        result.to_json(path)
        print(f"wrote {path}")


# -- the generic registry-driven path ----------------------------------------

def _parse_set_args(pairs: Sequence[str] | None) -> dict[str, object]:
    overrides: dict[str, object] = {}
    for pair in pairs or ():
        key, eq, value = pair.partition("=")
        if not eq or not key:
            raise ExperimentError(
                f"bad --set {pair!r}; expected key=value"
            )
        overrides[key] = value
    return overrides


def _cmd_run(
    args: argparse.Namespace,
    show: Callable[[ExperimentResult], None] | None = None,
) -> int:
    """Run one experiment; ``show`` prints extra views of the result."""
    try:
        experiment_cls = get_experiment(args.experiment)
        overrides = _parse_set_args(args.set_)
        # --shards / --workers are sugar for --set; binding validates them
        # against the experiment's declared PARAMS like any override.
        for key, value in (("shards", args.shards), ("workers", args.workers)):
            if value is None:
                continue
            if key in overrides:
                raise ExperimentError(
                    f"--{key} conflicts with --set {key}=...; give one"
                )
            overrides[key] = value
        result = run_experiment(
            args.experiment,
            trace_specs=args.trace,
            overrides=overrides,
            labels=args.label,
            smoke=args.smoke,
        )
    except ValueError as exc:
        # ExperimentError/TraceSpecError plus the cross-parameter checks
        # the experiments enforce at run time (all ValueError uses).
        return _fail(str(exc))
    print(f"{experiment_cls.name} — {experiment_cls.description}")
    print()
    print(result.to_table())
    if result.headline:
        print()
        for line in result.headline_lines():
            print(line)
    print()
    print(f"traces: {', '.join(t.spec or t.label for t in result.traces)}")
    print(f"timings: build {result.timings.get('trace_build_s', 0.0):.3f}s, "
          f"run {result.timings.get('run_s', 0.0):.3f}s")
    if show is not None:
        show(result)
    _emit_json(result, args.json_out)
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    if args.names:
        for name in experiment_names():
            print(name)
        return 0
    rows = []
    for name in experiment_names():
        cls = get_experiment(name)
        params = ", ".join(
            f"{p.name}={p.describe_default()}" for p in cls.params()
        )
        rows.append({
            "experiment": name,
            "description": cls.description,
            "default_trace": cls.default_trace,
            "params": params or "-",
        })
    print(format_table(rows))
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    rows = []
    for name in scenario_names():
        spec = get_scenario(name)
        defaults = ", ".join(
            f"{k}={v}" for k, v in spec.defaults().items()
        )
        rows.append({
            "scenario": name,
            "description": spec.description,
            "example": spec.example,
            "defaults": defaults or "-",
        })
    print(format_table(rows))
    return 0


def _cmd_detectors(args: argparse.Namespace) -> int:
    rows = []
    for name in detector_names():
        spec = get_spec(name)
        rows.append({
            "name": name,
            "timestamped": "yes" if spec.timestamped else "no",
            "enumerable": "yes" if spec.enumerable else "no",
            "mergeable": "yes" if spec.mergeable else "no",
            "description": spec.description,
        })
    print(format_table(rows))
    return 0


# -- the sweep engine (parallel parameter grids) ------------------------------

def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import SweepError, SweepRunner, SweepSpec

    if args.backend == "serial" and (args.workers or 1) > 1:
        return _fail(
            f"--workers {args.workers} needs the process backend; drop "
            "--backend serial or use --backend process"
        )
    backend = args.backend or (
        "process" if (args.workers or 1) > 1 else "serial"
    )
    try:
        spec = SweepSpec.parse(args.grid)
        # workers=None lets the process backend default to the machine's
        # CPU count (`--backend process` alone means "use the cores").
        with SweepRunner(backend, args.workers) as runner:
            result = runner.run(spec)
    except ValueError as exc:
        # Nothing ran: bad grid grammar or unknown experiment / axis /
        # detector names.  SweepError / ExperimentError — all ValueError
        # uses.
        return _fail(str(exc))
    # The sweep completed; from here on a rendering/selection error
    # (--group-by or --best typo) must not discard the run — the flat
    # table, per-cell diagnostics, and the --json artifact still emit.
    view_error: SweepError | None = None
    try:
        group_by = (
            [c.strip() for c in args.group_by.split(",") if c.strip()]
            if args.group_by else None
        )
        table = result.to_table(group_by)
    except SweepError as exc:
        view_error = exc
        table = result.to_table()
    print(f"sweep — {result.num_cells} cells "
          f"({result.mode} expansion, {result.backend} backend, "
          f"{result.workers} worker{'s' if result.workers != 1 else ''})")
    print()
    print(table)
    print()
    if args.best:
        try:
            best = result.best_cell(args.best)
            print(f"best cell by {args.best}: #{best.index} {best.label()} "
                  f"({args.best}={best.headline[args.best]})")
        except SweepError as exc:
            view_error = view_error or exc
    print(f"cells: {result.num_ok} ok, {result.num_errors} failed; "
          f"total {result.timings.get('total_s', 0.0):.3f}s "
          f"({result.timings.get('cells_per_s', 0.0):.2f} cells/s)")
    for cell in result.cells:
        if cell.status != "ok":
            print(f"cell {cell.index} [{cell.label()}] failed: {cell.error}",
                  file=sys.stderr)
    if args.json_out:
        result.to_json(args.json_out)
        print(f"wrote {args.json_out}")
    if result.num_errors:
        if view_error is not None:
            print(f"error: {view_error}", file=sys.stderr)
        return 1
    if view_error is not None:
        return _fail(str(view_error))
    return 0


# -- the streaming runtime (online emissions, checkpoint/resume) -------------

def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.core import get_enumerable_spec, read_checkpoint, write_checkpoint
    from repro.stream import (
        STREAM_CHECKPOINT_SCHEMA,
        StreamPipeline,
        build_stream_detector,
        emission_rows,
        parse_emission_policy,
        parse_stream_spec,
        report_churn,
        skip_packets,
    )

    if args.fast_forward and not args.resume:
        return _fail("--fast-forward needs --resume FILE")
    try:
        spec = get_enumerable_spec(args.detector)
        source = parse_stream_spec(args.source)
        policy = parse_emission_policy(args.emit_every)
    except ValueError as exc:
        return _fail(str(exc))

    detector, runner = build_stream_detector(
        spec, shards=args.shards, workers=args.workers or 1
    )
    pipeline = StreamPipeline(
        detector, policy,
        phi=args.phi, key=args.key, timestamped=spec.timestamped,
        reset_on_emit=not args.no_reset,
        # A checkpointed run must stop with the open interval intact: the
        # trailing partial flush would insert a spurious boundary and
        # reset the detector, breaking bit-identical resume.
        emit_partial=not args.checkpoint,
    )
    if args.resume:
        try:
            pipeline.restore(
                read_checkpoint(args.resume, STREAM_CHECKPOINT_SCHEMA)
            )
        except (OSError, ValueError) as exc:
            return _fail(f"cannot resume from {args.resume}: {exc}")
        print(f"resumed at packet {pipeline.packets} "
              f"(emission {pipeline.emissions}) from {args.resume}")
        if args.fast_forward:
            source = skip_packets(source, pipeline.packets)

    emissions = []
    previous: dict[int, float] = {}
    try:
        # Online: each emission prints the moment its boundary is crossed,
        # while the stream keeps flowing.
        for emission in pipeline.process(
            source, args.chunk, max_packets=args.max_packets
        ):
            stats = report_churn(previous, emission.report)
            previous = emission.report
            flag = " partial" if emission.partial else ""
            print(
                f"emit {emission.index:>4}  "
                f"[{emission.window.t0:10.3f}, {emission.window.t1:10.3f})  "
                f"pkts {emission.packets:>8}  report {len(emission.report):>4}  "
                f"+{stats.entries:<3} -{stats.exits:<3} "
                f"jaccard {stats.jaccard:4.2f}  "
                f"{int(emission.pps):>8} pps{flag}"
            )
            emissions.append(emission)
    finally:
        if runner is not None:
            runner.close()

    print()
    print(
        f"stream: {pipeline.packets} packets, {pipeline.bytes} bytes, "
        f"{pipeline.chunk_index} chunks, {pipeline.emissions} emissions"
    )
    if args.checkpoint:
        write_checkpoint(args.checkpoint, pipeline.checkpoint())
        print(f"checkpoint -> {args.checkpoint}")
    if args.json_out:
        result = ExperimentResult(
            experiment="stream",
            params={
                "detector": args.detector, "source": args.source,
                "chunk": args.chunk, "emit": args.emit_every,
                "phi": args.phi, "key": args.key,
                "max_packets": args.max_packets, "shards": args.shards,
                "workers": args.workers or 1,
            },
            rows=emission_rows(emissions),
            traces=[
                TraceProvenance(
                    label="stream",
                    num_packets=pipeline.packets,
                    duration_s=round(
                        emissions[-1].window.t1 - emissions[0].window.t0, 3
                    ) if emissions else 0.0,
                    total_bytes=pipeline.bytes,
                    spec=args.source,
                )
            ],
            headline={"num_emissions": pipeline.emissions},
        )
        _emit_json(result, args.json_out)
    return 0


# -- the serve runtime (multi-tenant persistent shard workers) ----------------

def _cmd_serve(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.core import read_checkpoint, write_checkpoint
    from repro.engine.serve import ServeError
    from repro.stream import STREAM_CHECKPOINT_SCHEMA, ServeRuntime
    from repro.stream.churn import serve_row

    if args.fast_forward and not args.resume_dir:
        return _fail("--fast-forward needs --resume-dir DIR")
    tenants: list[tuple[str, str]] = []
    for pair in args.tenant:
        name, eq, spec = pair.partition("=")
        if not eq or not name or not spec:
            return _fail(f"bad --tenant {pair!r}; expected NAME=STREAM_SPEC")
        if any(existing == name for existing, _ in tenants):
            return _fail(f"duplicate tenant name {name!r}")
        tenants.append((name, spec))

    resumes: dict[str, dict] = {}
    if args.resume_dir:
        for name, _ in tenants:
            path = Path(args.resume_dir) / f"{name}.ckpt"
            if path.exists():
                try:
                    resumes[name] = read_checkpoint(
                        path, STREAM_CHECKPOINT_SCHEMA
                    )
                except (OSError, ValueError) as exc:
                    return _fail(f"cannot resume {name!r} from {path}: {exc}")

    rows: list[dict[str, object]] = []
    try:
        with ServeRuntime(
            workers=args.workers,
            shards=args.shards,
            chunk_size=args.chunk,
            recover=args.recover,
        ) as runtime:
            for name, spec in tenants:
                runtime.add_tenant(
                    name,
                    args.detector,
                    spec,
                    emit=args.emit_every,
                    phi=args.phi,
                    key=args.key,
                    reset_on_emit=not args.no_reset,
                    # Checkpointed runs keep the open interval intact so a
                    # resumed run continues bit-identically (same contract
                    # as `repro-hhh stream --checkpoint`).
                    emit_partial=not args.checkpoint_dir,
                    max_packets=args.max_packets,
                    resume=resumes.get(name),
                    fast_forward=args.fast_forward,
                    checkpoint_every=args.checkpoint_every,
                )
                if name in resumes:
                    pipeline = runtime.pipeline(name)
                    print(f"{name}: resumed at packet {pipeline.packets} "
                          f"(emission {pipeline.emissions})")
            for name, emission in runtime.run():
                flag = " partial" if emission.partial else ""
                print(
                    f"{name:<10} emit {emission.index:>4}  "
                    f"[{emission.window.t0:10.3f}, "
                    f"{emission.window.t1:10.3f})  "
                    f"pkts {emission.packets:>8}  "
                    f"report {len(emission.report):>4}{flag}"
                )
                rows.append(serve_row(name, emission))
            print()
            total_packets = 0
            total_bytes = 0
            total_emissions = 0
            for name, _ in tenants:
                if name in runtime.failed:
                    continue
                pipeline = runtime.pipeline(name)
                total_packets += pipeline.packets
                total_bytes += pipeline.bytes
                total_emissions += pipeline.emissions
                print(f"{name}: {pipeline.packets} packets, "
                      f"{pipeline.bytes} bytes, "
                      f"{pipeline.emissions} emissions")
                if args.checkpoint_dir:
                    directory = Path(args.checkpoint_dir)
                    directory.mkdir(parents=True, exist_ok=True)
                    path = directory / f"{name}.ckpt"
                    write_checkpoint(path, runtime.checkpoint_tenant(name))
                    print(f"{name}: checkpoint -> {path}")
            failed = dict(runtime.failed)
            recoveries = len(runtime.recoveries)
            if recoveries:
                print(f"recovered {recoveries} worker crash(es)")
    except (ValueError, ServeError) as exc:
        # TraceSpecError, bad emission policies, and ServeError (a
        # RuntimeError: bad pool shape, unknown/non-enumerable detectors)
        # — the registration-time failures before any tenant streams.
        return _fail(str(exc))

    for name, message in failed.items():
        print(f"{name}: FAILED — {message}", file=sys.stderr)
    if args.json_out:
        result = ExperimentResult(
            experiment="serve",
            params={
                "detector": args.detector,
                "tenants": [f"{n}={s}" for n, s in tenants],
                "workers": args.workers, "shards": args.shards,
                "chunk": args.chunk, "emit": args.emit_every,
                "phi": args.phi, "key": args.key,
                "max_packets": args.max_packets,
            },
            rows=rows,
            traces=[
                TraceProvenance(
                    label=name, num_packets=0, duration_s=0.0,
                    total_bytes=0, spec=spec,
                )
                for name, spec in tenants
            ],
            headline={
                "tenants": len(tenants),
                "failed": len(failed),
                "recoveries": recoveries,
                "num_emissions": total_emissions,
                "stream_packets": total_packets,
                "stream_bytes": total_bytes,
            },
        )
        _emit_json(result, args.json_out)
    return 1 if failed else 0


# -- the equivalence fuzz harness ---------------------------------------------

def _cmd_fuzz(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.fuzz import (
        FuzzError,
        FuzzHarness,
        case_filename,
        read_case,
        replay_case,
        write_case,
    )

    if args.replay:
        try:
            case = read_case(args.replay)
        except (OSError, ValueError) as exc:
            return _fail(f"cannot read fuzz case {args.replay}: {exc}")
        print(f"replaying {case.describe()}")
        try:
            divergence = replay_case(case)
        except (FuzzError, ValueError, RuntimeError) as exc:
            return _fail(f"replay failed to execute: {exc}")
        if divergence is None:
            print("no divergence: the recorded case no longer reproduces")
            return 1
        print(f"reproduced: {divergence}")
        return 0

    def on_pair(index, pair, divergence):
        if divergence is not None:
            print(f"pair {index:>4}  {pair.describe()}  DIVERGED: "
                  f"{divergence.kind}")
        elif args.verbose:
            print(f"pair {index:>4}  {pair.describe()}  ok")

    try:
        harness = FuzzHarness(
            seed=args.seed,
            budget_s=args.budget_s,
            max_pairs=args.pairs,
            detectors=args.detector or None,
            axes=args.axis or None,
            shrink=not args.no_shrink,
            on_pair=on_pair,
        )
        report = harness.run()
    except (FuzzError, KeyError) as exc:
        return _fail(str(exc))

    print()
    print(format_table(report.rows()))
    print()
    head = report.headline()
    print(
        f"fuzz: seed {head['seed']}, {head['pairs']} pairs in "
        f"{head['elapsed_s']}s ({head['pairs_per_s']}/s), "
        f"{len(report.axes_covered)} axes x "
        f"{len(report.detectors_covered)} detectors, "
        f"{head['divergences']} divergences, {head['errors']} errors"
    )
    for error in report.errors:
        print(f"  error: {error}")
    for case in report.cases:
        print(f"  case: {case.describe()}")

    if args.cases_dir and report.cases:
        for case in report.cases:
            path = Path(args.cases_dir) / case_filename(case)
            write_case(case, path)
            print(f"wrote {path}")
    if args.json_out:
        headline = dict(head)
        if report.cases:
            headline["cases"] = [case.to_dict() for case in report.cases]
        result = ExperimentResult(
            experiment="fuzz",
            params={
                "budget_s": args.budget_s, "seed": args.seed,
                "pairs": args.pairs,
                "detectors": ",".join(args.detector or ()),
                "axes": ",".join(args.axis or ()),
                "shrink": not args.no_shrink,
            },
            rows=report.rows(),
            headline=headline,
        )
        _emit_json(result, args.json_out)
    return 1 if report.divergences else 0


# -- paper-artefact aliases (argv rewrites onto `run`) ------------------------

def _fig2_argv(args: argparse.Namespace) -> list[str]:
    argv = ["hidden-hhh", "--set", f"mode={args.mode}"]
    for day in range(args.days):
        argv += ["--trace", f"caida:day={day},duration={args.duration}",
                 "--label", f"day{day}"]
    return argv


def _bench_argv(args: argparse.Namespace) -> list[str]:
    argv = ["batch-throughput",
            "--trace", f"caida:day=0,duration={args.duration}"]
    if args.detector:
        argv += ["--set", "detectors=" + ",".join(args.detector)]
    return argv


#: Alias -> its parsed flags as the equivalent ``run`` argv (the table
#: EXPERIMENTS.md lists under "Paper-artefact aliases").
_ALIASES: dict[str, Callable[[argparse.Namespace], list[str]]] = {
    "stats": lambda a: [
        "trace-stats", "--trace", f"caida:day={a.day},duration={a.duration}",
    ],
    "fig2": _fig2_argv,
    "fig3": lambda a: [
        "window-sensitivity", "--trace", f"sensitivity:duration={a.duration}",
        "--set", f"phi={a.phi}",
    ],
    "sec3": lambda a: [
        "decay-comparison", "--trace", f"caida:day=0,duration={a.duration}",
        "--set", f"window_size={a.window}", "--set", f"phi={a.phi}",
    ],
    "bench": _bench_argv,
}


def _print_cdf_plots(result: ExperimentResult) -> None:
    for delta in (0.04, 0.10):
        print()
        print(cdf_plot(result, delta))


def _cmd_alias(args: argparse.Namespace) -> int:
    argv = ["run", *_ALIASES[args.command](args)]
    if getattr(args, "json_out", None):
        argv.append(f"--json={args.json_out}")
    show = _print_cdf_plots if getattr(args, "plot", False) else None
    return _cmd_run(build_parser().parse_args(argv), show)


def _cmd_pcap(args: argparse.Namespace) -> int:
    spec = f"caida:day={args.day},duration={args.duration}"
    try:
        trace = TraceSpec.parse(spec).build()
    except TraceSpecError as exc:
        return _fail(str(exc))
    count = write_pcap(args.out, trace.packets())
    print(f"wrote {count} packets to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-hhh",
        description=(
            "Reproduction of 'Revealing Hidden Hierarchical Heavy Hitters "
            "in network traffic' (SIGCOMM Posters 2018)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "run", help="run a registered experiment on string-addressed traces"
    )
    p.add_argument("experiment",
                   help="registry name; see 'repro-hhh experiments'")
    p.add_argument("--trace", action="append", metavar="SPEC",
                   help="trace spec like 'caida:day=0,duration=60' "
                        "(repeatable; default: the experiment's default)")
    p.add_argument("--label", action="append",
                   help="label for the matching --trace (repeatable)")
    p.add_argument("--set", action="append", dest="set_", metavar="KEY=VALUE",
                   help="override an experiment parameter (repeatable)")
    p.add_argument("--shards", metavar="N",
                   help="shard count(s) for sharded experiments "
                        "(sugar for --set shards=N; accepts '1,2,4')")
    p.add_argument("--workers", type=_min1_int, metavar="M",
                   help="process-pool workers for sharded experiments "
                        "(sugar for --set workers=M)")
    p.add_argument("--json", dest="json_out", metavar="FILE",
                   help="also write the result artifact as JSON")
    p.add_argument("--smoke", action="store_true",
                   help="tiny preset trace and parameters (CI smoke runs)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "sweep",
        help="fan a grid of experiment x trace x param cells across cores",
    )
    p.add_argument("--grid", required=True, metavar="GRID",
                   help="semicolon-separated axes: 'exp=a,b;trace=S1,S2;"
                        "param=v1,v2' ('zip:' prefix for zipped expansion; "
                        "param axes apply to the experiments that declare "
                        "them)")
    p.add_argument("--workers", type=_min1_int, default=None, metavar="N",
                   help="process-pool workers (>1 implies the process "
                        "backend; default: serial, or every core when "
                        "--backend process is given without --workers)")
    p.add_argument("--backend", choices=("serial", "process"), default=None,
                   help="cell execution backend (default: from --workers)")
    p.add_argument("--group-by", metavar="COLS",
                   help="pivot the cell table by comma-separated columns "
                        "(e.g. 'experiment,detector'), averaging metrics")
    p.add_argument("--best", metavar="METRIC",
                   help="also report the best cell by a headline metric")
    p.add_argument("--json", dest="json_out", metavar="FILE",
                   help="write the repro-hhh/sweep-result/v1 artifact")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "stream",
        help="drive a detector over a chunked stream with online emissions",
    )
    p.add_argument("detector",
                   help="registry name of an enumerable detector")
    p.add_argument("--source", required=True, metavar="SPEC",
                   help="stream spec: trace specs spliced with '+', "
                        "interleaved with '&', 'repeat:' for infinite "
                        "scenario sources, '@xF' rate rewrite")
    p.add_argument("--chunk", type=_min1_int, default=8192, metavar="N",
                   help="packets per columnar chunk (default 8192)")
    p.add_argument("--emit-every", default="2s", metavar="POLICY",
                   help="'Np' packets or 'Ts' trace seconds (default 2s)")
    p.add_argument("--phi", type=_phi_float, default=0.02,
                   help="report threshold as a fraction of interval bytes")
    p.add_argument("--key", choices=("src", "dst"), default="src",
                   help="trace column keying the detector")
    p.add_argument("--max-packets", type=_min1_int, default=1_000_000,
                   metavar="N",
                   help="hard packet cap (bounds infinite 'repeat:' "
                        "sources; default 1000000)")
    p.add_argument("--shards", type=_min1_int, default=1,
                   help="key-partitioned shards wrapping the detector")
    p.add_argument("--workers", type=_min1_int, default=None,
                   help="process-pool workers for shard updates")
    p.add_argument("--no-reset", action="store_true",
                   help="keep detector state across emissions "
                        "(continuous-time detectors)")
    p.add_argument("--checkpoint", metavar="FILE",
                   help="write the pipeline checkpoint at end of run "
                        "(suppresses the trailing partial report so a "
                        "resumed run continues the open interval "
                        "bit-identically)")
    p.add_argument("--resume", metavar="FILE",
                   help="restore a checkpoint before streaming")
    p.add_argument("--fast-forward", action="store_true",
                   help="with --resume: skip the packets already consumed, "
                        "so the same deterministic --source continues "
                        "where the checkpoint stopped")
    p.add_argument("--json", dest="json_out", metavar="FILE",
                   help="also write the emission table as a JSON artifact")
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser(
        "serve",
        help="multiplex tenant streams over persistent shard workers",
    )
    p.add_argument("--tenant", action="append", required=True,
                   metavar="NAME=SPEC",
                   help="a tenant stream as NAME=STREAM_SPEC (repeatable); "
                        "same spec grammar as 'stream --source'")
    p.add_argument("--detector", default="countmin-hh",
                   help="registry name of an enumerable detector "
                        "(default countmin-hh)")
    p.add_argument("--workers", type=_min1_int, default=1,
                   help="persistent shard-worker processes (default 1)")
    p.add_argument("--shards", type=_min1_int, default=None,
                   help="logical key-partitioned shards "
                        "(default: one per worker)")
    p.add_argument("--chunk", type=_min1_int, default=8192, metavar="N",
                   help="packets per chunk and shared-memory slot "
                        "(default 8192)")
    p.add_argument("--emit-every", default="2s", metavar="POLICY",
                   help="'Np' packets or 'Ts' trace seconds (default 2s)")
    p.add_argument("--phi", type=_phi_float, default=0.02,
                   help="report threshold as a fraction of interval bytes")
    p.add_argument("--key", choices=("src", "dst"), default="src",
                   help="trace column keying the detector")
    p.add_argument("--max-packets", type=_min1_int, default=1_000_000,
                   metavar="N",
                   help="hard per-tenant packet cap (default 1000000)")
    p.add_argument("--no-reset", action="store_true",
                   help="keep detector state across emissions "
                        "(continuous-time detectors)")
    p.add_argument("--checkpoint-dir", metavar="DIR",
                   help="write DIR/NAME.ckpt per tenant at end of run "
                        "(suppresses trailing partial reports for "
                        "bit-identical resume)")
    p.add_argument("--resume-dir", metavar="DIR",
                   help="restore DIR/NAME.ckpt for each tenant that has one")
    p.add_argument("--fast-forward", action="store_true",
                   help="with --resume-dir: skip the packets each "
                        "checkpoint already consumed")
    p.add_argument("--checkpoint-every", type=_min1_int, default=None,
                   metavar="N",
                   help="auto-checkpoint each tenant every N emissions "
                        "(and once at admission) so it survives worker "
                        "crashes; each tenant keeps the chunks pushed "
                        "since its last checkpoint (up to N emissions' "
                        "worth) to replay them; without it a crash fails "
                        "the tenant")
    p.add_argument("--recover", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="supervise worker crashes: respawn dead workers "
                        "and rebuild tenants from their last "
                        "--checkpoint-every checkpoint (default on; "
                        "--no-recover lets a crash fail the run)")
    p.add_argument("--json", dest="json_out", metavar="FILE",
                   help="also write the emission table as a JSON artifact")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "fuzz",
        help="fuzz the promised layer equivalences over sampled plan pairs",
    )
    p.add_argument("--budget-s", type=_positive_float, default=20.0,
                   metavar="S",
                   help="wall-clock fuzz budget in seconds (default 20)")
    p.add_argument("--seed", type=int, default=0,
                   help="plan-space seed; the run is a pure function of it")
    p.add_argument("--pairs", type=_min1_int, default=None, metavar="N",
                   help="additional cap on executed plan pairs")
    p.add_argument("--detector", action="append", metavar="NAME",
                   help="restrict the plan space to this registry detector "
                        "(repeatable; default: all eligible)")
    p.add_argument("--axis", action="append", metavar="AXIS",
                   choices=_FUZZ_AXES,
                   help="restrict to this equivalence axis (repeatable; "
                        f"one of {', '.join(_FUZZ_AXES)})")
    p.add_argument("--no-shrink", action="store_true",
                   help="report raw diverging pairs without minimisation")
    p.add_argument("--cases-dir", metavar="DIR",
                   help="write each divergence as a repro-hhh/fuzz-case/v1 "
                        "JSON artifact under DIR")
    p.add_argument("--replay", metavar="FILE",
                   help="replay a recorded fuzz-case artifact instead of "
                        "fuzzing (exit 0 when it still reproduces)")
    p.add_argument("--verbose", action="store_true",
                   help="print every executed pair, not just divergences")
    p.add_argument("--json", dest="json_out", metavar="FILE",
                   help="write the run summary as a JSON result artifact")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("experiments", help="list the experiment registry")
    p.add_argument("--names", action="store_true",
                   help="plain names only (one per line, for scripting)")
    p.set_defaults(func=_cmd_experiments)

    p = sub.add_parser("scenarios", help="list the trace-scenario registry")
    p.set_defaults(func=_cmd_scenarios)

    p = sub.add_parser("detectors", help="list the detector registry")
    p.set_defaults(func=_cmd_detectors)

    p = sub.add_parser("stats", help="summarise a synthetic trace")
    p.add_argument("--day", type=_day_int, default=0)
    p.add_argument("--duration", type=_positive_float, default=120.0)
    p.set_defaults(func=_cmd_alias)

    p = sub.add_parser("fig2", help="hidden-HHH percentages (Figure 2)")
    p.add_argument("--duration", type=_positive_float, default=120.0)
    p.add_argument("--days", type=_min1_int, default=4)
    p.add_argument("--mode", choices=("unique", "occurrences"),
                   default="unique")
    p.add_argument("--json", dest="json_out", metavar="FILE")
    p.set_defaults(func=_cmd_alias)

    p = sub.add_parser("fig3", help="window-size sensitivity (Figure 3)")
    p.add_argument("--duration", type=_positive_float, default=240.0)
    p.add_argument("--phi", type=_phi_float, default=0.05)
    p.add_argument("--plot", action="store_true",
                   help="also print ASCII CDF curves")
    p.add_argument("--json", dest="json_out", metavar="FILE")
    p.set_defaults(func=_cmd_alias)

    p = sub.add_parser("sec3", help="decay-vs-windows comparison (Section 3)")
    p.add_argument("--duration", type=_positive_float, default=120.0)
    p.add_argument("--window", type=_positive_float, default=10.0)
    p.add_argument("--phi", type=_phi_float, default=0.05)
    p.add_argument("--json", dest="json_out", metavar="FILE")
    p.set_defaults(func=_cmd_alias)

    p = sub.add_parser(
        "bench", help="batch vs scalar update throughput by detector name"
    )
    p.add_argument("--detector", action="append", default=None,
                   help="registry name (repeatable; default: a sample)")
    p.add_argument("--duration", type=_positive_float, default=20.0)
    p.add_argument("--json", dest="json_out", metavar="FILE")
    p.set_defaults(func=_cmd_alias)

    p = sub.add_parser("pcap", help="export a synthetic trace to pcap")
    p.add_argument("--out", required=True)
    p.add_argument("--day", type=_day_int, default=0)
    p.add_argument("--duration", type=_positive_float, default=30.0)
    p.set_defaults(func=_cmd_pcap)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
