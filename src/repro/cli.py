"""Command-line interface: regenerate any paper table or figure.

Examples::

    quartz-repro list
    quartz-repro run figure12
    quartz-repro run figure11 --arch ivy-bridge --trials 2
    quartz-repro run figure16-latency -o fig16.txt
    quartz-repro run figure12 --format json --out fig12.json
    quartz-repro run figure12 --trace-out fig12-epochs.jsonl
    quartz-repro trace summarize fig12-epochs.jsonl
    quartz-repro calibrate --arch haswell

With ``--format json`` the experiment document (rows + provenance
manifest + runner telemetry; see ``repro.validation.export``) is the
*only* stdout output — progress and summary lines move to stderr — so
the command pipes cleanly into ``jq`` and friends.

The experiment subcommands (``run``, ``crash-check``, ``explore``,
``service``, ``sweep run/resume``) share one execute path,
:func:`_execute`: each builds a :class:`Preset` (the driver call, the
manifest knobs and sections, an optional verdict gate), and the path
does the rest, with the same ``--jobs/--format/--out`` semantics and
exit codes everywhere.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional, Sequence

from repro.errors import (
    FaultPlanError,
    InvariantViolation,
    QuartzError,
    RunInterrupted,
    ValidationError,
)
from repro.faults import FaultPlan, clear_active_faults, set_active_faults
from repro.hw.arch import IVY_BRIDGE, arch_by_name
from repro.quartz.calibration import calibrate_arch
from repro.quartz.trace import summarize_trace_jsonl
from repro.validation import export
from repro.validation.experiments import REGISTRY
from repro.validation.experiments import crash as crash_experiment
from repro.validation.experiments import explore as explore_experiment
from repro.validation.experiments import sweeps as sweep_experiments
from repro.validation.experiments.service import SERVICE_PRESETS, service_scenario
from repro.validation.experiments.sweeps import SWEEP_PRESETS
from repro.validation.reporting import render_table
from repro.validation.runner import (
    close_trace_out,
    consume_run_stats,
    default_cli_jobs,
    reset_run_stats,
    set_trace_out,
)

MUTANTS = ("all", "none", "missing-flush", "misordered-barrier")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quartz-repro",
        description=(
            "Reproduction of 'Quartz: A Lightweight Performance Emulator "
            "for Persistent Memory Software' (Middleware 2015)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # Flags every experiment subcommand shares, with one meaning.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--jobs",
        type=int,
        help=(
            "worker processes (default: QUARTZ_REPRO_JOBS or all cores; "
            "results are identical for any job count)"
        ),
    )
    output.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help=(
            "output format: the ASCII table, or the schema-versioned JSON "
            "export document (default: table)"
        ),
    )
    output.add_argument(
        "-o", "--output", "--out",
        dest="output",
        help="also write the rendered output (current --format) to a file",
    )
    faulted = argparse.ArgumentParser(add_help=False)
    faulted.add_argument(
        "--faults",
        help=(
            "run under deterministic fault injection; semicolon-separated "
            "clauses, e.g. 'seed(7); signal-delay(ns=2e6, p=1.0); "
            "timer-jitter(rel=0.01)' — see repro.faults.plan for the "
            "full grammar"
        ),
    )
    faulted.add_argument(
        "--check-invariants",
        action="store_true",
        help=(
            "attach the runtime invariant monitor (clock monotonicity, "
            "delay conservation, split proportionality); the run aborts "
            "with exit code 3 at the first violation"
        ),
    )

    subparsers.add_parser("list", help="list available experiments")

    run = subparsers.add_parser(
        "run", help="run one experiment", parents=[output, faulted]
    )
    run.add_argument("experiment", choices=sorted(REGISTRY), metavar="experiment")
    run.add_argument(
        "--arch",
        help="restrict to one processor family (where the experiment allows)",
    )
    run.add_argument(
        "--trials", type=int, help="trial count (where the experiment allows)"
    )
    run.add_argument(
        "--trace-out",
        help=(
            "stream every emulated (Conf_1) run's epoch closes to this "
            "JSONL file (forces in-process execution; reload with "
            "'quartz-repro trace summarize')"
        ),
    )
    run.add_argument(
        "--tiers",
        help=(
            "emulated memory-tier ladder for the multi-tier experiments: "
            "comma-separated read/write latency pairs in ns, fastest "
            "first, e.g. '250/350,400/600,700/1100' (tier 0, the local "
            "DRAM, is implicit)"
        ),
    )

    calibrate = subparsers.add_parser(
        "calibrate", help="print the calibration data for a testbed"
    )
    calibrate.add_argument("--arch", default="ivy-bridge")
    calibrate.add_argument(
        "--refresh",
        action="store_true",
        help="re-measure even when a cached calibration exists",
    )

    crash = subparsers.add_parser(
        "crash-check",
        parents=[output],
        help=(
            "crash-consistency check a recoverable PM workload "
            "(persistence-domain simulation + recovery validation)"
        ),
    )
    crash.add_argument(
        "workload",
        choices=("kvstore", "graph500"),
        help="recoverable workload to check",
    )
    crash.add_argument(
        "--shards",
        type=int,
        default=4,
        help=(
            "ways to shard crash-image storage across runs (fixed per "
            "invocation, so results are identical for any --jobs value; "
            "default: 4)"
        ),
    )
    _add_oracle_flags(crash, seed=411)

    explore = subparsers.add_parser(
        "explore",
        parents=[output],
        help=(
            "model-check a recoverable workload: enumerate every thread "
            "interleaving and cross each with every reachable crash point"
        ),
    )
    explore.add_argument(
        "workload",
        choices=("mutex-log", "disjoint-locks", "kvstore", "graph500"),
        help="explorable workload (litmus tests or recoverable PM bodies)",
    )
    explore.add_argument(
        "--shards",
        type=int,
        default=2,
        help=(
            "ways to partition the schedule tree at its first decision "
            "point (fixed per invocation, so results are identical for "
            "any --jobs value; default: 2)"
        ),
    )
    explore.add_argument(
        "--no-prune",
        action="store_true",
        help=(
            "disable sleep-set pruning and walk the full interleaving "
            "tree (the pruning-soundness baseline; slower, same verdict)"
        ),
    )
    _add_oracle_flags(explore, seed=0)

    service = subparsers.add_parser(
        "service",
        parents=[output, faulted],
        help=(
            "run the trace-driven multi-tenant KV service (DRAM cache "
            "tier + tail-latency reporting) at a named preset"
        ),
    )
    service.add_argument(
        "preset", choices=sorted(SERVICE_PRESETS), metavar="preset",
        help=f"service preset ({', '.join(sorted(SERVICE_PRESETS))})",
    )

    sweep = subparsers.add_parser(
        "sweep",
        help=(
            "streaming, checkpointed sweep orchestration for large run "
            "grids (journal + resume-after-crash)"
        ),
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)
    sweep_run = sweep_sub.add_parser(
        "run", help="start a journaled sweep of a preset grid", parents=[output]
    )
    sweep_run.add_argument(
        "preset", choices=sorted(SWEEP_PRESETS), metavar="preset",
        help=f"sweep preset ({', '.join(sorted(SWEEP_PRESETS))})",
    )
    sweep_run.add_argument(
        "--scale", default="small",
        help="grid scale preset (smoke/small/large; default: small)",
    )
    sweep_resume = sweep_sub.add_parser(
        "resume",
        parents=[output],
        help=(
            "resume an interrupted sweep: verified checkpoints are "
            "reused, only unfinished specs re-execute"
        ),
    )
    sweep_status_p = sweep_sub.add_parser(
        "status", help="print a sweep directory's progress"
    )
    for sub in (sweep_run, sweep_resume, sweep_status_p):
        sub.add_argument(
            "--dir", required=True, dest="sweep_dir",
            help="sweep directory (journal.jsonl + results.jsonl)",
        )
    for sub in (sweep_run, sweep_resume):
        sub.add_argument(
            "--interrupt-after", type=int, default=None,
            help=(
                "deterministic crash point: interrupt the sweep after N "
                "fresh completions are checkpointed (exit 130; used by "
                "the resume tests and CI smoke)"
            ),
        )

    trace = subparsers.add_parser(
        "trace", help="inspect a JSONL epoch trace (--trace-out output)"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="reload a JSONL trace and reprint the Section 3.2 summary",
    )
    summarize.add_argument("path", help="JSONL trace file")
    summarize.add_argument(
        "--max-records",
        type=int,
        default=None,
        help=(
            "apply an in-memory record cap while reloading (matches a "
            "live EpochTrace's max_records)"
        ),
    )
    return parser


def _add_oracle_flags(parser: argparse.ArgumentParser, seed: int) -> None:
    """``--mutant/--seed/--arch``, shared by ``crash-check`` and ``explore``."""
    parser.add_argument(
        "--mutant",
        choices=MUTANTS,
        default="all",
        help=(
            "protocol variant(s) to run: the correct protocol ('none'), a "
            "seeded bug, or the full oracle sweep (default: all; litmus "
            "tests without a persist protocol only accept 'none')"
        ),
    )
    parser.add_argument("--seed", type=int, default=seed, help="run seed")
    parser.add_argument("--arch", help="processor family of the simulated testbed")


def _parse_tier_ladder(spec: str) -> tuple:
    """Parse ``--tiers``: 'read/write,read/write,...' ns pairs.

    A bare number is accepted per tier as symmetric read==write.
    """
    ladder = []
    for index, chunk in enumerate(spec.split(",")):
        chunk = chunk.strip()
        try:
            if "/" in chunk:
                read_text, write_text = chunk.split("/", 1)
                pair = (float(read_text), float(write_text))
            else:
                pair = (float(chunk), float(chunk))
        except ValueError:
            raise SystemExit(
                f"--tiers: cannot parse tier {index + 1} from {chunk!r} "
                "(expected 'read/write' latencies in ns, e.g. '400/600')"
            )
        ladder.append(pair)
    if not ladder:
        raise SystemExit("--tiers: at least one tier is required")
    return tuple(ladder)


def _driver_kwargs(
    experiment: str, driver, args: argparse.Namespace
) -> dict:
    """Map CLI flags onto whichever keyword arguments the driver accepts.

    Flags a driver has no parameter for produce a stderr note instead of
    a ``TypeError`` mid-run.
    """
    parameters = inspect.signature(driver).parameters
    kwargs: dict = {}
    if getattr(args, "tiers", None):
        ladder = _parse_tier_ladder(args.tiers)
        # The sweep takes named ladders; the policy study takes one.
        if "tier_sets" in parameters:
            kwargs["tier_sets"] = {"cli": ladder}
        elif "read_write_ns" in parameters:
            kwargs["read_write_ns"] = ladder
        else:
            print(
                f"note: {experiment} does not take --tiers",
                file=sys.stderr,
            )
    if args.arch:
        arch = arch_by_name(args.arch)
        # Drivers take either a single arch or a sequence of them.
        if "arch" in parameters:
            kwargs["arch"] = arch
        elif "archs" in parameters:
            kwargs["archs"] = [arch]
        else:
            print(
                f"note: {experiment} does not take an architecture",
                file=sys.stderr,
            )
    if args.trials is not None:
        if "trials" in parameters:
            kwargs["trials"] = args.trials
        else:
            print(
                f"note: {experiment} does not take --trials",
                file=sys.stderr,
            )
    if "jobs" in parameters:
        kwargs["jobs"] = _jobs(args)
        if getattr(args, "trace_out", None):
            if kwargs["jobs"] != 1:
                print(
                    "note: --trace-out streams from in-process runs; "
                    "forcing --jobs 1",
                    file=sys.stderr,
                )
            kwargs["jobs"] = 1
    elif args.jobs is not None:
        print(
            f"note: {experiment} does not take --jobs (runs in-process)",
            file=sys.stderr,
        )
    return kwargs


def _jobs(args: argparse.Namespace) -> int:
    return args.jobs if args.jobs else default_cli_jobs()


# ----------------------------------------------------------------------
# The one execute path
# ----------------------------------------------------------------------


def _completed(result, wall_s: float) -> tuple:
    return result, f"\n(completed in {wall_s:.1f}s wall time)"


@dataclass
class Preset:
    """What one experiment subcommand contributes to :func:`_execute`."""

    #: Calls the driver; its return value goes to ``finish``.
    run: Callable[[], Any]
    #: Manifest knobs, ``command`` first.
    knobs: dict
    #: Extra digest-covered manifest sections (``crash``, ``explore``,
    #: ``service``).
    sections: dict = field(default_factory=dict)
    #: Error line for a result row whose ``ok`` is false; any such row
    #: makes the command exit 4.  ``None``: the rows carry no verdict.
    verdict: Optional[Callable[[dict], str]] = None
    #: ``(driver return, wall seconds) -> (ExperimentResult, info line)``.
    finish: Callable[[Any, float], tuple] = _completed
    #: Extra stderr line after an interrupt.
    resume_hint: Optional[str] = None


def _execute(args: argparse.Namespace, preset: Preset) -> int:
    """Run a preset: fault context, timing, stats, document, render, --out.

    Exit codes: 0 success; 2 a malformed ``--faults`` plan or a
    misconfigured run; 3 a violated invariant; 4 a failed verdict row;
    130 interrupted, with the partial runner summary on stderr.
    """
    # In JSON mode stdout carries the document and nothing else.
    info = sys.stderr if args.format == "json" else sys.stdout
    fault_plan = None
    if getattr(args, "faults", None):
        try:
            fault_plan = FaultPlan.parse(args.faults)
        except FaultPlanError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    check_invariants = getattr(args, "check_invariants", False)
    if getattr(args, "trace_out", None):
        set_trace_out(args.trace_out)
    if fault_plan is not None or check_invariants:
        set_active_faults(fault_plan, check_invariants)
    reset_run_stats()
    started = time.perf_counter()
    try:
        try:
            raw = preset.run()
        finally:
            trace_info = close_trace_out()
            clear_active_faults()
    except InvariantViolation as error:
        print(f"error: {error}", file=sys.stderr)
        print(
            "the run aborted at the first violated invariant (runtime "
            "monitor or cache-accounting conservation); re-run without "
            "--check-invariants to observe the raw (faulted) behaviour",
            file=sys.stderr,
        )
        return 3
    except RunInterrupted as interrupt:
        stats = consume_run_stats()
        print(f"interrupted: {interrupt}", file=sys.stderr)
        if stats is not None:
            print(stats.summary(), file=sys.stderr)
        if preset.resume_hint:
            print(preset.resume_hint, file=sys.stderr)
        return 130
    except ValidationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    result, info_line = preset.finish(raw, time.perf_counter() - started)
    stats = consume_run_stats()
    if args.format == "json":
        document = export.build_document(
            result,
            export.build_manifest(
                stats=stats,
                knobs=preset.knobs,
                faults=fault_plan.to_dict() if fault_plan is not None else None,
                **preset.sections,
            ),
            telemetry=stats.telemetry() if stats is not None else None,
        )
        rendered = export.dumps_document(document)
    else:
        rendered = render_table(result) + "\n"
    sys.stdout.write(rendered)
    print(info_line, file=info)
    if stats is not None and stats.runs:
        print(stats.summary(), file=info)
    if trace_info is not None:
        path, runs, records = trace_info
        print(
            f"epoch trace: {records} record(s) across {runs} emulated "
            f"run(s) written to {path}",
            file=info,
        )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"written to {args.output}", file=info)
    failed = [row for row in result.rows if not row["ok"]] if preset.verdict else []
    for row in failed:
        print(preset.verdict(row), file=sys.stderr)
    return 4 if failed else 0


# ----------------------------------------------------------------------
# Presets, one per experiment subcommand
# ----------------------------------------------------------------------


def _run_preset(args: argparse.Namespace) -> Preset:
    driver = REGISTRY[args.experiment]
    kwargs = _driver_kwargs(args.experiment, driver, args)
    return Preset(
        run=lambda: driver(**kwargs),
        knobs={
            "command": "run",
            "experiment": args.experiment,
            "arch": args.arch,
            "trials": args.trials,
            "check_invariants": bool(args.check_invariants),
        },
    )


def _oracle_knobs(args: argparse.Namespace) -> dict:
    return {
        "command": args.command,
        "workload": args.workload,
        "mutant": args.mutant,
        "shards": args.shards,
        "seed": args.seed,
        "arch": args.arch,
    }


def _crash_preset(args: argparse.Namespace) -> Preset:
    """``crash-check``: run the oracle; exit 4 when its verdict fails
    (violations on the correct protocol, or a mutant escaping uncaught)."""
    mutants = crash_experiment.MUTANT_AXIS if args.mutant == "all" else (args.mutant,)
    return Preset(
        run=lambda: crash_experiment.run_crash_check(
            arch=arch_by_name(args.arch) if args.arch else IVY_BRIDGE,
            workload=args.workload,
            mutants=mutants,
            shards=args.shards,
            seed=args.seed,
            jobs=_jobs(args),
        ),
        knobs=_oracle_knobs(args),
        sections={"crash": crash_experiment.DEFAULT_CRASH_PLAN.to_dict()},
        verdict=lambda row: (
            f"error: crash-check expectation failed for "
            f"{row['workload']}/{row['mutant']}: expected "
            f"{row['expected']} violation(s), got {row['violations']}"
        ),
    )


def _explore_preset(args: argparse.Namespace) -> Preset:
    """``explore``: model-check; exit 4 on violations of the correct
    protocol, a mutant surviving the full exploration, or a capped
    (non-exhaustive) run."""
    if args.mutant == "all":
        # Litmus tests without a persist protocol reject mutants.
        mutants = (
            explore_experiment.MUTANT_AXIS
            if args.workload != "disjoint-locks" else ("none",)
        )
    else:
        mutants = (args.mutant,)
    plan = explore_experiment.DEFAULT_EXPLORE_PLAN
    if args.no_prune:
        plan = replace(plan, prune=False)
    return Preset(
        run=lambda: explore_experiment.run_explore_check(
            arch=arch_by_name(args.arch) if args.arch else IVY_BRIDGE,
            workload=args.workload,
            mutants=mutants,
            shards=args.shards,
            seed=args.seed,
            explore_plan=plan,
            jobs=_jobs(args),
        ),
        knobs=_oracle_knobs(args),
        sections={"explore": plan.to_dict()},
        verdict=lambda row: (
            f"error: explore expectation failed for "
            f"{row['workload']}/{row['mutant']}: expected "
            f"{row['expected']} violation(s), got {row['violations']} "
            f"across {row['schedules']} schedule(s)"
        ),
    )


def _service_preset(args: argparse.Namespace) -> Preset:
    """``service``: one KV-service preset; the cache-accounting
    conservation checks gate the run (exit 3) even without
    ``--check-invariants``."""
    experiment_id, build_kwargs = SERVICE_PRESETS[args.preset]
    driver = REGISTRY[experiment_id]
    kwargs = {**build_kwargs(), "jobs": _jobs(args)}
    return Preset(
        run=lambda: driver(**kwargs),
        knobs={
            "command": "service",
            "preset": args.preset,
            "experiment": experiment_id,
            "check_invariants": bool(args.check_invariants),
        },
        sections={"service": service_scenario(args.preset)},
    )


def _sweep_preset(args: argparse.Namespace) -> Preset:
    """``sweep run/resume``: a journaled sweep.  An interrupt leaves every
    completed spec checkpointed and prints a resume hint; an unknown
    scale, a journal/grid mismatch or a fresh ``run`` into a used
    directory exits 2."""
    jobs = _jobs(args)
    # A resumed sweep learns its preset and scale from the journal.
    knobs = {"command": "sweep"}

    def run():
        if args.sweep_command == "run":
            sweep_run = sweep_experiments.start_sweep(
                args.preset, args.scale, args.sweep_dir,
                jobs=jobs, interrupt_after=args.interrupt_after,
            )
        else:
            sweep_run = sweep_experiments.resume_sweep(
                args.sweep_dir, jobs=jobs, interrupt_after=args.interrupt_after
            )
        knobs.update(preset=sweep_run.preset, scale=sweep_run.scale)
        return sweep_run

    def finish(sweep_run, wall_s: float) -> tuple:
        report = sweep_run.report
        tampered = (
            f", {report.tampered} tampered record(s) re-run"
            if report.tampered else ""
        )
        return sweep_run.result, (
            f"\nsweep {sweep_run.preset} ({sweep_run.scale}): "
            f"{report.total} spec(s), {report.executed} executed, "
            f"{report.skipped} reused from checkpoints{tampered} "
            f"in {wall_s:.1f}s wall"
        )

    return Preset(
        run=run,
        knobs=knobs,
        finish=finish,
        resume_hint=f"resume with: quartz-repro sweep resume --dir {args.sweep_dir}",
    )


PRESETS: dict[str, Callable[[argparse.Namespace], Preset]] = {
    "run": _run_preset,
    "crash-check": _crash_preset,
    "explore": _explore_preset,
    "service": _service_preset,
    "sweep": _sweep_preset,
}


# ----------------------------------------------------------------------
# The other subcommands
# ----------------------------------------------------------------------


def _sweep_status(args: argparse.Namespace) -> int:
    try:
        status = sweep_experiments.sweep_status(args.sweep_dir)
    except ValidationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"sweep: {status['name']} (knobs: {status['knobs']})")
    print(
        f"progress: {status['done']}/{status['total']} spec(s) "
        f"checkpointed, {status['remaining']} remaining"
    )
    print(f"grid digest: {status['grid_digest']}")
    print(f"journal: {status['journal']}")
    return 0


def _list_experiments(args: argparse.Namespace) -> int:
    print("available experiments (see DESIGN.md for the paper mapping):")
    for name in sorted(REGISTRY):
        doc = (REGISTRY[name].__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"  {name:24s} {summary}")
    return 0


def _calibrate(args: argparse.Namespace) -> int:
    arch = arch_by_name(args.arch)
    data = calibrate_arch(arch, refresh=args.refresh)
    print(f"calibration for {arch.model} ({arch.family}):")
    print(f"  local DRAM latency : {data.dram_local_ns:8.2f} ns")
    print(f"  remote DRAM latency: {data.dram_remote_ns:8.2f} ns")
    print(f"  L3 latency         : {data.l3_ns:8.2f} ns")
    print(f"  W ratio (local)    : {data.w_local:8.2f}")
    print(f"  peak bandwidth     : {data.peak_bandwidth:8.2f} GB/s")
    print("  throttle-register bandwidth table:")
    for register, rate in data.bandwidth_table:
        print(f"    {register:5d} -> {rate:6.2f} GB/s")
    return 0


def _trace_summarize(args: argparse.Namespace) -> int:
    try:
        print(summarize_trace_jsonl(args.path, max_records=args.max_records))
    except QuartzError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    args = _build_parser().parse_args(argv)
    if args.command == "sweep" and args.sweep_command == "status":
        return _sweep_status(args)
    if args.command in PRESETS:
        return _execute(args, PRESETS[args.command](args))
    commands = {
        "list": _list_experiments,
        "calibrate": _calibrate,
        "trace": _trace_summarize,
    }
    return commands[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
