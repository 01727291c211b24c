"""The parallel experiment runner: declarative run grids, fanned out.

Every validation run is a pure function of a small picklable description
— which workload, which architecture, which Quartz configuration, which
seed.  :class:`RunSpec` captures that description; :func:`run_specs`
executes a grid of them, optionally across a ``ProcessPoolExecutor``
(``jobs`` argument / ``QUARTZ_REPRO_JOBS``), and returns results in
exactly the submitted order — so a driver's output table is byte-for-byte
identical whatever the job count.

Workers share calibration through the persistent on-disk cache (see
``repro.quartz.calibration``): the parent pre-warms every calibration a
grid needs before fanning out, so workers only ever hit the cache.  Each
result carries per-run wall time, simulator event counts, and the
calibration cache-counter deltas; :func:`consume_run_stats` hands the
aggregate to the CLI summary line.

Execution degrades gracefully: ``jobs=1``, single-spec grids, and
environments where process pools are unavailable all run in-process with
identical results.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.errors import RunInterrupted, ValidationError
from repro.faults.context import get_active_faults
from repro.faults.plan import FaultPlan
from repro.hw.arch import arch_by_name
from repro.quartz.calibration import (
    arch_fingerprint,
    cache_counters,
    calibrate_arch,
)
from repro.quartz.config import QuartzConfig
from repro.quartz.stats import QuartzStats
from repro.quartz.trace import JsonlTraceWriter
from repro.explore.litmus import disjoint_locks_body, mutex_log_body
from repro.pmem.domain import PersistenceDomain
from repro.service.kvservice import kvservice_main_body
from repro.stats_util import percentile
from repro.validation.configs import (
    RunOutcome,
    run_chase,
    run_conf1,
    run_conf2,
    run_crash,
    run_explore,
    run_native,
    run_service,
    run_throttled,
)
from repro.workloads.graph500 import graph500_body
from repro.workloads.kvstore import kvstore_main_body
from repro.workloads.memlat import memlat_body
from repro.workloads.multilat import multilat_body
from repro.workloads.multithreaded import multithreaded_main_body
from repro.workloads.pagerank import pagerank_body
from repro.workloads.pagerank_parallel import parallel_pagerank_body
from repro.workloads.stream import stream_main_body

# ----------------------------------------------------------------------
# Declarative run units
# ----------------------------------------------------------------------

#: Workload id -> body-factory builder.  A builder receives the spec's
#: workload config plus its extras dict and returns the ``factory(out)``
#: callable the Conf_1/Conf_2 helpers drive.  Builders are module-level
#: so a spec stays picklable: workers reconstruct closures locally.
WORKLOADS: dict[str, Callable[[Any, dict], Callable]] = {
    "memlat": lambda config, extras: (lambda out: memlat_body(config, out)),
    "stream": lambda config, extras: (lambda out: stream_main_body(config, out)),
    "multithreaded": lambda config, extras: (
        lambda out: multithreaded_main_body(config, out)
    ),
    "multilat": lambda config, extras: (lambda out: multilat_body(config, out)),
    "kvstore": lambda config, extras: (lambda out: kvstore_main_body(config, out)),
    "pagerank": lambda config, extras: (
        lambda out: pagerank_body(config, out, graph=extras.get("graph"))
    ),
    "graph500": lambda config, extras: (
        lambda out: graph500_body(config, out, graph=extras.get("graph"))
    ),
    "parallel-pagerank": lambda config, extras: (
        lambda out: parallel_pagerank_body(config, out, graph=extras.get("graph"))
    ),
    # Litmus workloads (exploration-sized; see ``repro.explore.litmus``).
    # Outside explore mode they run against a detached shadow domain —
    # the recorded content goes unchecked, the traffic shape is real.
    "mutex-log": lambda config, extras: (
        lambda out: mutex_log_body(
            config, out, PersistenceDomain(), extras.get("mutant")
        )
    ),
    "disjoint-locks": lambda config, extras: (
        lambda out: disjoint_locks_body(config, out, PersistenceDomain())
    ),
    "kvservice": lambda config, extras: (
        lambda out: kvservice_main_body(config, out)
    ),
}

#: Mode -> testbed configuration (see ``repro.validation.configs``).
#: ``crash`` is Conf_1 plus the crash-consistency checker
#: (``repro.pmem``); its extras carry ``crash_plan`` (required) and
#: optionally ``shard``/``shards``/``mutant``.  ``explore`` is the
#: model-checking mode (``repro.explore``); its extras carry
#: ``explore_plan`` (required) plus the same optional keys.  ``service``
#: is Conf_1 driving the multi-tenant KV service (``repro.service``);
#: the result's ``service_report`` carries the tail-latency summary.
MODES = (
    "conf1", "conf2", "native", "chase", "throttled", "crash", "explore",
    "service",
)


@dataclass(frozen=True)
class RunSpec:
    """One validation run, described declaratively and picklably.

    A spec carries no live objects — only the workload id (a key into
    :data:`WORKLOADS`), its config dataclass, the architecture *name*,
    the testbed mode, seeds, and an ``extras`` dict of picklable inputs
    (a pre-built graph, the Table 2 memory node, the Figure 8 register).
    """

    workload: str
    config: Any
    arch_name: str
    mode: str = "native"
    seed: int = 0
    quartz: Optional[QuartzConfig] = None
    #: Seed of the calibration pass Conf_1 attaches (paper: one
    #: calibration per machine, shared by every run on it).
    calibration_seed: int = 0
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ValidationError(f"unknown workload id: {self.workload!r}")
        if self.mode not in MODES:
            raise ValidationError(f"unknown run mode: {self.mode!r}")
        if self.mode in ("conf1", "crash", "service") and self.quartz is None:
            raise ValidationError(f"{self.mode} runs need a QuartzConfig")
        if self.mode == "crash" and "crash_plan" not in self.extras:
            raise ValidationError("crash runs need a CrashPlan in extras")
        if self.mode == "explore" and "explore_plan" not in self.extras:
            raise ValidationError("explore runs need an ExplorePlan in extras")


@dataclass
class RunResult:
    """The picklable outcome of one :class:`RunSpec`.

    Unlike :class:`~repro.validation.configs.RunOutcome` this drops the
    live machine (unpicklable) and adds the observability counters the
    runner aggregates.
    """

    index: int
    workload_result: Any
    elapsed_ns: float
    quartz_stats: Optional[QuartzStats] = None
    wall_s: float = 0.0
    events: int = 0
    #: Flat dotted-key counters of this run (``"crash.violations"``,
    #: ``"faults.injections.signal_delayed"``, ...); the namespace is
    #: declared once, in :data:`COUNTER_SECTIONS`.
    counters: dict = field(default_factory=dict)
    #: Crash-check report dict of a ``crash``-mode run (None otherwise).
    crash_report: Optional[dict] = None
    #: Explore report dict of an ``explore``-mode run (None otherwise).
    explore_report: Optional[dict] = None
    #: Service report dict of a ``service``-mode run (None otherwise).
    service_report: Optional[dict] = None


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def _execute(
    spec: RunSpec,
    index: int = 0,
    fault_plan: Optional[FaultPlan] = None,
    check_invariants: bool = False,
) -> RunOutcome:
    arch = arch_by_name(spec.arch_name)
    factory = WORKLOADS[spec.workload](spec.config, spec.extras)
    faults = {"fault_plan": fault_plan, "check_invariants": check_invariants}
    if spec.mode == "explore":
        return run_explore(
            arch,
            spec.workload,
            spec.config,
            spec.extras["explore_plan"],
            seed=spec.seed,
            shard=spec.extras.get("shard", 0),
            shards=spec.extras.get("shards", 1),
            mutant=spec.extras.get("mutant"),
            **faults,
        )
    if spec.mode == "crash":
        return run_crash(
            arch,
            spec.workload,
            spec.config,
            spec.quartz,
            spec.extras["crash_plan"],
            seed=spec.seed,
            calibration=calibrate_arch(arch, seed=spec.calibration_seed),
            shard=spec.extras.get("shard", 0),
            shards=spec.extras.get("shards", 1),
            mutant=spec.extras.get("mutant"),
            **faults,
        )
    if spec.mode == "conf1":
        calibration = calibrate_arch(arch, seed=spec.calibration_seed)
        sink = _trace_writer
        if sink is not None:
            sink.begin_run(
                index=index,
                workload=spec.workload,
                arch=spec.arch_name,
                mode=spec.mode,
                seed=spec.seed,
            )
        outcome = run_conf1(
            arch,
            factory,
            spec.quartz,
            seed=spec.seed,
            calibration=calibration,
            trace_sink=sink,
            **faults,
        )
        if sink is not None and outcome.quartz_stats is not None:
            sink.write_stats(outcome.quartz_stats)
        return outcome
    if spec.mode == "service":
        return run_service(
            arch,
            factory,
            spec.quartz,
            seed=spec.seed,
            calibration=calibrate_arch(arch, seed=spec.calibration_seed),
            **faults,
        )
    if spec.mode == "conf2":
        return run_conf2(arch, factory, seed=spec.seed, **faults)
    if spec.mode == "native":
        return run_native(arch, factory, seed=spec.seed, **faults)
    if spec.mode == "chase":
        return run_chase(
            arch,
            factory,
            seed=spec.seed,
            mem_node=spec.extras.get("mem_node", 0),
            **faults,
        )
    if spec.mode == "throttled":
        return run_throttled(
            arch,
            factory,
            seed=spec.seed,
            register=spec.extras.get("register", 0),
            **faults,
        )
    raise ValidationError(f"unknown run mode: {spec.mode!r}")


def _run_one(payload: tuple) -> RunResult:
    """Worker entry point: execute one spec, package a picklable result.

    The payload is ``(index, spec)`` or ``(index, spec, fault_context)``
    with ``fault_context = (FaultPlan | None, check_invariants)`` — the
    explicit third element is how the active fault context crosses into
    pool workers under both fork and spawn start methods.
    """
    index, spec = payload[0], payload[1]
    fault_plan, check_invariants = (
        payload[2] if len(payload) > 2 else (None, False)
    )
    mem0, disk0, meas0, _ = cache_counters.snapshot()
    started = time.perf_counter()
    outcome = _execute(
        spec, index, fault_plan=fault_plan, check_invariants=check_invariants
    )
    wall = time.perf_counter() - started
    mem1, disk1, meas1, _ = cache_counters.snapshot()
    counters = {
        "calibration_cache.memory_hits": mem1 - mem0,
        "calibration_cache.disk_hits": disk1 - disk0,
        "calibration_cache.measurements": meas1 - meas0,
    }
    for section in COUNTER_SECTIONS:
        if section.collect is not None:
            for key, value in section.collect(outcome).items():
                counters[f"{section.name}.{key}"] = value
    return RunResult(
        index=index,
        workload_result=outcome.workload_result,
        elapsed_ns=outcome.elapsed_ns,
        quartz_stats=outcome.quartz_stats,
        wall_s=wall,
        events=(
            outcome.machine.sim.events_dispatched
            if outcome.machine is not None else 0
        ),
        counters=counters,
        crash_report=outcome.crash_report,
        explore_report=outcome.explore_report,
        service_report=outcome.service_report,
    )


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Normalise a job count: explicit > ``QUARTZ_REPRO_JOBS`` > 1.

    Library calls default to in-process execution; the CLI resolves its
    own default (``os.cpu_count()``) before calling a driver.
    """
    if jobs is None:
        env = os.environ.get("QUARTZ_REPRO_JOBS", "").strip()
        jobs = int(env) if env else 1
    return max(1, int(jobs))


def default_cli_jobs() -> int:
    """The CLI default: the environment override, else every core."""
    env = os.environ.get("QUARTZ_REPRO_JOBS", "").strip()
    if env:
        return max(1, int(env))
    return max(1, os.cpu_count() or 1)


def _prewarm_calibrations(specs: Sequence[RunSpec]) -> int:
    """Calibrate every testbed a grid needs, once, in the parent.

    Fork-started workers inherit the in-memory cache; spawn-started ones
    read the disk cache.  Either way no worker re-measures.  Deduping is
    by *calibration fingerprint* — ``(arch_fingerprint, seed)`` — so a
    thousand-spec grid whose specs alias the same physical testbed under
    different names still warms it exactly once.  Returns the number of
    unique calibrations warmed.
    """
    fingerprints: dict[str, str] = {}
    needed: dict[tuple[str, int], tuple[str, int]] = {}
    for spec in specs:
        if spec.mode not in ("conf1", "crash", "service"):
            continue
        fingerprint = fingerprints.get(spec.arch_name)
        if fingerprint is None:
            fingerprint = arch_fingerprint(arch_by_name(spec.arch_name))
            fingerprints[spec.arch_name] = fingerprint
        needed.setdefault(
            (fingerprint, spec.calibration_seed),
            (spec.arch_name, spec.calibration_seed),
        )
    for key in sorted(needed):
        arch_name, calibration_seed = needed[key]
        calibrate_arch(arch_by_name(arch_name), seed=calibration_seed)
    return len(needed)


def _payloads(specs: Sequence[RunSpec]) -> list[tuple]:
    """The ``(index, spec[, fault_context])`` worker payloads of a grid.

    The active fault context rides in every payload so pool workers see
    it regardless of start method; per-run seeding keeps any fan-out
    byte-identical to the in-process order.
    """
    context = get_active_faults()
    if context is None or not context.active:
        return list(enumerate(specs))
    fault_context = (context.plan, context.check_invariants)
    return [(index, spec, fault_context) for index, spec in enumerate(specs)]


def _note_in_process(error: BaseException) -> None:
    print(
        f"note: process pool unavailable ({error!r}); running in-process",
        file=sys.stderr,
    )


def _run_parallel(
    payloads: list[tuple], jobs: int, deliver: Callable[[RunResult], None]
) -> bool:
    """Fan out over a process pool, delivering each result as it finishes.

    Returns ``False`` when no pool is available; the caller then runs
    the undelivered payloads in-process.  Each payload is submitted as
    its own future (work-queue scheduling: an idle worker always pulls
    the next pending spec, so one straggler never idles a chunk's worth
    of workers).  A ``KeyboardInterrupt`` (also one raised by
    ``deliver``) or a pool breaking mid-grid cancels every pending
    future and delivers the runs that did finish before re-raising, so
    the caller records partial stats instead of losing them.
    """
    try:
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(payloads)))
    except (NotImplementedError, OSError, PermissionError) as error:
        _note_in_process(error)
        return False
    futures: list = []
    delivered: set = set()
    try:
        futures = [pool.submit(_run_one, payload) for payload in payloads]
        for future in as_completed(futures):
            delivered.add(future)
            deliver(future.result())
    except (KeyboardInterrupt, BrokenProcessPool):
        for future in futures:
            future.cancel()
        pool.shutdown(wait=False, cancel_futures=True)
        for future in futures:
            if future in delivered or not future.done() or future.cancelled():
                continue
            try:
                if future.exception() is None:
                    deliver(future.result())
            except Exception:  # racing cancellation; nothing to keep
                pass
        raise
    except pickle.PicklingError as error:
        pool.shutdown(wait=True, cancel_futures=True)
        _note_in_process(error)
        return False
    pool.shutdown()
    return True


# ----------------------------------------------------------------------
# Streaming epoch traces (CLI --trace-out)
# ----------------------------------------------------------------------

_trace_writer: Optional[JsonlTraceWriter] = None


def set_trace_out(path: Optional[str]):
    """Open (or, with ``None``, close) the streaming epoch-trace sink.

    While a sink is active every Conf_1 run the runner executes streams
    its epoch closes and final emulator statistics to the JSONL file
    (see :mod:`repro.quartz.trace`), and :func:`run_specs` pins itself
    to in-process execution so the stream stays ordered and race-free.
    Returns the live writer (``None`` when closing).
    """
    global _trace_writer
    close_trace_out()
    if path is not None:
        _trace_writer = JsonlTraceWriter(path)
    return _trace_writer


def close_trace_out() -> Optional[tuple[str, int, int]]:
    """Close the active trace sink; returns (path, runs, records)."""
    global _trace_writer
    writer, _trace_writer = _trace_writer, None
    if writer is None:
        return None
    writer.close()
    return (str(writer.path), writer.runs_written, writer.records_written)


# ----------------------------------------------------------------------
# Observability: one declared counter namespace
# ----------------------------------------------------------------------


def _from_report(attribute: str, *names: str, **renamed: str):
    """Collect counters from the report dict ``outcome.<attribute>``.

    ``names`` are copied under their own key; ``renamed`` maps a counter
    name to the report key it copies.
    """
    keys = {**{name: name for name in names}, **renamed}

    def collect(outcome: RunOutcome) -> dict:
        report = getattr(outcome, attribute)
        if report is None:
            return {}
        return {name: report.get(key, 0) for name, key in keys.items()}

    return collect


def _fault_counters(outcome: RunOutcome) -> dict:
    injections = (outcome.fault_report or {}).get("injections", {})
    counters = {f"injections.{kind}": count for kind, count in injections.items()}
    if counters:
        counters["total"] = sum(injections.values())
    return counters


def _service_counters(outcome: RunOutcome) -> dict:
    report = outcome.service_report
    if report is None:
        return {}
    counters = {
        "runs": 1,
        "ops": report.get("overall", {}).get("ops", 0),
        "p99_ns_max": 0.0,
    }
    for tenant, tenant_report in report.get("tenants", {}).items():
        p99 = tenant_report.get("p99_ns") or 0.0
        counters["p99_ns_max"] = max(counters["p99_ns_max"], p99)
        counters[f"tenants.{tenant}.runs"] = 1
        counters[f"tenants.{tenant}.ops"] = tenant_report.get("ops", 0)
        counters[f"tenants.{tenant}.p99_ns_max"] = p99
        counters[f"tenants.{tenant}.throughput_ops_s_sum"] = tenant_report.get(
            "throughput_ops_s", 0.0
        )
    return counters


@dataclass(frozen=True)
class CounterSection:
    """One section of the runner's counter namespace.

    Counter keys are dotted paths whose first segment is the section
    name; telemetry nests them on the dots.  Across runs a counter is
    summed, except ``*_max`` counters and the ``maxed`` fields, which
    keep their maximum.
    """

    name: str
    #: Counters the section always renders once shown (zero if unset).
    fields: tuple
    #: The section shows when any of these is nonzero (always if empty).
    gate: tuple = ()
    maxed: tuple = ()
    #: One run's section-relative counters, from its RunOutcome.
    collect: Optional[Callable[[RunOutcome], dict]] = None
    #: The section's clause on the CLI summary line.
    clause: Optional[Callable[[dict], str]] = None


#: Counters outside any section, folded from every run.
RUN_TOTALS = {"runs": 0, "events": 0, "sim_ns": 0.0, "run_wall_s": 0.0}

#: The namespace, in summary-line order.  Crash ``points`` are summed
#: over runs: every shard enumerates the full point sequence, so they
#: count enumeration work, not unique points.
COUNTER_SECTIONS = (
    CounterSection(
        "calibration_cache", ("memory_hits", "disk_hits", "measurements")
    ),
    CounterSection(
        "sweep",
        ("queue_depth", "specs_skipped", "stream_merge_peak_rows"),
        gate=("queue_depth", "specs_skipped"),
        maxed=("queue_depth", "stream_merge_peak_rows"),
        clause=lambda s: (
            f"sweep: queue depth {s['queue_depth']}, "
            f"{s['specs_skipped']} spec(s) skipped via checkpoint, "
            f"peak {s['stream_merge_peak_rows']} buffered row(s)"
        ),
    ),
    CounterSection(
        "faults",
        ("total",),
        gate=("total",),
        collect=_fault_counters,
        clause=lambda s: f"faults: {s['total']} injection(s)",
    ),
    CounterSection(
        "invariants",
        ("epoch_checks", "sim_checks", "violations", "max_epoch_length_ns"),
        gate=("epoch_checks", "sim_checks"),
        maxed=("max_epoch_length_ns",),
        collect=_from_report(
            "invariant_report",
            "epoch_checks", "sim_checks", "violations", "max_epoch_length_ns",
        ),
        clause=lambda s: (
            f"invariants: {s['epoch_checks']} epoch + "
            f"{s['sim_checks']} sim checks, {s['violations']} violation(s)"
        ),
    ),
    CounterSection(
        "crash",
        ("points", "images_checked", "violations"),
        gate=("images_checked",),
        collect=_from_report(
            "crash_report", "points",
            images_checked="checked", violations="violation_total",
        ),
        clause=lambda s: (
            f"crash: {s['images_checked']} image(s) checked, "
            f"{s['violations']} violation(s)"
        ),
    ),
    CounterSection(
        "explore",
        ("schedules", "executions", "pruned", "images_checked", "violations"),
        gate=("schedules",),
        collect=_from_report(
            "explore_report",
            "schedules", "executions", "pruned", "images_checked",
            violations="violation_total",
        ),
        clause=lambda s: (
            f"explore: {s['schedules']} schedule(s) ({s['pruned']} pruned), "
            f"{s['images_checked']} image(s) checked, "
            f"{s['violations']} violation(s)"
        ),
    ),
    CounterSection(
        "service",
        ("runs", "ops", "p99_ns_max"),
        gate=("runs",),
        collect=_service_counters,
        clause=lambda s: (
            f"service: {s['ops']:,} op(s) over "
            f"{len(s.get('tenants', {}))} tenant(s), "
            f"worst p99 {s['p99_ns_max'] / 1e3:.1f}us"
        ),
    ),
)

_ZEROS = {
    **RUN_TOTALS,
    **{
        f"{section.name}.{name}": 0
        for section in COUNTER_SECTIONS
        for name in section.fields
    },
}
_MAXED = frozenset(
    f"{section.name}.{name}" for section in COUNTER_SECTIONS for name in section.maxed
)


@dataclass
class RunnerStats:
    """Aggregate observability over one driver invocation."""

    jobs: int = 1
    wall_s: float = 0.0
    #: How the accumulation window ended: ``"completed"`` normally,
    #: ``"interrupted"`` when a grid/sweep was cut short (Ctrl-C, broken
    #: pool, deterministic crash point) with only partial results.
    stop_reason: str = "completed"
    #: Per-run wall times (seconds), one entry per executed run — the
    #: raw series behind the p50/p99 tail summary.
    run_wall_times: list = field(default_factory=list)
    #: Provenance of the grid (deterministic for any job count): which
    #: testbeds, workloads, modes, and seeds the runs covered.  These
    #: feed the exported :class:`~repro.validation.export.RunManifest`.
    arch_names: set = field(default_factory=set)
    workloads: set = field(default_factory=set)
    modes: set = field(default_factory=set)
    seeds: set = field(default_factory=set)
    calibration_seeds: set = field(default_factory=set)
    #: Every run's counters folded together (see :data:`COUNTER_SECTIONS`).
    counters: dict = field(default_factory=dict)

    def fold(self, counters: dict) -> None:
        """Fold one batch of counters in: max for high-water marks, else sum."""
        mine = self.counters
        for key, value in counters.items():
            if key not in mine:
                mine[key] = value
            elif key in _MAXED or key.endswith("_max"):
                mine[key] = max(mine[key], value)
            else:
                mine[key] += value

    @property
    def runs(self) -> int:
        return self.counters.get("runs", 0)

    @property
    def events(self) -> int:
        return self.counters.get("events", 0)

    @property
    def calib_hits(self) -> int:
        """Calibration requests served from either cache layer."""
        return self.counters.get(
            "calibration_cache.memory_hits", 0
        ) + self.counters.get("calibration_cache.disk_hits", 0)

    @property
    def calib_measurements(self) -> int:
        return self.counters.get("calibration_cache.measurements", 0)

    @property
    def events_per_sec(self) -> Optional[float]:
        """Kernel dispatch throughput over summed per-run wall time."""
        run_wall_s = self.counters.get("run_wall_s", 0.0)
        if run_wall_s <= 0.0:
            return None
        return self.events / run_wall_s

    def wall_percentile(self, fraction: float) -> Optional[float]:
        """Nearest-rank percentile of the per-run wall times (seconds)."""
        return percentile(self.run_wall_times, fraction)

    @property
    def wall_p50_s(self) -> Optional[float]:
        """Median per-run wall time (tail visibility for uneven grids)."""
        return self.wall_percentile(0.50)

    @property
    def wall_p99_s(self) -> Optional[float]:
        """99th-percentile per-run wall time."""
        return self.wall_percentile(0.99)

    def sections(self) -> dict:
        """The counters nested on their dots, zeros filled in, closed
        sections (gate all zero) left out."""
        tree: dict = {}
        for key, value in (*_ZEROS.items(), *self.counters.items()):
            *path, leaf = key.split(".")
            node = tree
            for part in path:
                node = node.setdefault(part, {})
            node[leaf] = value
        for section in COUNTER_SECTIONS:
            view = tree[section.name]
            if section.gate and not any(view[name] for name in section.gate):
                del tree[section.name]
        return tree

    def summary(self) -> str:
        """The CLI summary line."""
        tree = self.sections()
        cache = tree["calibration_cache"]
        rate = self.events_per_sec
        rate_text = f" ({rate:,.0f} ev/s)" if rate is not None else ""
        line = (
            f"runner: {tree['runs']} runs on {self.jobs} job(s), "
            f"{tree['events']:,} events{rate_text}, "
            f"{tree['run_wall_s']:.1f}s total run time in {self.wall_s:.1f}s wall; "
            f"calibration cache: {self.calib_hits} hits "
            f"({cache['memory_hits']} memory / {cache['disk_hits']} disk), "
            f"{cache['measurements']} measurements"
        )
        p50, p99 = self.wall_p50_s, self.wall_p99_s
        if p50 is not None and p99 is not None:
            line += f"; per-run wall p50/p99: {p50 * 1e3:.1f}/{p99 * 1e3:.1f}ms"
        for section in COUNTER_SECTIONS:
            if section.clause is not None and section.name in tree:
                line += "; " + section.clause(tree[section.name])
        if self.stop_reason != "completed":
            line += f"; stopped: {self.stop_reason}"
        return line

    def telemetry(self) -> dict:
        """The volatile counters as a JSON-safe dict.

        This is the export document's ``telemetry`` section: wall times,
        job counts, and cache hit/miss counters legitimately vary
        between invocations (and between ``--jobs`` values), so they
        live outside the canonical, digest-covered portion.
        """
        return {
            **self.sections(),
            "jobs": self.jobs,
            "wall_s": self.wall_s,
            "wall_p50_s": self.wall_p50_s,
            "wall_p99_s": self.wall_p99_s,
            "events_per_sec": self.events_per_sec,
            "stop_reason": self.stop_reason,
        }


_run_stats: Optional[RunnerStats] = None


def reset_run_stats() -> None:
    """Start a fresh accumulation window (CLI calls this per experiment)."""
    global _run_stats
    _run_stats = None


def consume_run_stats() -> Optional[RunnerStats]:
    """Return and clear the stats accumulated since the last reset."""
    global _run_stats
    stats, _run_stats = _run_stats, None
    return stats


def _ensure_stats(jobs: int) -> RunnerStats:
    """The live accumulation window, created on first use.

    Shared by :func:`run_specs` and the sweep engine
    (:mod:`repro.validation.sweep`), which accumulates result-by-result
    while streaming instead of holding a result list.
    """
    global _run_stats
    if _run_stats is None:
        _run_stats = RunnerStats(jobs=jobs)
    _run_stats.jobs = max(_run_stats.jobs, jobs)
    return _run_stats


def _record_spec(stats: RunnerStats, spec: RunSpec) -> None:
    """Fold one spec's provenance into the manifest-feeding sets."""
    stats.arch_names.add(spec.arch_name)
    stats.workloads.add(spec.workload)
    stats.modes.add(spec.mode)
    stats.seeds.add(spec.seed)
    if spec.mode in ("conf1", "service"):
        stats.calibration_seeds.add(spec.calibration_seed)


def _record_result(stats: RunnerStats, result: RunResult) -> None:
    """Fold one executed run's counters into the window."""
    stats.run_wall_times.append(result.wall_s)
    stats.fold({
        "runs": 1,
        "events": result.events,
        "sim_ns": result.elapsed_ns,
        "run_wall_s": result.wall_s,
        **result.counters,
    })


def _record_stats(
    specs: Sequence[RunSpec],
    results: Sequence[RunResult],
    jobs: int,
    wall_s: float,
    stop_reason: str = "completed",
) -> None:
    stats = _ensure_stats(jobs)
    stats.wall_s += wall_s
    if stop_reason != "completed":
        stats.stop_reason = stop_reason
    for spec in specs:
        _record_spec(stats, spec)
    for result in results:
        _record_result(stats, result)


# ----------------------------------------------------------------------
# The entry point
# ----------------------------------------------------------------------


def run_specs(
    specs: Sequence[RunSpec], jobs: Optional[int] = None
) -> list[RunResult]:
    """Execute a grid of specs; results come back in submitted order.

    Every run builds its own simulator from its own seed, so execution
    order and placement cannot change any result: the returned tables are
    byte-identical for any ``jobs`` value.
    """
    jobs = resolve_jobs(jobs)
    if _trace_writer is not None:
        # Streaming a trace: stay in-process so the JSONL stream is
        # ordered and single-writer (results are identical either way).
        jobs = 1
    payloads = _payloads(specs)
    started = time.perf_counter()
    results: list[RunResult] = []
    try:
        parallel = jobs > 1 and len(payloads) > 1
        if parallel:
            _prewarm_calibrations(specs)
            parallel = _run_parallel(payloads, jobs, results.append)
        if not parallel:
            jobs = 1
        done = {result.index for result in results}
        for payload in payloads:
            if payload[0] not in done:
                results.append(_run_one(payload))
    except (KeyboardInterrupt, BrokenProcessPool) as error:
        # Completed work is not lost: record the partial window (the CLI
        # prints its summary) before raising.
        results.sort(key=lambda result: result.index)
        _record_stats(
            specs, results, jobs, time.perf_counter() - started,
            stop_reason="interrupted",
        )
        interrupt = RunInterrupted(
            f"run grid interrupted ({type(error).__name__}) after "
            f"{len(results)} of {len(payloads)} run(s)",
            completed=len(results),
            total=len(payloads),
        )
        interrupt.results = list(results)
        raise interrupt from error
    results.sort(key=lambda result: result.index)
    _record_stats(specs, results, jobs, time.perf_counter() - started)
    return results
