"""One benchmarked ``quartz-repro`` invocation, probed from outside.

``run.py`` starts this file as a fresh interpreter per sample, so process
start, imports, calibration and input generation are all part of what it
times.  Nothing under ``src/`` is edited: probes are installed by
rebinding public functions and class attributes before the program
starts, and every probe passes arguments and results through unchanged.

One child runs one *program*: ``graph500``, ``figure13`` or
``kvservice`` (the three validation programs, at sizes that take one to
three seconds) or ``explore``.

Two probe levels:

* untraced (``--trace 0``): only the ``repro.validation.configs.run_*``
  entry points are wrapped, once per simulated run, to mark the end of
  set-up and the span of the run phase;
* traced (``--trace 1``): spans and counters at the layer boundaries
  (graph generation, calibration, kernel runs, OS calls, cache model,
  memory controller, epoch engine, pflush, BFS, export), plus a SIGPROF
  sampler that charges CPU time to the innermost ``repro.<package>``
  frame on the stack.

With ``--setup-only`` the child writes its result and exits at the first
``run_*`` call, which measures set-up alone.

Usage (normally driven by ``run.py``)::

    PYTHONPATH=src python3 layerbench/child.py --program figure13 \
        --seed 1 --trace 0 --doc out.json --result result.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import sys
import time
import weakref
from pathlib import Path

#: A benchmark seed ``n`` runs every program at input seed
#: ``n % INPUT_SEEDS``, so every seed has a reference digest in
#: ``reference.json``.
INPUT_SEEDS = 10

#: Vertices of the ``graph500`` input graph (the experiment's default
#: is 2 000 000, whose generation alone takes ~16 s and ~1 GB on a
#: 2-vCPU x86-64 host).
GRAPH500_VERTICES = 250_000

#: Critical sections per thread of ``figure13`` (the default is 300).
FIGURE13_SECTIONS = 50

#: Operations per tenant of ``kvservice`` (the ``service latency`` preset).
KV_OPS_PER_TENANT = 1_500

#: ``service latency`` ladder size and tenant count (preset defaults).
KV_POINTS = 3
KV_TENANTS = 2


# ----------------------------------------------------------------------
# Programs: each writes the export document to ``doc_path`` and
# returns the program's exit code.
# ----------------------------------------------------------------------


def _cli(argv: list) -> int:
    from repro.cli import main

    return main(argv)


def _api(driver, kwargs: dict, knobs: dict, doc_path: str) -> int:
    """Run a registry driver the way ``quartz-repro run --format json`` does."""
    from repro.validation import export
    from repro.validation.runner import consume_run_stats, reset_run_stats

    reset_run_stats()
    result = driver(jobs=1, **kwargs)
    stats = consume_run_stats()
    document = export.build_document(
        result,
        export.build_manifest(stats=stats, knobs=knobs),
        telemetry=stats.telemetry() if stats is not None else None,
    )
    Path(doc_path).write_text(export.dumps_document(document), encoding="utf-8")
    return 0


def run_graph500(seed: int, doc_path: str) -> int:
    from repro.validation.experiments import run_graph500_validation
    from repro.workloads.graph500 import Graph500Config

    return _api(
        run_graph500_validation,
        {"workload": Graph500Config(
            vertex_count=GRAPH500_VERTICES, roots=2, seed=seed)},
        {"command": "run", "experiment": "graph500-validation", "seed": seed,
         "vertex_count": GRAPH500_VERTICES},
        doc_path,
    )


def run_figure13(seed: int, doc_path: str) -> int:
    from repro.validation.experiments import run_figure13 as driver

    del seed  # run_figure13 exposes no seed
    return _api(
        driver,
        {"sections": FIGURE13_SECTIONS},
        {"command": "run", "experiment": "figure13",
         "sections": FIGURE13_SECTIONS},
        doc_path,
    )


def run_kvservice(seed: int, doc_path: str) -> int:
    from repro.service.traces import TraceConfig
    from repro.validation.experiments import run_service_latency

    trace = TraceConfig(
        tenants=KV_TENANTS,
        ops_per_tenant=KV_OPS_PER_TENANT,
        keys_per_tenant=50_000,
        mix="ycsb-a",
        zipf_theta=0.99,
        seed=seed,
    )
    return _api(
        run_service_latency,
        {"trace": trace, "clients_per_tenant": 2},
        {"command": "service", "preset": "latency", "trace": trace.to_dict()},
        doc_path,
    )


def run_explore(seed: int, doc_path: str) -> int:
    return _cli(["explore", "kvstore", "--seed", str(seed), "--jobs", "1",
                 "--format", "json", "--out", doc_path])


PROGRAMS = {
    "graph500": run_graph500,
    "figure13": run_figure13,
    "kvservice": run_kvservice,
    "explore": run_explore,
}


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------


def check_document(program: str, rows: list, service_reports: list) -> list:
    """The program's own verdicts; returns a list of failures (empty = ok)."""
    errors = []
    if program == "explore":
        mutants = {row["mutant"] for row in rows}
        if mutants != {"none", "missing-flush", "misordered-barrier"}:
            errors.append(f"explore rows cover mutants {sorted(mutants)}")
        errors += [f"explore verdict failed for {row['mutant']}"
                   for row in rows if row["ok"] is not True]
    elif program == "kvservice":
        for label in ("t0", "t1", "all"):
            present = [row for row in rows if row["tenant"] == label]
            expected = KV_OPS_PER_TENANT * (KV_TENANTS if label == "all" else 1)
            if len(present) != KV_POINTS:
                errors.append(f"tenant row {label} present {len(present)} times")
            errors += [f"tenant {label} completed {row['ops']} ops"
                       for row in present if row["ops"] != expected]
        if len(service_reports) != KV_POINTS:
            errors.append(f"{len(service_reports)} service reports")
        for report in service_reports:
            cache = report["cache"]
            for stats in [*cache["tenants"].values(), cache["totals"]]:
                if stats["hits"] + stats["misses"] != stats["lookups"]:
                    errors.append("cache lookup conservation failed")
            totals = cache["totals"]
            if totals["admitted"] != totals["evictions"] + cache["resident"]:
                errors.append("cache admission conservation failed")
    else:
        expected = {"graph500": 1, "figure13": 48}[program]
        if len(rows) != expected:
            errors.append(f"{len(rows)} rows, expected {expected}")
        errors += ["non-finite error_pct" for row in rows
                   if not math.isfinite(row["error_pct"])]
        if program == "graph500" and rows and rows[0]["traversed_edges"] <= 0:
            errors.append("BFS traversed no edges")
    return errors


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------


def _rebind(original, replacement) -> None:
    """Point every ``repro.*`` module-level binding of *original* elsewhere."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Sampler:
    """SIGPROF sampler: CPU time per innermost ``repro.<package>`` frame.

    Each tick charges the CPU time since the previous tick to the layer
    of the nearest ``repro`` frame; ticks coalesced during a long native
    call are charged to its Python caller.
    """

    INTERVAL_S = 0.002

    def __init__(self) -> None:
        self.self_s: dict = {}
        self._last = 0.0

    def _tick(self, signum, frame) -> None:
        now = time.process_time()
        layer = "other"
        while frame is not None:
            name = frame.f_globals.get("__name__", "")
            if name.startswith("repro."):
                layer = name.split(".")[1]
                break
            frame = frame.f_back
        self.self_s[layer] = self.self_s.get(layer, 0.0) + now - self._last
        self._last = now

    def start(self) -> None:
        self._last = time.process_time()
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self._tick(signal.SIGPROF, None)


class Probes:
    """Spans and counters recorded around public entry points."""

    def __init__(self, traced: bool, setup_only: bool, result_path: str):
        self.traced = traced
        self.setup_only = setup_only
        self.result_path = result_path
        self.t_imports = 0.0
        self.t_first_run = None
        self.t_last_run_end = None
        self.run_ms: list = []
        self.counts: dict = {}
        #: name -> [calls, seconds].
        self.spans: dict = {}
        self.service_reports: list = []
        self.sampler = Sampler() if traced else None
        self._resolve_keys: set = set()
        self._sims = weakref.WeakSet()
        self.setup_calibrate_s = 0.0
        self.calib_measurements = 0

    # -- wrappers -------------------------------------------------------
    def _span(self, key: str):
        return self.spans.setdefault(key, [0, 0.0])

    def timed(self, key: str, fn):
        cell = self._span(key)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[0] += 1
                cell[1] += clock() - start

        return wrapper

    def timed_generator(self, key: str, fn):
        cell = self._span(key)

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return _timed_steps(fn(*args, **kwargs), cell)

        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts
        counts.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        from repro.validation import configs

        for name in dir(configs):
            original = getattr(configs, name)
            if name.startswith("run_") and callable(original):
                _rebind(original, self._run_entry(original))
        if self.traced:
            self._install_layers()

    def _run_entry(self, fn):
        clock = time.monotonic

        def wrapper(*args, **kwargs):
            start = clock()
            if self.t_first_run is None:
                self._begin_run_phase(start)
            self._resolve_keys.clear()
            outcome = fn(*args, **kwargs)
            end = clock()
            self.t_last_run_end = end
            self.run_ms.append((end - start) * 1e3)
            self._record_outcome(outcome)
            return outcome

        return wrapper

    def _begin_run_phase(self, now: float) -> None:
        self.t_first_run = now
        if self.traced:
            from repro.quartz.calibration import cache_counters

            self.calib_measurements = cache_counters.snapshot()[2]
            self.setup_calibrate_s = self._span("setup.calibrate")[1]
        if self.setup_only:
            self.write({})
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(0)
        if self.sampler is not None:
            self.sampler.start()

    def _record_outcome(self, outcome) -> None:
        if outcome.service_report is not None:
            report = outcome.service_report
            self.service_reports.append(report)
            self._count("service.ops", report["overall"]["ops"])
            totals = report["cache"]["totals"]
            self._count("service.cache_hits", totals["hits"])
            self._count("service.cache_lookups", totals["lookups"])
        stats = outcome.quartz_stats
        if stats is not None:
            self._count("quartz.epochs", stats.epochs_total)
            self._count("quartz.delay_injected_ns", stats.delay_injected_ns)

    def _install_layers(self) -> None:
        from repro.hw.cache import AnalyticCacheModel
        from repro.hw.memory import MemoryController
        from repro.os.system import SimOS
        from repro.quartz import calibration
        from repro.quartz.epoch import EpochEngine
        from repro.quartz.pm import PmWriteEmulator
        from repro.sim.kernel import Simulator
        from repro.validation import export
        from repro.workloads import graph500, graphs

        for fn in (graphs.synthetic_scale_free, graphs.synthetic_power_law):
            _rebind(fn, self.timed("setup.input_gen", fn))
        _rebind(calibration.calibrate_arch,
                self.timed("setup.calibrate", calibration.calibrate_arch))
        for name in ("build_document", "dumps_document"):
            setattr(export, name, self.timed("validation.export",
                                             getattr(export, name)))
        _rebind(graph500._expand_frontier,
                self.timed("workloads.bfs_expand", graph500._expand_frontier))
        for name, key in (("create_thread", "os.threads_created"),
                          ("post_signal", "os.signals_posted"),
                          ("run_op_hook", "os.hook_ops")):
            setattr(SimOS, name, self.counted(key, getattr(SimOS, name)))
        MemoryController.submit = self.counted(
            "hw.mem_flow_submits", MemoryController.submit)
        PmWriteEmulator.pflush_hook = self.counted(
            "quartz.pflushes", PmWriteEmulator.pflush_hook)
        EpochEngine.close_and_reopen = self.timed_generator(
            "quartz.epoch_close", EpochEngine.close_and_reopen)
        EpochEngine.sync_boundary = self.timed(
            "quartz.epoch_close", EpochEngine.sync_boundary)
        AnalyticCacheModel.resolve = self._resolve_probe(AnalyticCacheModel.resolve)
        Simulator.run = self._sim_probe(Simulator.run)

    def _resolve_probe(self, fn):
        timed = self.timed("hw.cache_resolve", fn)
        keys = self._resolve_keys
        self.counts.setdefault("hw.resolve_repeats", 0)

        def resolve(model, batch):
            key = (
                id(model.arch), model.llc_sharers, batch.pattern,
                batch.effective_footprint, batch.accesses, batch.parallelism,
                batch.stride_bytes, batch.region.page_size, batch.is_store,
                batch.non_temporal, batch.dram_bytes_multiplier,
            )
            if key in keys:
                self.counts["hw.resolve_repeats"] += 1
            else:
                keys.add(key)
            return timed(model, batch)

        return resolve

    def _sim_probe(self, fn):
        sims = self._sims

        def run(sim, *args, **kwargs):
            before = sim.events_dispatched
            try:
                return fn(sim, *args, **kwargs)
            finally:
                self._count("sim.events", sim.events_dispatched - before)
                if sim not in sims:
                    sims.add(sim)
                    self._count("sim.runs", 1)

        return run

    # -- result ---------------------------------------------------------
    def write(self, extra: dict) -> None:
        payload = {
            "t_imports": self.t_imports,
            "t_first_run": self.t_first_run,
            "t_last_run_end": self.t_last_run_end,
            "run_ms": self.run_ms,
            "counts": self.counts,
            "spans": self.spans,
            "setup_calibrate_s": self.setup_calibrate_s,
            "calib_measurements": self.calib_measurements,
            "maxrss_mb": peak_rss_mb(),
            **extra,
        }
        Path(self.result_path).write_text(json.dumps(payload), encoding="utf-8")


def peak_rss_mb() -> float:
    """This process's peak resident set in MiB.

    ``VmHWM`` counts this program image only; ``ru_maxrss`` also keeps
    the parent's resident set from before the ``exec``.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed_steps(generator, cell):
    """Re-yield *generator*, adding the host time of each resumption."""
    clock = time.perf_counter
    value, error = None, None
    while True:
        start = clock()
        try:
            if error is None:
                item = generator.send(value)
            else:
                item = generator.throw(error)
        except StopIteration as stop:
            cell[1] += clock() - start
            return stop.value
        cell[1] += clock() - start
        value, error = None, None
        try:
            value = yield item
        except GeneratorExit:
            generator.close()
            raise
        except BaseException as thrown:  # forwarded into the generator
            error = thrown


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--program", choices=sorted(PROGRAMS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--doc", required=True, help="export document path")
    parser.add_argument("--result", required=True, help="probe result path")
    args = parser.parse_args(argv)

    import repro.cli  # noqa: F401  (the CLI surface loads every layer)
    from repro.validation import export

    probes = Probes(bool(args.trace), args.setup_only, args.result)
    probes.t_imports = time.monotonic()
    probes.install()
    code = PROGRAMS[args.program](args.seed, args.doc)
    if probes.sampler is not None:
        probes.sampler.stop()
    document = json.loads(Path(args.doc).read_text(encoding="utf-8"))
    rows = document["experiment"]["rows"]
    errors = check_document(args.program, rows, probes.service_reports)
    if code != 0:
        errors.append(f"exit code {code}")
    probes.write({
        "errors": errors,
        "digest": export.experiment_digest(document),
        "explore_rows": [
            {key: row[key] for key in ("executions", "schedules", "images_checked")}
            for row in rows if "schedules" in row
        ],
        "error_pct": [row["error_pct"] for row in rows if "error_pct" in row],
        "self_s": probes.sampler.self_s if probes.sampler is not None else {},
    })
    return code


if __name__ == "__main__":
    sys.exit(main())
