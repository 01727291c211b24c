"""Layer benchmark for the Quartz reproduction.

Run from the repository root::

    python3 layerbench/run.py --workload validation --seed 1 --seconds 50 --trace 0
    python3 layerbench/run.py --summary --out layerbench/baseline.json
    python3 layerbench/run.py --record-references

A workload is a list of programs (see ``child.py``):

* ``validation``: ``graph500``, ``figure13`` and ``kvservice``, the
  three validation programs, one child each per pass;
* ``explore``: ``explore kvstore``.

Every sample is a fresh interpreter (``child.py``) driving the
``quartz-repro`` CLI or the public driver API with ``--jobs 1`` and
``QUARTZ_REPRO_JOBS`` unset, so process start, imports, calibration and
input generation all count.  Programs are closed loops: one driver runs
each simulation to completion before the next.

Untraced run (``--trace 0``): fill a run-private
``QUARTZ_REPRO_CACHE_DIR`` with one untimed ``quartz-repro calibrate``
per testbed the workload uses, set every program up once untimed (this
compiles bytecode and warms the page cache), then run passes while the
next pass is predicted to end within ``--seconds`` (at least one pass).
A pass runs one set-up-only child per program from an empty cache dir,
then one full child per program on the filled one.

The host's speed drifts by tens of percent within seconds and between
runs, and its CPU time drifts with it.  So the parent times a
*yardstick*, a fixed task that uses no ``repro`` code (``yardstick.py``,
a fresh interpreter per checkpoint), before and after every untraced
full child, and reports the child's time in yardsticks: its seconds
over the geometric mean of the two checkpoints around it.  That
ratio cancels much of the host's drift and still moves with the program.

Each end-to-end metric is, per program, the median over its children,
summed over the workload's programs:

* ``wall_rel``: process start to exit, in yardsticks;
* ``run_rel``: first simulated run start to last run end, in yardsticks;
* ``setup_s``: seconds from process start to the first
  ``repro.validation.configs.run_*`` call from an empty cache dir
  (imports, calibration, input generation): the set-up a first
  invocation pays, so work moved into set-up or its disk cache shows;
* ``peak_rss_mb``: the largest program's median ``ru_maxrss``.

The raw medians (seconds) are printed beside them.

Traced run (``--trace 1``): per program one traced set-up-only child
from an empty cache dir, then alternating untraced and traced passes of
full children, in pairs while the next pair is predicted to end within
``--seconds`` (at least one pair).  It prints the per-layer
metrics of the first pair, summed over programs (see
``per_layer_metrics``), and ``trace_overhead_pct``, the median over the
pairs of the traced pass's wall time against its untraced partner's.

A benchmark seed ``n`` runs every program at input seed ``n % 10``
(``child.INPUT_SEEDS``), passed only through public config.  Every full
child is checked: exit code 0, the program's own verdicts
(``child.check_document``) and the ``experiment_digest`` that
``reference.json`` records for the program at that input seed.
``--record-references`` rewrites ``reference.json`` from the current
code.  The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it carries the digests.

``--summary`` runs every workload at seeds 1..10 plus one traced run at
seed 1 and prints median, quartiles, spread and sample count of every
end-to-end metric, ``failed_pct`` and the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".layerbench"

sys.path.insert(0, str(HERE))
from child import INPUT_SEEDS  # noqa: E402

#: Programs of each workload, in the order a pass runs them.
WORKLOADS = {
    "validation": ("graph500", "figure13", "kvservice"),
    "explore": ("explore",),
}

#: Testbeds each program calibrates (explore runs without Quartz).
ARCHS = {
    "graph500": ("sandy-bridge",),
    "figure13": ("sandy-bridge", "ivy-bridge"),
    "kvservice": ("ivy-bridge",),
    "explore": (),
}

#: Every run ends (children killed) within this many seconds.
DEADLINE_S = 170.0

END_TO_END = {
    "wall_rel": "x",
    "run_rel": "x",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SELF_TIME_LAYERS = (
    "validation", "sim", "os", "hw", "quartz", "service", "workloads",
    "explore", "pmem",
)


@dataclass
class Sample:
    """One child process: its timings, probe output and check result."""

    program: str
    #: Monotonic time just before the process was spawned.
    start: float
    wall_s: float
    setup_s: Optional[float]
    result: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    #: Geometric mean of the yardstick times before and after the child.
    yardstick_s: float = math.nan

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def run_s(self) -> float:
        return self.result["t_last_run_end"] - self.result["t_first_run"]


class Bench:
    """Spawns the children of one run inside a private work directory."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.programs = WORKLOADS[workload]
        self.input_seed = seed % INPUT_SEEDS
        self.started = time.monotonic()
        self.work = WORK / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.warm_cache = self.work / "cache"
        self.samples: list = []
        self._serial = 0
        #: The last checkpoint, while no child has run since it.
        self._checkpoint: Optional[float] = None

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def ok(self) -> bool:
        return all(s.ok for s in self.samples)

    def env(self, cache_dir: Path) -> dict:
        env = dict(os.environ)
        env.pop("QUARTZ_REPRO_JOBS", None)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["QUARTZ_REPRO_CACHE_DIR"] = str(cache_dir)
        return env

    def _wait(self, argv: list, cache_dir: Path, log: Path) -> tuple:
        """Run *argv* to completion, killing it at the deadline.

        Returns (exit code, spawn time, wall seconds).  The wait blocks
        rather than polls, so the wall time has no polling slack.
        """
        with open(log, "w", encoding="utf-8") as err:
            start = time.monotonic()
            proc = subprocess.Popen(
                argv, stdout=subprocess.DEVNULL, stderr=err,
                env=self.env(cache_dir), cwd=ROOT,
            )
            timer = threading.Timer(max(1.0, self.remaining()), proc.kill)
            timer.start()
            try:
                code = proc.wait()
            finally:
                timer.cancel()
                timer.join()
            return code, start, time.monotonic() - start

    def fill_cache(self) -> None:
        """One untimed calibration per testbed into the warm cache dir."""
        archs = sorted({arch for p in self.programs for arch in ARCHS[p]})
        for arch in archs:
            log = self.work / f"fill-{arch}.log"
            code, start, wall_s = self._wait(
                [sys.executable, "-m", "repro.cli", "calibrate", "--arch", arch],
                self.warm_cache, log,
            )
            if code != 0:
                tail = log.read_text(encoding="utf-8", errors="replace")[-600:]
                self.samples.append(Sample(
                    program="calibrate", start=start, wall_s=wall_s, setup_s=None,
                    errors=[f"calibrate --arch {arch} exited with {code}: {tail}"],
                ))

    def child(self, program: str, traced: bool = False, setup_only: bool = False,
              cold: bool = False) -> Sample:
        self._serial += 1
        tag = f"c{self._serial}"
        cache_dir = self.work / f"{tag}-cache" if cold else self.warm_cache
        doc, result_path = self.work / f"{tag}.doc.json", self.work / f"{tag}.json"
        argv = [
            sys.executable, str(HERE / "child.py"),
            "--program", program, "--seed", str(self.input_seed),
            "--trace", str(int(traced)), "--doc", str(doc),
            "--result", str(result_path),
        ]
        if setup_only:
            argv.append("--setup-only")
        log = self.work / f"{tag}.log"
        timed = not (traced or setup_only)
        before = (self._checkpoint or checkpoint()) if timed else None
        code, start, wall_s = self._wait(argv, cache_dir, log)
        self._checkpoint = checkpoint() if timed else None
        sample = Sample(program=program, start=start, wall_s=wall_s, setup_s=None,
                        yardstick_s=(math.sqrt(before * self._checkpoint)
                                     if timed else math.nan))
        self.samples.append(sample)
        if code != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-600:]
            sample.errors.append(f"{program} {tag} exited with {code}: {tail}")
            return sample
        sample.result = json.loads(result_path.read_text(encoding="utf-8"))
        if sample.result["t_first_run"] is None:
            sample.errors.append(f"{program} {tag} never reached a simulated run")
            return sample
        sample.setup_s = sample.result["t_first_run"] - start
        sample.errors += sample.result.get("errors", [])
        return sample

    def full_pass(self, traced: bool = False, cold: Optional[list] = None) -> list:
        """One full child per program, stopping at the first failure.

        With *cold*, the full children are preceded by one set-up-only
        child per program from an empty cache dir, appended to *cold*.
        """
        for program in self.programs if cold is not None else ():
            cold.append(self.child(program, setup_only=True, cold=True))
            if not cold[-1].ok:
                return []
        samples = []
        for program in self.programs:
            samples.append(self.child(program, traced=traced))
            if not samples[-1].ok:
                break
        return samples

    def check_digests(self, full: list) -> None:
        """Fail full children whose digest is not the reference digest."""
        reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        for sample in full:
            expected = reference.get(sample.program, {}).get(str(self.input_seed))
            if sample.ok and sample.result["digest"] != expected:
                sample.errors.append(
                    f"{sample.program} digest {sample.result['digest']} differs "
                    f"from the reference at input seed {self.input_seed} "
                    f"({expected})")

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def checkpoint() -> float:
    """Seconds of one yardstick checkpoint (``yardstick.py``), taken now."""
    proc = subprocess.run([sys.executable, str(HERE / "yardstick.py")],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


def tail_percentile(values: list) -> tuple:
    """(p, value): the highest percentile with >= 10 samples beyond it.

    Falls back to the median when there are fewer than 20 samples.
    """
    ordered = sorted(values)
    best = (50.0, statistics.median(ordered))
    for pct in (75.0, 90.0, 95.0, 99.0, 99.9):
        if len(ordered) * (1 - pct / 100) >= 10:
            best = (pct, ordered[min(len(ordered) - 1,
                                     int(len(ordered) * pct / 100))])
    return best


def measure_untraced(bench: Bench, seconds: float) -> tuple:
    """End-to-end metrics: {name: (value, unit, passes)}, full children.

    Also prints the raw medians in seconds.
    """
    bench.fill_cache()
    for program in bench.programs:
        if bench.ok():
            bench.child(program, setup_only=True)
    passes: list = []
    cold: list = []
    began = time.monotonic()
    while bench.ok():
        start = time.monotonic()
        passes.append(bench.full_pass(cold=cold))
        now = time.monotonic()
        last = now - start
        if now - began + last > seconds or 1.5 * last > bench.remaining():
            break
    full = [s for one in passes for s in one]
    if not bench.ok():
        return {}, full

    def per_program(value, samples=full) -> list:
        return [statistics.median(value(s) for s in samples if s.program == p)
                for p in bench.programs]

    values = {
        "wall_rel": sum(per_program(lambda s: s.wall_s / s.yardstick_s)),
        "run_rel": sum(per_program(lambda s: s.run_s / s.yardstick_s)),
        "setup_s": sum(per_program(lambda s: s.setup_s, cold)),
        "peak_rss_mb": max(per_program(lambda s: s.result["maxrss_mb"])),
    }
    print(f"  raw medians: wall {sum(per_program(lambda s: s.wall_s)):.4g} s, "
          f"run {sum(per_program(lambda s: s.run_s)):.4g} s, warm set-up "
          f"{sum(per_program(lambda s: s.setup_s)):.4g} s; yardstick "
          f"{1e3 * statistics.median(s.yardstick_s for s in full):.4g} ms")
    return {name: (value, END_TO_END[name], len(passes))
            for name, value in values.items()}, full


def merge(results: list) -> dict:
    """Sum the probe output of several children into one."""
    merged: dict = {"counts": {}, "spans": {}, "self_s": {}, "run_ms": [],
                    "explore_rows": [], "error_pct": []}
    for result in results:
        for key, value in result["counts"].items():
            merged["counts"][key] = merged["counts"].get(key, 0) + value
        for key, (calls, seconds) in result["spans"].items():
            cell = merged["spans"].setdefault(key, [0, 0.0])
            cell[0] += calls
            cell[1] += seconds
        for key, value in result.get("self_s", {}).items():
            merged["self_s"][key] = merged["self_s"].get(key, 0.0) + value
        for key in ("run_ms", "explore_rows", "error_pct"):
            merged[key] += result.get(key, [])
    return merged


def per_layer_metrics(pairs: list, cold: list) -> dict:
    """Per-layer metrics of one traced run, with units.

    *pairs* holds (untraced pass, traced pass); everything but
    ``trace_overhead_pct`` comes from the first pair, summed over the
    workload's programs.  *cold* holds one traced set-up-only child
    from an empty cache dir per program.
    """
    untraced, traced = pairs[0]
    u = merge([s.result for s in untraced])
    t = merge([s.result for s in traced])
    count = t["counts"].get
    span = lambda key: t["spans"].get(key, [0, 0.0])  # noqa: E731
    resolves, resolve_s = span("hw.cache_resolve")
    events = count("sim.events", 0)
    run_s = sum(s.run_s for s in untraced)
    executions = sum(r["executions"] for r in t["explore_rows"])
    schedules = sum(r["schedules"] for r in t["explore_rows"])
    lookups = count("service.cache_lookups", 0)
    tail_pct, tail_ms = tail_percentile(u["run_ms"])
    wall = lambda one: sum(s.wall_s for s in one)  # noqa: E731
    metrics = {
        "setup.import_s": (sum(s.result["t_imports"] - s.start for s in traced), "s"),
        "setup.input_gen_s": (span("setup.input_gen")[1], "s"),
        "setup.warm_s": (sum(s.setup_s for s in untraced), "s"),
        "setup.calibrate_s": (sum(c.result["setup_calibrate_s"] for c in cold), "s"),
        "setup.calib_measurements": (
            sum(c.result["calib_measurements"] for c in cold), "count"),
        "validation.runs": (len(u["run_ms"]), "count"),
        "validation.run_p50_ms": (statistics.median(u["run_ms"]), "ms"),
        "validation.run_tail_ms": (tail_ms, "ms"),
        "validation.run_tail_pct": (tail_pct, "%"),
        "validation.export_s": (span("validation.export")[1], "s"),
        "validation.emulation_error_pct": (
            statistics.fmean(u["error_pct"]) if u["error_pct"] else 0.0, "%"),
        "sim.events": (events, "count"),
        "sim.runs": (count("sim.runs", 0), "count"),
        "sim.host_ns_per_event": (run_s / events * 1e9 if events else 0.0, "ns"),
        "os.threads_created": (count("os.threads_created", 0), "count"),
        "os.signals_posted": (count("os.signals_posted", 0), "count"),
        "os.hook_ops": (count("os.hook_ops", 0), "count"),
        "hw.cache_resolves": (resolves, "count"),
        "hw.cache_resolve_s": (resolve_s, "s"),
        "hw.resolve_repeat_pct": (
            100.0 * count("hw.resolve_repeats", 0) / resolves if resolves else 0.0,
            "%"),
        "hw.mem_flow_submits": (count("hw.mem_flow_submits", 0), "count"),
        "quartz.epochs": (count("quartz.epochs", 0), "count"),
        "quartz.epoch_close_s": (span("quartz.epoch_close")[1], "s"),
        "quartz.pflushes": (count("quartz.pflushes", 0), "count"),
        "quartz.delay_injected_ms": (count("quartz.delay_injected_ns", 0) / 1e6, "ms"),
        "service.ops": (count("service.ops", 0), "count"),
        "service.cache_hit_pct": (
            100.0 * count("service.cache_hits", 0) / lookups if lookups else 0.0, "%"),
        "workloads.bfs_expand_s": (span("workloads.bfs_expand")[1], "s"),
        "explore.executions": (executions, "count"),
        "explore.schedules": (schedules, "count"),
        "explore.useful_pct": (100.0 * schedules / executions if executions else 0.0, "%"),
        "pmem.images_checked": (
            sum(r["images_checked"] for r in t["explore_rows"]), "count"),
        "trace_overhead_pct": (statistics.median(
            100.0 * (wall(tp) - wall(up)) / wall(up) for up, tp in pairs), "%"),
    }
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = (t["self_s"].get(layer, 0.0), "s")
    return metrics


def measure_traced(bench: Bench, seconds: float) -> tuple:
    """Per-layer metrics: {name: (value, unit, 1)}, full children."""
    bench.fill_cache()
    cold = []
    for program in bench.programs:
        if bench.ok():
            cold.append(bench.child(program, traced=True, setup_only=True, cold=True))
    pairs: list = []
    spent = 0.0
    while bench.ok():
        start = time.monotonic()
        pairs.append((bench.full_pass(), bench.full_pass(traced=True)))
        last = time.monotonic() - start
        spent += last
        if spent + last > seconds or 1.5 * last > bench.remaining():
            break
    full = [s for pair in pairs for one in pair for s in one]
    if not bench.ok():
        return {}, full
    return {name: (value, unit, 1) for name, (value, unit)
            in per_layer_metrics(pairs, cold).items()}, full


def run_once(workload: str, seed: int, seconds: float, traced: bool) -> int:
    bench = Bench(workload, seed)
    try:
        if traced:
            metrics, full = measure_traced(bench, seconds)
        else:
            metrics, full = measure_untraced(bench, seconds)
        bench.check_digests(full)
    finally:
        bench.cleanup()
    failed = [s for s in bench.samples if not s.ok]
    for sample in failed:
        print(f"check failed: {'; '.join(sample.errors)}", file=sys.stderr)
    correct = not failed and bool(metrics)
    print(f"layerbench {workload} seed={seed} (input seed "
          f"{bench.input_seed}) trace={int(traced)}: "
          f"{len(bench.samples)} children, {len(failed)} failed")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit:6s}"
              + ("" if traced else f" (medians of {n} passes)"))
    digests = {program: sorted({s.result["digest"] for s in full
                                if s.program == program and s.result.get("digest")})
               for program in bench.programs}
    print(json.dumps({"digests": digests}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(bench.samples),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def record_references() -> int:
    """Rewrite ``reference.json``: each program's digest at each input seed."""
    reference: dict = {}
    for workload, programs in WORKLOADS.items():
        for program in programs:
            reference[program] = {}
            for seed in range(INPUT_SEEDS):
                bench = Bench(workload, seed)
                try:
                    bench.fill_cache()
                    sample = bench.child(program)
                finally:
                    bench.cleanup()
                errors = [e for s in bench.samples for e in s.errors]
                if errors:
                    print(f"error: {program} input seed {seed}: {'; '.join(errors)}",
                          file=sys.stderr)
                    return 1
                reference[program][str(seed)] = sample.result["digest"]
                print(f"{program} {seed} {sample.result['digest']}")
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


# ----------------------------------------------------------------------
# Summary: every metric of every workload over several seeds
# ----------------------------------------------------------------------

#: Seeds of the untraced runs of ``--summary``.
SUMMARY_SEEDS = range(1, 11)


def _invoke(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(traced))]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                          check=True, timeout=DEADLINE_S + 60)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha() -> Optional[str]:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() or None


def summarize(seconds: int, out: Optional[str]) -> int:
    report = {
        "git_sha": _git_sha(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {"python": platform.python_version(), "cpus": os.cpu_count(),
                 "machine": platform.machine()},
        "seconds": seconds,
        "seeds": list(SUMMARY_SEEDS),
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs = [_invoke(workload, seed, seconds, False) for seed in SUMMARY_SEEDS]
        traced = _invoke(workload, 1, seconds, True)
        attempted = sum(r["attempted"] for r in runs)
        entry = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "failed_pct": 100.0 * sum(r["failed"] for r in runs) / attempted,
            "end_to_end": {},
            "per_layer": {name: m["value"]
                          for name, m in traced["metrics"].items()},
        }
        print(f"{workload}: correct={entry['correct']} "
              f"failed_pct={entry['failed_pct']:.1f} ({attempted} children)")
        for name, unit in END_TO_END.items():
            values = [r["metrics"][name]["value"] for r in runs]
            mid = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (mid, mid, mid))
            entry["end_to_end"][name] = {
                "unit": unit, "median": mid, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / mid, "n": len(values),
                "values": values,
            }
            print(f"  {name:14s} {mid:12.5g} {unit:4s} q1={q1:.5g} q3={q3:.5g} "
                  f"spread={100 * (q3 - q1) / mid:.1f}% n={len(values)}")
        for name, value in entry["per_layer"].items():
            print(f"    {name:32s} {value:14.6g}")
        report["workloads"][workload] = entry
    if out:
        Path(out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Quartz reproduction layer benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summary", action="store_true",
                        help="run every workload at seeds 1..10 plus one "
                             "traced run, print medians and quartiles")
    parser.add_argument("--out", help="write the --summary report here")
    parser.add_argument("--record-references", action="store_true",
                        help="rewrite reference.json from the current code")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no quartz-repro sources under {ROOT / 'src'}; run "
              "from the repository root", file=sys.stderr)
        return 2
    if args.summary:
        return summarize(args.seconds, args.out)
    if args.record_references:
        return record_references()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return run_once(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
