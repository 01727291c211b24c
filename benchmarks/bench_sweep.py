#!/usr/bin/env python
"""Benchmark the streaming sweep engine against the materializing runner.

Runs the same >=500-spec grid twice and emits ``BENCH_sweep.json``:

* **runner-materialized** — the pre-sweep interface: execute the whole
  grid through :func:`repro.validation.runner.run_specs`, hold every
  :class:`RunResult` in memory, then reduce to rows.  This is the
  chunked-map-era baseline the streaming engine replaces.
* **sweep-streaming** — :func:`repro.validation.sweep.run_sweep` with a
  journal: results are reduced to rows and journaled as they complete;
  only the out-of-order completion buffer is ever resident.

Each variant runs in a freshly spawned subprocess so its
``ru_maxrss`` is a clean per-variant peak, not a shared high-water
mark.  Deterministic facts (spec counts, row counts, the streaming
buffer peak) go to the digest-covered experiment section; wall times,
specs/sec, and peak RSS go to ``telemetry``, like every other
``BENCH_*.json``.  Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_sweep.py --out BENCH_sweep.json
    PYTHONPATH=src python benchmarks/bench_sweep.py --scale small --jobs 1
"""

from __future__ import annotations

import argparse
import multiprocessing
import resource
import sys
import tempfile
import time
from pathlib import Path

from repro.validation import export
from repro.validation.reporting import ExperimentResult
from repro.validation.runner import (
    consume_run_stats,
    reset_run_stats,
    run_specs,
)
from repro.validation.sweep import SweepJournal, run_sweep, spec_fingerprint
from repro.validation.experiments.sweeps import get_sweep_preset

#: The grid both variants execute (550 specs at the default scale).
PRESET = "latency-grid"


def _prewarm(scale: str) -> None:
    """Warm the calibration disk cache so neither variant measures it."""
    from repro.validation.runner import _prewarm_calibrations

    preset = get_sweep_preset(PRESET)
    _prewarm_calibrations(preset.build(scale))


def _peak_rss_mib() -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def bench_materialized(scale: str, jobs: int) -> dict:
    """Baseline: full-grid run_specs, rows reduced after the fact."""
    preset = get_sweep_preset(PRESET)
    specs = preset.build(scale)
    reset_run_stats()
    started = time.perf_counter()
    results = run_specs(specs, jobs=jobs)
    rows = [
        preset.row(spec, result) for spec, result in zip(specs, results)
    ]
    wall_s = time.perf_counter() - started
    stats = consume_run_stats()
    return {
        "variant": "runner-materialized",
        "specs": len(specs),
        "rows": len(rows),
        "resident_rows": len(results),
        "wall_s": wall_s,
        "specs_per_s": len(specs) / wall_s if wall_s else 0.0,
        "peak_rss_mib": _peak_rss_mib(),
        "events": stats.events if stats is not None else 0,
    }


def bench_streaming(scale: str, jobs: int) -> dict:
    """Streaming: journaled run_sweep, rows consumed as they complete."""
    preset = get_sweep_preset(PRESET)
    specs = preset.build(scale)
    rows = []
    reset_run_stats()
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="bench-sweep-") as tmp:
        journal = SweepJournal.create(
            tmp,
            [spec_fingerprint(spec) for spec in specs],
            name=PRESET,
            knobs={"preset": PRESET, "scale": scale},
        )
        run_sweep(
            specs,
            journal=journal,
            jobs=jobs,
            consume=lambda spec, result: rows.append(
                preset.row(spec, result)
            ),
        )
    wall_s = time.perf_counter() - started
    stats = consume_run_stats()
    return {
        "variant": "sweep-streaming",
        "specs": len(specs),
        "rows": len(rows),
        "resident_rows": (
            stats.counters.get("sweep.stream_merge_peak_rows", 0) if stats else 0
        ),
        "wall_s": wall_s,
        "specs_per_s": len(specs) / wall_s if wall_s else 0.0,
        "peak_rss_mib": _peak_rss_mib(),
        "events": stats.events if stats is not None else 0,
    }


def _in_subprocess(target, scale: str, jobs: int) -> dict:
    """Run one variant in a spawned child for an isolated RSS peak."""
    context = multiprocessing.get_context("spawn")
    with context.Pool(processes=1) as pool:
        return pool.apply(target, (scale, jobs))


def build_document(baseline: dict, streaming: dict, args, wall_s: float) -> dict:
    result = ExperimentResult(
        experiment_id="sweep-bench",
        title="Streaming sweep engine vs materializing runner",
        columns=["variant", "specs", "rows", "resident_rows", "events"],
    )
    for phase in (baseline, streaming):
        result.add_row(
            variant=phase["variant"],
            specs=phase["specs"],
            rows=phase["rows"],
            resident_rows=phase["resident_rows"],
            events=phase["events"],
        )
    result.note(
        "resident_rows: results held in memory at once — the full grid "
        "for the materializing baseline, the out-of-order merge buffer "
        "peak for the streaming engine; throughput and RSS live in "
        "telemetry"
    )
    manifest = export.build_manifest(
        stats=None,
        knobs={
            "command": "bench_sweep",
            "preset": PRESET,
            "scale": args.scale,
            "jobs": args.jobs,
        },
    )
    telemetry = {
        "driver_wall_s": wall_s,
        "baseline": {
            key: baseline[key]
            for key in ("wall_s", "specs_per_s", "peak_rss_mib")
        },
        "streaming": {
            key: streaming[key]
            for key in ("wall_s", "specs_per_s", "peak_rss_mib")
        },
        "throughput_ratio": (
            streaming["specs_per_s"] / baseline["specs_per_s"]
            if baseline["specs_per_s"]
            else None
        ),
    }
    return export.build_document(result, manifest, telemetry=telemetry)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", default="large",
        help="latency-grid scale to run (default: large, 550 specs)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="runner worker processes (default 1: stable wall times)",
    )
    parser.add_argument(
        "--out", default="BENCH_sweep.json", help="output document path"
    )
    args = parser.parse_args(argv)

    _prewarm(args.scale)
    started = time.perf_counter()
    baseline = _in_subprocess(bench_materialized, args.scale, args.jobs)
    streaming = _in_subprocess(bench_streaming, args.scale, args.jobs)
    wall_s = time.perf_counter() - started

    if baseline["rows"] != streaming["rows"]:
        print(
            f"error: row-count mismatch — baseline {baseline['rows']} vs "
            f"streaming {streaming['rows']}",
            file=sys.stderr,
        )
        return 1

    document = build_document(baseline, streaming, args, wall_s)
    Path(args.out).write_text(
        export.dumps_document(document), encoding="utf-8"
    )
    for phase in (baseline, streaming):
        print(
            f"{phase['variant']}: {phase['specs']} spec(s) in "
            f"{phase['wall_s']:.2f}s ({phase['specs_per_s']:.0f} specs/s), "
            f"{phase['resident_rows']} resident row(s), "
            f"peak RSS {phase['peak_rss_mib']:.1f} MiB"
        )
    print(f"written to {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
