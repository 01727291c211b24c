"""Tests for the streaming, checkpointed sweep engine.

The load-bearing properties, in order:

* **Digest stability** — an interrupted-then-resumed sweep exports the
  same bytes (content digest) as an uninterrupted one, and only the
  unfinished specs are re-executed on resume.
* **Streaming** — a large grid is merged through a bounded out-of-order
  buffer; the full result list is never resident.
* **Integrity** — checkpointed records are digest-verified before
  reuse; a tampered shard record is silently re-executed, never
  trusted.
"""

import json

import pytest

from repro.errors import RunInterrupted, ValidationError
from repro.hw import IVY_BRIDGE
from repro.quartz.config import QuartzConfig
from repro.units import MILLISECOND
from repro.validation import export
from repro.validation.experiments.sweeps import (
    SWEEP_PRESETS,
    get_sweep_preset,
    resume_sweep,
    start_sweep,
    sweep_status,
)
from repro.validation.runner import (
    RunSpec,
    consume_run_stats,
    reset_run_stats,
    run_specs,
)
from repro.validation.sweep import (
    SweepJournal,
    canonical_spec,
    grid_digest,
    run_sweep,
    spec_fingerprint,
)
from repro.workloads.memlat import MemLatConfig


def _memlat_spec(seed: int, target_ns: float = 400.0) -> RunSpec:
    return RunSpec(
        workload="memlat",
        config=MemLatConfig(iterations=20_000),
        arch_name=IVY_BRIDGE.name,
        mode="conf1",
        seed=seed,
        quartz=QuartzConfig(
            nvm_read_latency_ns=target_ns, max_epoch_ns=1.0 * MILLISECOND
        ),
    )


# ----------------------------------------------------------------------
# Fingerprints and canonical form
# ----------------------------------------------------------------------


def test_fingerprint_is_stable_across_instances():
    assert spec_fingerprint(_memlat_spec(1)) == spec_fingerprint(_memlat_spec(1))


def test_fingerprint_sees_every_knob():
    base = spec_fingerprint(_memlat_spec(1))
    assert spec_fingerprint(_memlat_spec(2)) != base
    assert spec_fingerprint(_memlat_spec(1, target_ns=500.0)) != base


def test_canonical_spec_is_json_stable():
    spec = _memlat_spec(3)
    text = json.dumps(canonical_spec(spec), sort_keys=True)
    assert text == json.dumps(canonical_spec(_memlat_spec(3)), sort_keys=True)


def test_grid_digest_is_order_sensitive():
    prints = [spec_fingerprint(_memlat_spec(seed)) for seed in (1, 2)]
    assert grid_digest(prints) != grid_digest(list(reversed(prints)))


# ----------------------------------------------------------------------
# Journal round-trip and durability
# ----------------------------------------------------------------------


def _fresh_journal(tmp_path, specs, name="test"):
    return SweepJournal.create(
        tmp_path / name,
        [spec_fingerprint(spec) for spec in specs],
        name=name,
        knobs={"suite": "test"},
    )


def test_journal_roundtrip_reloads_results(tmp_path):
    specs = [_memlat_spec(seed) for seed in (1, 2)]
    results = run_specs(specs, jobs=1)
    journal = _fresh_journal(tmp_path, specs)
    for spec, result in zip(specs, results):
        journal.record_result(result.index, spec_fingerprint(spec), result)
    journal.close()

    reopened = SweepJournal.open(tmp_path / "test")
    assert len(reopened.completed) == 2
    for spec, result in zip(specs, results):
        record = reopened.completed[spec_fingerprint(spec)]
        assert reopened.verify(record)
        loaded = reopened.load_result(record)
        assert (
            loaded.workload_result.measured_latency_ns
            == result.workload_result.measured_latency_ns
        )
        assert loaded.events == result.events
    reopened.close()


def test_journal_refuses_to_clobber(tmp_path):
    specs = [_memlat_spec(1)]
    _fresh_journal(tmp_path, specs).close()
    with pytest.raises(ValidationError, match="already exists"):
        _fresh_journal(tmp_path, specs)


def test_journal_tolerates_torn_trailing_record(tmp_path):
    specs = [_memlat_spec(seed) for seed in (1, 2)]
    results = run_specs(specs, jobs=1)
    journal = _fresh_journal(tmp_path, specs)
    journal.record_result(0, spec_fingerprint(specs[0]), results[0])
    journal.close()
    # A crash mid-append leaves a torn final line.
    with open(journal.journal_path, "a", encoding="utf-8") as handle:
        handle.write('{"type": "done", "index": 1, "finge')

    reopened = SweepJournal.open(tmp_path / "test")
    assert len(reopened.completed) == 1
    assert spec_fingerprint(specs[0]) in reopened.completed
    reopened.close()


def test_run_sweep_rejects_mismatched_journal(tmp_path):
    journal = _fresh_journal(tmp_path, [_memlat_spec(1)])
    with pytest.raises(ValidationError, match="does not match this grid"):
        run_sweep([_memlat_spec(2)], journal=journal, jobs=1)


# ----------------------------------------------------------------------
# Streaming merge semantics
# ----------------------------------------------------------------------


def test_consume_sees_submission_order_for_any_job_count():
    specs = [_memlat_spec(seed) for seed in (1, 2, 3, 4, 5)]

    def rows_at(jobs):
        rows = []
        run_sweep(
            specs, jobs=jobs,
            consume=lambda spec, result: rows.append(
                (result.index, spec.seed,
                 result.workload_result.measured_latency_ns)
            ),
        )
        return rows

    sequential = rows_at(1)
    assert [row[0] for row in sequential] == [0, 1, 2, 3, 4]
    assert rows_at(3) == sequential


def test_report_counts_and_peak_buffer():
    specs = [_memlat_spec(seed) for seed in (1, 2, 3)]
    reset_run_stats()
    report = run_sweep(specs, jobs=1)
    assert (report.total, report.executed, report.skipped) == (3, 3, 0)
    # Sequential execution merges every result immediately.
    assert report.peak_buffered <= 1
    stats = consume_run_stats()
    assert stats.counters["sweep.queue_depth"] == 3
    assert stats.telemetry()["sweep"]["stream_merge_peak_rows"] <= 1


def test_large_grid_streams_through_bounded_buffer():
    """The >=500-spec acceptance criterion: the engine never holds the
    grid's results in memory — the out-of-order merge buffer stays far
    below the grid size, and telemetry records its high-water mark."""
    preset = get_sweep_preset("latency-grid")
    specs = preset.build("large")
    assert len(specs) >= 500
    seen = []
    reset_run_stats()
    report = run_sweep(
        specs, jobs=2,
        consume=lambda spec, result: seen.append(result.index),
    )
    assert seen == list(range(len(specs)))
    assert report.executed == len(specs)
    assert 1 <= report.peak_buffered <= 64 < len(specs)
    telemetry = consume_run_stats().telemetry()
    assert telemetry["sweep"]["stream_merge_peak_rows"] == report.peak_buffered


# ----------------------------------------------------------------------
# Checkpoint / resume (the digest acceptance criterion)
# ----------------------------------------------------------------------


def _export_digest(run):
    stats = consume_run_stats()
    document = export.build_document(
        run.result,
        export.build_manifest(
            stats=stats,
            knobs={
                "command": "sweep",
                "preset": run.preset,
                "scale": run.scale,
            },
        ),
        telemetry=stats.telemetry() if stats is not None else None,
    )
    return export.content_digest(document), document


def test_interrupted_then_resumed_sweep_exports_identical_digest(tmp_path):
    """>=100-spec grid: crash deterministically partway, resume, and the
    merged export digest is byte-identical to the uninterrupted run's —
    with only the unfinished specs re-executed."""
    preset, scale = "latency-grid", "small"
    total = len(get_sweep_preset(preset).build(scale))
    assert total >= 100
    crash_after = 40

    reset_run_stats()
    reference = start_sweep(preset, scale, tmp_path / "ref", jobs=1)
    assert reference.report.executed == total
    reference_digest, reference_doc = _export_digest(reference)

    reset_run_stats()
    with pytest.raises(RunInterrupted) as excinfo:
        start_sweep(
            preset, scale, tmp_path / "crashed", jobs=1,
            interrupt_after=crash_after,
        )
    assert excinfo.value.completed == crash_after
    assert excinfo.value.total == total
    assert consume_run_stats().stop_reason == "interrupted"

    status = sweep_status(tmp_path / "crashed")
    assert status["done"] == crash_after
    assert status["remaining"] == total - crash_after

    reset_run_stats()
    resumed = resume_sweep(tmp_path / "crashed", jobs=1)
    # Only the unfinished specs ran; the rest came from checkpoints.
    assert resumed.report.executed == total - crash_after
    assert resumed.report.skipped == crash_after
    assert resumed.report.tampered == 0
    resumed_digest, resumed_doc = _export_digest(resumed)

    assert resumed_digest == reference_digest
    assert export.experiment_digest(resumed_doc) == export.experiment_digest(
        reference_doc
    )
    assert resumed_doc["experiment"] == reference_doc["experiment"]


def test_tampered_checkpoint_is_reexecuted_not_trusted(tmp_path):
    specs = [_memlat_spec(seed) for seed in (1, 2, 3, 4)]
    rows = []
    journal = _fresh_journal(tmp_path, specs)
    run_sweep(
        specs, journal=journal, jobs=1,
        consume=lambda spec, result: rows.append(
            result.workload_result.measured_latency_ns
        ),
    )

    # Corrupt the payload byte of one checkpointed shard record.
    shard_path = tmp_path / "test" / "results.jsonl"
    lines = shard_path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    record["payload"] = record["payload"][:-4] + (
        "AAAA" if not record["payload"].endswith("AAAA") else "BBBB"
    )
    lines[1] = json.dumps(record, sort_keys=True)
    shard_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    resumed_rows = []
    journal = SweepJournal.open(tmp_path / "test")
    report = run_sweep(
        specs, journal=journal, jobs=1,
        consume=lambda spec, result: resumed_rows.append(
            result.workload_result.measured_latency_ns
        ),
    )
    assert report.tampered == 1
    assert report.executed == 1  # the tampered spec, nothing else
    assert report.skipped == 3
    assert resumed_rows == rows


def test_resume_with_nothing_left_reuses_everything(tmp_path):
    preset, scale = "latency-grid", "smoke"
    reset_run_stats()
    first = start_sweep(preset, scale, tmp_path / "done", jobs=1)
    first_digest, _ = _export_digest(first)

    reset_run_stats()
    again = resume_sweep(tmp_path / "done", jobs=1)
    assert again.report.executed == 0
    assert again.report.skipped == again.report.total
    assert _export_digest(again)[0] == first_digest


def test_interrupt_in_parallel_mode_checkpoints_completed_specs(tmp_path):
    preset, scale = "latency-grid", "smoke"
    with pytest.raises(RunInterrupted):
        start_sweep(
            preset, scale, tmp_path / "par", jobs=2, interrupt_after=2,
        )
    consume_run_stats()
    status = sweep_status(tmp_path / "par")
    assert status["done"] >= 2
    reset_run_stats()
    resumed = resume_sweep(tmp_path / "par", jobs=2)
    assert resumed.report.total == status["done"] + resumed.report.executed
    consume_run_stats()


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------


def test_every_preset_builds_every_scale_with_unique_fingerprints():
    for name, preset in SWEEP_PRESETS.items():
        for scale in preset.scales:
            specs = preset.build(scale)
            prints = [spec_fingerprint(spec) for spec in specs]
            assert len(set(prints)) == len(prints), (name, scale)


def test_preset_scales_are_ordered_by_size():
    for preset in SWEEP_PRESETS.values():
        sizes = [len(preset.build(scale)) for scale in ("smoke", "small")]
        assert sizes[0] < sizes[1]
        assert "large" in preset.scales


def test_unknown_scale_rejected():
    with pytest.raises(ValidationError, match="unknown scale"):
        get_sweep_preset("latency-grid").build("galactic")
