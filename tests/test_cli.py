"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.validation.experiments import REGISTRY
from repro.validation.reporting import ExperimentResult


def test_list_command(capsys):
    assert main(["list"]) == 0
    output = capsys.readouterr().out
    assert "figure12" in output
    assert "pagerank-validation" in output


def test_calibrate_command(capsys):
    assert main(["calibrate", "--arch", "ivy-bridge"]) == 0
    output = capsys.readouterr().out
    assert "local DRAM latency" in output
    assert "bandwidth table" in output


def test_run_command_with_arch_and_trials(capsys):
    assert main(["run", "table2", "--arch", "ivy-bridge", "--trials", "1"]) == 0
    output = capsys.readouterr().out
    assert "IvyBridge" in output
    assert "SandyBridge" not in output


def test_run_writes_output_file(tmp_path, capsys):
    target = tmp_path / "table.txt"
    assert main(["run", "table2", "--arch", "haswell", "--trials", "1",
                 "-o", str(target)]) == 0
    capsys.readouterr()
    assert "Haswell" in target.read_text()


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["run", "figure99"])


def test_unknown_arch_rejected():
    with pytest.raises(KeyError):
        main(["run", "table2", "--arch", "skylake"])


def _stub_driver():
    result = ExperimentResult(
        experiment_id="stub", title="Stub experiment", columns=["x"]
    )
    result.add_row(x=1)
    return result


def test_unsupported_flags_note_instead_of_crashing(monkeypatch, capsys):
    """Flags a driver has no parameter for are noted, never a TypeError."""
    monkeypatch.setitem(REGISTRY, "stub-exp", lambda: _stub_driver())
    assert main([
        "run", "stub-exp",
        "--arch", "ivy-bridge", "--trials", "2", "--jobs", "2",
    ]) == 0
    captured = capsys.readouterr()
    assert "Stub experiment" in captured.out
    assert "does not take an architecture" in captured.err
    assert "does not take --trials" in captured.err
    assert "does not take --jobs" in captured.err


def test_jobs_flag_forwarded(monkeypatch, capsys):
    seen = {}

    def driver(jobs=None):
        seen["jobs"] = jobs
        return _stub_driver()

    monkeypatch.setitem(REGISTRY, "stub-exp", driver)
    assert main(["run", "stub-exp", "--jobs", "3"]) == 0
    assert seen["jobs"] == 3
    # Without the flag the CLI default (env override, else all cores)
    # is resolved and passed along.
    monkeypatch.setenv("QUARTZ_REPRO_JOBS", "5")
    assert main(["run", "stub-exp"]) == 0
    assert seen["jobs"] == 5
    capsys.readouterr()


def test_run_prints_runner_summary(capsys):
    assert main(["run", "table2", "--arch", "ivy-bridge", "--trials", "1",
                 "--jobs", "1"]) == 0
    output = capsys.readouterr().out
    assert "runner:" in output
    assert "calibration cache:" in output


def test_calibrate_refresh(capsys):
    from repro.quartz.calibration import cache_counters

    before = cache_counters.measurements
    assert main(["calibrate", "--arch", "ivy-bridge", "--refresh"]) == 0
    assert cache_counters.measurements == before + 1
    assert "local DRAM latency" in capsys.readouterr().out


# ----------------------------------------------------------------------
# JSON export and trace streaming
# ----------------------------------------------------------------------
def test_run_format_json_stdout_is_pure_document(capsys):
    import json

    from repro.validation import export

    assert main(["run", "table2", "--arch", "ivy-bridge", "--trials", "1",
                 "--jobs", "1", "--format", "json"]) == 0
    captured = capsys.readouterr()
    # stdout parses as exactly one JSON document; chatter is on stderr.
    document = json.loads(captured.out)
    assert document["schema"] == export.EXPORT_SCHEMA
    assert document["experiment"]["experiment_id"] == "table2"
    assert document["manifest"]["content_digest"]
    assert document["manifest"]["knobs"]["experiment"] == "table2"
    assert document["telemetry"]["jobs"] == 1
    assert "completed in" in captured.err
    assert "runner:" in captured.err


def test_run_format_json_out_file_validates(tmp_path, capsys):
    from repro.validation import export

    target = tmp_path / "table2.json"
    assert main(["run", "table2", "--arch", "ivy-bridge", "--trials", "1",
                 "--jobs", "1", "--format", "json", "--out", str(target)]) == 0
    capsys.readouterr()
    # The file passes full schema + digest validation on reload.
    document = export.load_experiment_json(target)
    rebuilt = export.result_from_document(document)
    assert rebuilt.experiment_id == "table2"
    assert rebuilt.rows
    manifest = export.manifest_from_document(document)
    assert "ivy-bridge" in manifest.archs


def test_trace_out_and_summarize_roundtrip(tmp_path, capsys):
    trace_file = tmp_path / "epochs.jsonl"
    assert main(["run", "figure12", "--arch", "ivy-bridge", "--trials", "1",
                 "--trace-out", str(trace_file)]) == 0
    captured = capsys.readouterr()
    assert "epoch trace:" in captured.out
    assert trace_file.exists()
    assert main(["trace", "summarize", str(trace_file)]) == 0
    summary = capsys.readouterr().out
    assert "epochs over" in summary
    assert "runs traced:" in summary
    assert "overhead fully amortized:" in summary


def test_trace_out_forces_single_job(tmp_path, capsys):
    trace_file = tmp_path / "epochs.jsonl"
    assert main(["run", "figure12", "--arch", "ivy-bridge", "--trials", "1",
                 "--jobs", "4", "--trace-out", str(trace_file)]) == 0
    captured = capsys.readouterr()
    assert "forcing --jobs 1" in captured.err
    assert trace_file.exists()


def test_trace_summarize_bad_file_errors(tmp_path, capsys):
    bogus = tmp_path / "not-a-trace.jsonl"
    bogus.write_text("{}\n")
    assert main(["trace", "summarize", str(bogus)]) == 1
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Fault injection and invariant checking
# ----------------------------------------------------------------------
def test_run_with_faults_records_plan_in_manifest(capsys):
    import json

    assert main([
        "run", "figure12", "--arch", "ivy-bridge", "--trials", "1",
        "--jobs", "1", "--format", "json",
        "--faults", "signal-delay(ns=400000,p=1.0); seed(3)",
        "--check-invariants",
    ]) == 0
    captured = capsys.readouterr()
    document = json.loads(captured.out)
    faults = document["manifest"]["faults"]
    assert faults["signal_delay_ns"] == 400000.0
    assert faults["seed"] == 3
    assert document["manifest"]["knobs"]["check_invariants"] is True
    assert document["telemetry"]["faults"]["injections"]
    assert document["telemetry"]["invariants"]["violations"] == 0
    assert "faults:" in captured.err
    assert "invariants:" in captured.err


def test_malformed_faults_spec_exits_2_with_guidance(capsys):
    assert main(["run", "table2", "--faults", "bogus(x=1)"]) == 2
    captured = capsys.readouterr()
    assert "error: unknown fault kind 'bogus'" in captured.err
    assert "supported kinds:" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_malformed_fault_parameter_exits_2(capsys):
    assert main([
        "run", "table2", "--faults", "timer-jitter(nope=1)",
    ]) == 2
    captured = capsys.readouterr()
    assert "unknown parameter 'nope'" in captured.err
    assert "expected: drift, rel" in captured.err


def test_invariant_violation_exits_3_without_traceback(monkeypatch, capsys):
    from repro.quartz import epoch as epoch_module

    real = epoch_module.amortize_delay

    def corrupt(pool_ns, overhead_ns, delay_ns):
        injected, amortized, new_pool = real(pool_ns, overhead_ns, delay_ns)
        return injected + 1000.0, amortized, new_pool

    monkeypatch.setattr(epoch_module, "amortize_delay", corrupt)
    assert main([
        "run", "figure12", "--arch", "ivy-bridge", "--trials", "1",
        "--jobs", "1", "--check-invariants",
    ]) == 3
    captured = capsys.readouterr()
    assert "invariant 'delay-conservation' violated" in captured.err
    assert "re-run without --check-invariants" in captured.err
    assert "Traceback" not in captured.err


def test_without_check_invariants_corruption_passes_silently(monkeypatch, capsys):
    # The raw (faulted) behaviour remains observable: without the flag
    # the same corrupted accounting completes with exit code 0.
    from repro.quartz import epoch as epoch_module

    real = epoch_module.amortize_delay

    def corrupt(pool_ns, overhead_ns, delay_ns):
        injected, amortized, new_pool = real(pool_ns, overhead_ns, delay_ns)
        return injected + 1000.0, amortized, new_pool

    monkeypatch.setattr(epoch_module, "amortize_delay", corrupt)
    assert main([
        "run", "figure12", "--arch", "ivy-bridge", "--trials", "1",
        "--jobs", "1",
    ]) == 0


# ----------------------------------------------------------------------
# The sweep subcommand family
# ----------------------------------------------------------------------


def test_sweep_run_smoke_exits_zero(tmp_path, capsys):
    assert main([
        "sweep", "run", "latency-grid", "--scale", "smoke",
        "--dir", str(tmp_path / "grid"), "--jobs", "1",
    ]) == 0
    captured = capsys.readouterr()
    assert "4 spec(s), 4 executed" in captured.out
    assert (tmp_path / "grid" / "journal.jsonl").exists()
    assert (tmp_path / "grid" / "results.jsonl").exists()


def test_sweep_interrupt_status_resume_roundtrip(tmp_path, capsys):
    """The CI smoke in miniature: crash deterministically, inspect,
    resume, and the resumed JSON document matches a fresh reference."""
    import json

    sweep_dir = str(tmp_path / "grid")
    assert main([
        "sweep", "run", "latency-grid", "--scale", "smoke",
        "--dir", sweep_dir, "--jobs", "1", "--interrupt-after", "2",
    ]) == 130
    captured = capsys.readouterr()
    assert "sweep interrupted" in captured.err
    assert "sweep resume --dir" in captured.err

    assert main(["sweep", "status", "--dir", sweep_dir]) == 0
    assert "2/4 spec(s) checkpointed" in capsys.readouterr().out

    resumed_path = tmp_path / "resumed.json"
    assert main([
        "sweep", "resume", "--dir", sweep_dir, "--jobs", "1",
        "--format", "json", "-o", str(resumed_path),
    ]) == 0
    assert "2 reused from checkpoints" in capsys.readouterr().err

    reference_path = tmp_path / "reference.json"
    assert main([
        "sweep", "run", "latency-grid", "--scale", "smoke",
        "--dir", str(tmp_path / "ref"), "--jobs", "1",
        "--format", "json", "-o", str(reference_path),
    ]) == 0
    capsys.readouterr()
    resumed = json.loads(resumed_path.read_text())
    reference = json.loads(reference_path.read_text())
    assert (
        resumed["manifest"]["content_digest"]
        == reference["manifest"]["content_digest"]
    )


def test_sweep_run_refuses_existing_journal(tmp_path, capsys):
    sweep_dir = str(tmp_path / "grid")
    assert main([
        "sweep", "run", "latency-grid", "--scale", "smoke",
        "--dir", sweep_dir, "--jobs", "1",
    ]) == 0
    capsys.readouterr()
    assert main([
        "sweep", "run", "latency-grid", "--scale", "smoke",
        "--dir", sweep_dir, "--jobs", "1",
    ]) == 2
    assert "already exists" in capsys.readouterr().err


def test_sweep_status_missing_directory_exits_two(tmp_path, capsys):
    assert main(["sweep", "status", "--dir", str(tmp_path / "nope")]) == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_unknown_preset_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["sweep", "run", "no-such-grid", "--dir", str(tmp_path / "x")])


# ----------------------------------------------------------------------
# The shared execute path: JSON purity and interrupt exit codes
# ----------------------------------------------------------------------


@pytest.mark.parametrize("argv, section", [
    (["crash-check", "kvstore", "--mutant", "none", "--shards", "1"], "crash"),
    (["explore", "mutex-log", "--mutant", "none", "--shards", "1"], "explore"),
    (["service", "latency-smoke"], "service"),
])
def test_format_json_stdout_is_pure_document(argv, section, capsys):
    import json

    assert main([*argv, "--jobs", "1", "--format", "json"]) == 0
    captured = capsys.readouterr()
    document = json.loads(captured.out)
    assert document["manifest"][section]
    assert document["manifest"]["knobs"]["command"] == argv[0]
    assert document["telemetry"][section]
    assert "completed in" in captured.err
    assert "runner:" in captured.err


def _interrupting_driver(*args, **kwargs):
    """A driver that finishes one run, then is interrupted."""
    from repro.errors import RunInterrupted
    from repro.validation.runner import RunSpec, run_specs
    from repro.workloads.memlat import MemLatConfig

    run_specs(
        [RunSpec("memlat", MemLatConfig(iterations=1_000), "ivy-bridge")],
        jobs=1,
    )
    raise RunInterrupted("stub interrupt", completed=1, total=2)


@pytest.mark.parametrize("command", [
    "run", "crash-check", "explore", "service", "sweep",
])
def test_interrupted_driver_exits_130_with_summary(
    command, monkeypatch, tmp_path, capsys
):
    from repro.validation.experiments import crash, explore, sweeps

    monkeypatch.setitem(REGISTRY, "stub-exp", _interrupting_driver)
    monkeypatch.setitem(REGISTRY, "service-latency", _interrupting_driver)
    monkeypatch.setattr(crash, "run_crash_check", _interrupting_driver)
    monkeypatch.setattr(explore, "run_explore_check", _interrupting_driver)
    monkeypatch.setattr(sweeps, "start_sweep", _interrupting_driver)
    argv = {
        "run": ["run", "stub-exp"],
        "crash-check": ["crash-check", "kvstore"],
        "explore": ["explore", "mutex-log"],
        "service": ["service", "latency-smoke"],
        "sweep": ["sweep", "run", "latency-grid", "--dir", str(tmp_path)],
    }[command]
    assert main([*argv, "--jobs", "1"]) == 130
    captured = capsys.readouterr()
    assert "interrupted: stub interrupt" in captured.err
    assert "runner: 1 runs" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""

