"""Golden determinism regression: pinned experiment digests.

``experiment_digest`` hashes only the ``experiment`` section of an export
document (rows, columns, notes) — the manifest's git SHA and versions are
deliberately excluded — so these digests move if and only if simulated
results move.  Any change to the simulator's event ordering, the epoch
engine's accounting, or the model equations shows up here immediately.

To regenerate after an *intentional* behaviour change::

    PYTHONPATH=src python - <<'PY'
    import json
    from repro.validation.experiments.fast import FAST_KWARGS, run_fast
    from repro.validation.runner import reset_run_stats
    from repro.validation import export
    digests = {}
    for eid in sorted(FAST_KWARGS):
        reset_run_stats()
        result = run_fast(eid, jobs=1)
        digests[eid] = export.experiment_digest(
            {"experiment": result.to_dict()})
    with open("tests/golden/experiment_digests.json", "w") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    PY

and explain the move in the commit message.
"""

import json
from pathlib import Path

import pytest

from repro.validation import export
from repro.validation.experiments.fast import FAST_KWARGS, run_fast
from repro.validation.runner import reset_run_stats

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "experiment_digests.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def _digest(experiment_id: str) -> str:
    reset_run_stats()
    result = run_fast(experiment_id, jobs=1)
    return export.experiment_digest({"experiment": result.to_dict()})


@pytest.mark.parametrize("experiment_id", sorted(GOLDEN))
def test_experiment_digest_matches_golden(experiment_id):
    actual = _digest(experiment_id)
    expected = GOLDEN[experiment_id]
    assert actual == expected, (
        f"{experiment_id}: experiment digest moved "
        f"({actual[:12]}... != pinned {expected[:12]}...). Simulated "
        "results changed; if intentional, regenerate "
        "tests/golden/experiment_digests.json (recipe in this module's "
        "docstring) and justify the move in the commit message."
    )


def test_digest_is_stable_within_a_process():
    # Re-running in the same interpreter must not perturb global state
    # (caches, stats accumulators) in a digest-visible way.
    assert _digest("figure12") == _digest("figure12")


def test_digest_identical_with_dispatch_hooks_armed():
    # The kernel dispatches through a fast path when no hooks are armed
    # and an observable path when they are.  Arming invariant checking
    # installs a dispatch observer on every run, forcing the observable
    # path — the digest must not move by a byte.
    from repro.faults import active_faults

    fast_path = _digest("figure12")
    with active_faults(check_invariants=True):
        observed_path = _digest("figure12")
    assert observed_path == fast_path, (
        "experiment digest differs between the no-hooks fast path and "
        "the observed path; the two dispatch loops have diverged"
    )


def test_digest_identical_across_worker_counts():
    # Parallel sweep execution must not leak into results: the digest
    # with --jobs 2 must equal the pinned single-worker digest.
    reset_run_stats()
    result = run_fast("figure12", jobs=2)
    digest = export.experiment_digest({"experiment": result.to_dict()})
    assert digest == GOLDEN["figure12"]


def test_tier_sweep_digest_identical_across_worker_counts():
    # The N-tier sweep fans out one spec per (arch, tier set) through the
    # same parallel runner: its export must also be worker-count blind.
    reset_run_stats()
    result = run_fast("tier-sweep", jobs=2)
    digest = export.experiment_digest({"experiment": result.to_dict()})
    assert digest == GOLDEN["tier-sweep"]


def test_service_latency_digest_identical_across_worker_counts():
    # The KV service fans out one spec per NVM latency pair; shared
    # Python state (cache, ledgers) lives inside each run's simulator,
    # so worker count must not be able to reach the rows.
    reset_run_stats()
    result = run_fast("service-latency", jobs=2)
    digest = export.experiment_digest({"experiment": result.to_dict()})
    assert digest == GOLDEN["service-latency"]


def test_golden_file_is_well_formed():
    assert GOLDEN, "golden digest file is empty"
    for experiment_id, digest in GOLDEN.items():
        assert isinstance(digest, str) and len(digest) == 64, (
            f"{experiment_id}: pinned value is not a SHA-256 hex digest"
        )


def test_every_fast_preset_is_pinned():
    # A registry experiment without a pin could drift silently.
    assert sorted(GOLDEN) == sorted(FAST_KWARGS)
