"""Tracing must not perturb what it measures.

Two traced runs of the same workload must count the same work layer by
layer, and each program's traced child must give the same experiment digest
as its untraced child.  Run from the repository root::

    python3 -m pytest layerbench/test_layerbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Per-layer counts that are pure functions of the simulated work.
EXACT = (
    "sim.events",
    "hw.cache_resolves",
    "quartz.epochs",
    "explore.executions",
    "quartz.delay_injected_ms",
)


def traced_run(workload: str) -> tuple:
    """(result line, digests line) of one ``--trace 1`` run."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "layerbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


@pytest.mark.parametrize("workload", ["validation", "explore"])
def test_traced_counts_repeat_and_digest_matches_untraced(workload):
    first, first_digests = traced_run(workload)
    second, second_digests = traced_run(workload)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    # Each program's untraced and traced children share one digest.
    assert all(len(d) == 1 for d in first_digests["digests"].values())
    assert first_digests == second_digests
    counts = {name: first["metrics"][name]["value"] for name in EXACT}
    assert counts == {name: second["metrics"][name]["value"] for name in EXACT}
    assert counts["sim.events"] > 0 and counts["hw.cache_resolves"] > 0
    if workload == "explore":
        assert counts["explore.executions"] > 0
    else:
        assert counts["quartz.epochs"] > 0
        assert counts["quartz.delay_injected_ms"] > 0
        assert first["metrics"]["service.ops"]["value"] > 0
        assert first["metrics"]["workloads.bfs_expand_s"]["value"] > 0
