"""Smoke test of the pipeline benchmark at toy size.

The benchmark checks the CLI's outputs against its own NumPy reference
forward (to 1e-9), so this also guards the kernel in ``phonosim.net``
against changes the unit tests would not see.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_toy(workload, trace):
    proc = subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace), "--toy",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", ["desk-train", "long-utts"])
def test_bench_toy_is_correct(workload):
    # long-utts mixes lengths, and both workloads repeat utterances within a
    # training batch
    _run_toy(workload, 0)


def test_bench_toy_trace_counts_every_layer():
    # a per-layer metric keyed to a function name (a time, a count or a
    # ratio) reads 0 once that function is renamed or removed, so every one
    # of the 37 must stay above 0
    metrics = _run_toy("desk-train", 1)["metrics"]
    dead = sorted(k for k, m in metrics.items() if not m["value"] > 0)
    assert len(metrics) == 37 and not dead, dead
