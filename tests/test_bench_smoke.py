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


@pytest.mark.parametrize("workload", ["desk-train", "long-utts"])
def test_bench_toy_is_correct(workload):
    # long-utts mixes lengths, and both workloads repeat utterances within a
    # training batch
    proc = subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", "0", "--toy",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
