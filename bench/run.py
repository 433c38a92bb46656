"""Run one phonosim pipeline workload and print its metrics.

    python3 bench/run.py --workload desk-train --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The BLAS/OpenMP thread variables
are set to 1 before any benchmark process starts Python.  Untraced, the
workload's inputs are made in two or three separate processes and
``setup_s`` is their median; the last of them goes on to time the stages
in whole rounds for ``--seconds`` of stage time and to check the outputs.
Traced, one process does both with every public phonosim function wrapped,
and the per-layer metrics are printed instead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Results go to ``.bench_results/``; generated corpora to
``.bench_work/``, removed when the run ends.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEADLINE_S = 175.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "train_pairs_per_s": "pairs/s",
}


def _terminate(signum, frame):
    # subprocess.run kills and reaps its child when an exception unwinds it
    raise SystemExit(128 + signum)


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def spawn(args, env, work: Path, result: Path, deadline: float, setup_only: bool) -> dict:
    """Run worker.py to completion and return the result it wrote."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(work), "--result", str(result),
    ]
    if args.toy:
        cmd.append("--toy")
    if setup_only:
        cmd.append("--setup-only")
    if args.trace:
        cmd += ["--trace-out", str(result.with_suffix(".trace.json"))]
    t_spawn = time.monotonic()
    cmd += ["--t-spawn", repr(t_spawn)]
    subprocess.run(
        cmd, env=env, stdout=sys.stderr, check=True,
        timeout=max(1.0, deadline - t_spawn),
    )
    with open(result) as fh:
        return json.load(fh)


def end_to_end(setups: list[dict], main: dict) -> dict:
    rounds = main["rounds"]
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "pipeline_s": statistics.median(r["pipeline_s"] for r in rounds),
        "peak_rss_mb": main["peak_rss_mb"],
        "train_pairs_per_s": statistics.median(
            r["train_pairs"] * main["epochs"] / r["stages"]["train"] for r in rounds
        ),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(worker.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="stage time to measure; rounds are whole")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="toy-size inputs: every check, in seconds")
    args = ap.parse_args()
    if not (ROOT / "src" / "phonosim" / "__init__.py").is_file():
        print(f"error: no phonosim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    deadline = time.monotonic() + DEADLINE_S

    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"

    tag = f"{args.workload}-seed{args.seed}{'-toy' if args.toy else ''}"
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    sizes = worker.TOY if args.toy else worker.WORKLOADS
    n_setups = 1 if args.trace else sizes[args.workload].setups
    setups = []
    try:
        for i in range(n_setups):
            last = i == n_setups - 1
            name = f"{tag}-trace{args.trace}.json" if last else f"{tag}-setup{i}.json"
            setups.append(spawn(args, env, work / str(i), results / name, deadline, not last))
            worker.remove_tree(work / str(i))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: benchmark process failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if work.exists():
            worker.remove_tree(work)

    main_result = setups[-1]
    if "error" in main_result:
        print(f"error: {main_result['error']}", file=sys.stderr)
        return 1
    facts = dict(main_result["machine"], git_sha=git_sha())
    attempted = sum(s["attempted"] for s in setups)
    failed = sum(s["failed"] for s in setups)
    correct = all(c["ok"] for c in main_result["checks"])
    if args.trace:
        import tracing

        layers = main_result["per_layer"]
        metrics = {n: {"value": layers[n], "unit": u} for n, u in tracing.PER_LAYER}
    else:
        metrics = end_to_end(setups, main_result)
    print(json.dumps({
        "machine": facts, "rounds": len(main_result["rounds"]),
        "held_out_accuracy": main_result["held_out_accuracy"],
    }))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
