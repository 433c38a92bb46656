"""One benchmark process: make a workload's inputs, then time its stages.

``run.py`` starts this script with the BLAS thread variables already set.
With ``--setup-only`` it stops once the inputs exist; otherwise it runs the
workload's stages in whole rounds until ``--seconds`` of stage time have
passed, checks the outputs, and writes everything it measured to
``--result`` as JSON.  Every stage goes through ``phonosim.cli.main``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import wave
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Workload:
    """Corpus shape and stage arguments of one workload."""

    speakers: int
    sentences: int          # script sentences in the manifest
    lam: float
    epochs: int
    train: str              # solo sentence ranges LO:HI
    val: str
    test: str
    features_in_setup: bool
    min_train_accuracy: float | None
    min_test_accuracy: float | None  # None: held-out accuracy is recorded, not checked
    paper_analysis: bool    # all speakers scored and the convergence direction
    joined: bool = False    # long utterances joined from consecutive sentences
    analyze_range: str | None = None  # solo range (and joined non-solo sentences)
    interactive_sessions: int = 2
    setups: int = 3         # processes that make the inputs; setup_s is their median
    corpus_seed: int | None = None  # fixed voices; None takes --seed


# Shapes and reasons are in README.md.
WORKLOADS = {
    "desk-train": Workload(
        speakers=4, sentences=20, lam=0.0, epochs=50,
        train="1:8", val="9:12", test="13:20", features_in_setup=True,
        min_train_accuracy=0.95, min_test_accuracy=0.80, paper_analysis=False,
        corpus_seed=7,
    ),
    "dyads10": Workload(
        speakers=20, sentences=40, lam=0.5, epochs=2,
        train="1:8", val="9:12", test="13:40", features_in_setup=False,
        min_train_accuracy=None, min_test_accuracy=0.80, paper_analysis=True,
        setups=2,
    ),
    "long-utts": Workload(
        speakers=4, sentences=20, lam=0.0, epochs=10,
        train="1:8", val="9:12", test="13:20", features_in_setup=True,
        min_train_accuracy=0.95, min_test_accuracy=None, paper_analysis=False,
        joined=True, analyze_range="13:16", interactive_sessions=1, corpus_seed=7,
    ),
}

# Toy sizes run every check in seconds.
TOY = {
    "desk-train": Workload(
        speakers=4, sentences=16, lam=0.0, epochs=8,
        train="1:8", val="9:12", test="13:16", features_in_setup=True,
        min_train_accuracy=0.95, min_test_accuracy=0.80, paper_analysis=False,
        setups=2, corpus_seed=7,
    ),
    "dyads10": Workload(
        speakers=4, sentences=16, lam=0.5, epochs=6,
        train="1:8", val="9:12", test="13:16", features_in_setup=False,
        min_train_accuracy=None, min_test_accuracy=0.80, paper_analysis=True,
        setups=2,
    ),
    "long-utts": Workload(
        speakers=4, sentences=16, lam=0.0, epochs=10,
        train="1:8", val="9:12", test="13:16", features_in_setup=True,
        min_train_accuracy=0.95, min_test_accuracy=None, paper_analysis=False,
        joined=True, analyze_range="13:14", interactive_sessions=1, setups=2,
        corpus_seed=7,
    ),
}

MAX_JOIN = 6  # long-utts joins 1..MAX_JOIN consecutive sentences
CHECK_SAMPLE = 64  # eval pairs re-scored by the reference forward


class StageFailed(Exception):
    pass


class Run:
    """Stage timings, operation counts and check results of one process."""

    def __init__(self, cli, workload: Workload, seed: int, work: Path, tracer):
        self.cli = cli
        self.w = workload
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []
        self.rounds: list[dict] = []
        self.held_out_accuracy: float | None = None
        self.features = str(work / "features")

    def stage(self, *argv) -> float:
        """Run one CLI subcommand in this process and return its wall time."""
        self.attempted += 1
        argv = [str(a) for a in argv]
        t = time.perf_counter()
        rc = self.cli.main(argv)
        dt = time.perf_counter() - t
        if rc != 0:
            self.failed += 1
            raise StageFailed(f"{argv[0]} exited with {rc}")
        return dt

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        self.failed += not ok
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        print(f"[check] {name}: {'ok' if ok else 'FAILED'} ({detail})", file=sys.stderr)

    def set_phase(self, phase) -> None:
        if self.tracer is not None:
            self.tracer.phase = phase

    # -- paths -------------------------------------------------------------

    @property
    def manifest(self) -> str:
        return str(self.work / "corpus" / "manifest.json")

    # -- setup -------------------------------------------------------------

    def setup(self) -> None:
        w = self.w
        base = self.work / ("base" if w.joined else "corpus")
        self.stage(
            "synth", "--speakers", w.speakers,
            "--sentences", w.sentences + (MAX_JOIN - 1 if w.joined else 0),
            "--lambda", w.lam, "--interactive-sessions", w.interactive_sessions,
            "--seed", self.seed if w.corpus_seed is None else w.corpus_seed,
            "--out", base,
        )
        if w.joined:
            join_corpus(base, self.work / "corpus", w, w.corpus_seed)
        with open(self.work / "train.config.json", "w") as fh:
            json.dump({"epochs": w.epochs}, fh)
        if w.features_in_setup:
            self.run_features()

    def run_features(self) -> float:
        return self.timed_stage("features", "--manifest", self.manifest, "--out", self.features)

    def timed_stage(self, *argv) -> float:
        """A stage whose time is reported, started with nothing left to write back.

        Without the flush, writeback of files an earlier stage wrote lands
        at a random point of a later stage.
        """
        os.sync()
        return self.stage(*argv)

    # -- one timed round -----------------------------------------------------

    def round(self, r: int) -> dict:
        """One pass over the stages, writing into fresh directories."""
        w = self.w
        out = self.work / f"round{r}"
        out.mkdir()
        times = {}
        if not w.features_in_setup:
            self.features = str(self.work / f"features{r}")
            times["features"] = self.run_features()
        times["pairs"] = 0.0
        for name, rng in (("train", w.train), ("val", w.val), ("test", w.test)):
            times["pairs"] += self.timed_stage(
                "pairs", "--manifest", self.manifest, "--condition", "solo",
                "--range", rng, "--out", out / f"{name}_pairs.json",
            )
        times["train"] = self.timed_stage(
            "train", "--features", self.features, "--pairs", out / "train_pairs.json",
            "--val-pairs", out / "val_pairs.json",
            "--config", self.work / "train.config.json", "--seed", self.seed,
            "--out", out / "model",
        )
        times["eval"] = self.timed_stage(
            "eval", "--model", out / "model" / "model.artm",
            "--pairs", out / "test_pairs.json", "--features", self.features,
            "--report", out / "eval.json",
        )
        analyze_args = [
            "analyze", "--model", out / "model" / "model.artm",
            "--manifest", self.manifest, "--features", self.features,
            "--sessions", ",".join(str(s + 1) for s in range(w.interactive_sessions)),
            "--out", out / "analysis",
        ]
        if w.analyze_range:
            analyze_args += ["--solo-range", w.analyze_range]
        times["analyze"] = self.timed_stage(*analyze_args)
        return {"round": r, "pipeline_s": sum(times.values()), "stages": times}

    # -- checks --------------------------------------------------------------

    def check_round(self, r: int, rec: dict) -> None:
        """Full checks on the first round; later rounds must repeat it exactly.

        The round's outputs are removed afterwards, so that no stage of the
        next round pays for freeing this round's files.
        """
        out = self.work / f"round{r}"
        rec["digest"] = output_digest(out, self.features)
        with open(out / "train_pairs.json") as fh:
            rec["train_pairs"] = len(json.load(fh)["pairs"])
        if r == 0:
            self.check_outputs(out)
        else:
            same = rec["digest"] == self.rounds[0]["digest"]
            self.check("round repeats round 0 byte for byte", same, rec["digest"][:16])
        remove_tree(out)
        if not self.w.features_in_setup:
            remove_tree(Path(self.features))

    def check_outputs(self, out: Path) -> None:
        import reference as ref

        if not self.w.features_in_setup:
            self.check("features", *ref.check_features(self.manifest, self.features))
        self.check_eval(out)
        with open(out / "model" / "history.json") as fh:
            history = json.load(fh)
        if self.w.min_train_accuracy is not None:
            best = max(e["train_accuracy"] for e in history)
            self.check(
                "best training accuracy",
                best >= self.w.min_train_accuracy,
                f"{best:.4f} >= {self.w.min_train_accuracy}",
            )
        analysis = str(out / "analysis")
        self.check("analysis condition stats", *ref.check_condition_stats(analysis))
        if self.w.paper_analysis:
            self.check("analysis pearson", *ref.check_pearson(analysis, self.w.speakers))
            self.check(
                "convergence direction", *ref.check_convergence_direction(analysis)
            )
        else:
            self.check("analysis pearson", *ref.check_pearson(analysis))

    def check_eval(self, out: Path) -> None:
        import numpy as np
        import reference as ref
        from phonosim import dsp, net, train

        model = str(out / "model" / "model.artm")
        pairs = ref.load_pairs(out / "test_pairs.json")
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0xE7A1]))
        pick = sorted(rng.choice(len(pairs), min(CHECK_SAMPLE, len(pairs)), replace=False))
        sample = [pairs[i] for i in pick]
        program = train.score_similarities(
            net.load_checkpoint(model), sample, dsp.FeatureStore(self.features)
        )
        self.check(
            "reference forward vs program similarities",
            *ref.check_similarities(model, self.features, sample, program),
        )
        ok, detail, accuracy = ref.check_eval_report(
            model, self.features, out / "test_pairs.json", out / "eval.json"
        )
        self.check("eval accuracy and AUC from reference similarities", ok, detail)
        self.held_out_accuracy = accuracy
        if self.w.min_test_accuracy is not None:
            self.check(
                "held-out accuracy",
                accuracy >= self.w.min_test_accuracy,
                f"{accuracy:.4f} >= {self.w.min_test_accuracy}",
            )

# ---------------------------------------------------------------------------
# input generation helpers


def join_counts(seed: int, sentences: int) -> list[int]:
    """How many consecutive base sentences each script sentence joins."""
    import numpy as np

    def draw(j):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x10E6, j]))
        return int(rng.integers(1, MAX_JOIN + 1))

    return [draw(j) for j in range(1, sentences + 1)]


def join_corpus(base: Path, out: Path, w: Workload, seed: int) -> None:
    """Long utterances: script sentence j joins base sentences j .. j + c_j - 1.

    Solo utterances cover every script sentence; interactive and imitation
    ones only the analysis range, which keeps ``analyze`` small.
    """
    with open(base / "manifest.json") as fh:
        doc = json.load(fh)
    counts = join_counts(seed, w.sentences)
    lo, hi = (int(v) for v in w.analyze_range.split(":"))
    (out / "audio").mkdir(parents=True, exist_ok=True)
    by_key = {
        (u["speaker_id"], u["condition"], u["session"], u["sentence_index"]): u
        for u in doc["utterances"]
    }
    utterances = []
    for (spk, cond, sess, j), u in sorted(by_key.items()):
        if j > w.sentences or (cond != "solo" and not lo <= j <= hi):
            continue
        pcm = b""
        for k in range(j, j + counts[j - 1]):
            with wave.open(str(base / by_key[(spk, cond, sess, k)]["audio_path"]), "rb") as fh:
                params = fh.getparams()
                pcm += fh.readframes(fh.getnframes())
        path = f"audio/{spk}__{cond}__{sess}__{j:03d}.wav"
        with wave.open(str(out / path), "wb") as fh:
            fh.setparams(params)
            fh.writeframes(pcm)
        utterances.append({**u, "audio_path": path})
    with open(out / "manifest.json", "w") as fh:
        json.dump({**doc, "utterances": utterances}, fh, indent=1)


def remove_tree(path: Path) -> None:
    """Delete a tree and wait until the deletion is committed.

    fsync on the parent directory commits the journal transaction that
    frees the blocks, so the cost of freeing them (discards included) is
    paid here, between timed spans, and not by a later stage.
    """
    shutil.rmtree(path)
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def output_digest(out: Path, features: str) -> str:
    h = hashlib.sha256()
    paths = [
        out / "model" / "model.artm", out / "eval.json",
        out / "analysis" / "report.json", out / "analysis" / "fig3_distributions.csv",
    ]
    paths += sorted(Path(features).glob("*.artf"))
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {
            v: os.environ.get(v)
            for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "process_threads": threads,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    t = time.perf_counter()
    import phonosim
    from phonosim import cli
    import_s = time.perf_counter() - t
    if not Path(phonosim.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"phonosim imported from {phonosim.__file__}, not {ROOT / 'src'}")

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.spans.append({
            "name": "cli.import", "index": 0, "parent": None, "phase": "setup",
            "start": t, "end": t + import_s,
        })
        tracer.install(phonosim)

    workload = (TOY if args.toy else WORKLOADS)[args.workload]
    run = Run(cli, workload, args.seed, Path(args.work), tracer)
    result = {"workload": args.workload, "seed": args.seed, "import_s": import_s}
    try:
        run.setup()
        result["setup_s"] = time.monotonic() - args.t_spawn
        if not args.setup_only:
            run.set_phase("check")
            if workload.features_in_setup:
                import reference as ref

                run.check("features", *ref.check_features(run.manifest, run.features))
            elapsed = 0.0
            while not run.rounds or elapsed < args.seconds:
                r = len(run.rounds)
                run.set_phase(r)
                rec = run.round(r)
                run.set_phase("check")
                run.check_round(r, rec)
                run.rounds.append(rec)
                elapsed += rec["pipeline_s"]
    except StageFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        result["error"] = str(exc)

    result.update(
        attempted=run.attempted, failed=run.failed, checks=run.checks,
        held_out_accuracy=run.held_out_accuracy, rounds=run.rounds,
        epochs=workload.epochs,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        machine=machine_facts(),
    )
    if tracer is not None and run.rounds:
        import tracing

        result["per_layer"] = tracing.per_layer_metrics(tracer.spans)
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump(tracer.spans, fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
