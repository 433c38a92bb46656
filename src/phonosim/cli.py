"""Command-line pipeline: synth, features, pairs, train, eval, analyze, gradcheck.

Each subcommand writes its parsed arguments next to its outputs.  Exit
codes: 0 on success, 1 on usage errors, 2 on data, validation and file
errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import reprlib
import sys

# BLAS sizes its thread pool when NumPy loads; one thread each unless the
# user chose, so BLAS and the backward worker do not contend for the CPUs
if "numpy" not in sys.modules:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")

from . import analysis, corpus, dsp, net, train as training
from .errors import PhonosimError, check_name, read_json, run_split


def _echo_config(args: argparse.Namespace, out: str) -> None:
    """Serialize the resolved arguments next to the subcommand's outputs:
    into ``out`` when the stage made it a directory, else beside the file."""
    resolved = {k: v for k, v in vars(args).items() if k != "func"}
    if os.path.isdir(out):
        path = os.path.join(out, "resolved_config.json")
    else:
        path = os.path.splitext(out)[0] + ".config.json"
    with open(path, "w") as fh:
        json.dump(resolved, fh, indent=1, default=str)


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(v) for v in text.split(":"))
    except ValueError:
        raise PhonosimError(f"bad sentence range {text!r}, expected LO:HI")
    if not (1 <= lo <= corpus.SCRIPT_SENTENCES and 1 <= hi <= corpus.SCRIPT_SENTENCES):
        raise PhonosimError(
            f"bad sentence range {text!r}, bounds lie in 1-{corpus.SCRIPT_SENTENCES}"
        )
    return lo, hi


def _parse_sessions(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s]
    except ValueError:
        raise PhonosimError(f"bad session list {text!r}, expected e.g. 1,2")


def _load_pairs_file(path: str) -> list[corpus.PairExample]:
    doc = read_json(path, "pairs file")
    try:  # a key the pairs do not use is ignored, so older files still load
        pairs = [
            corpus.PairExample(*(p[f] for f in corpus.PairExample._fields))
            for p in doc["pairs"]
        ]
    except (KeyError, TypeError) as exc:
        raise PhonosimError(f"malformed pairs file {path}: {exc!r}")
    if not pairs:
        raise PhonosimError(f"pairs file {path} holds no pairs")
    for i, (left, right, label) in enumerate(pairs):
        if not (isinstance(left, str) and isinstance(right, str)):
            raise PhonosimError(f"pairs file {path}: pair {i} has a non-string key")
        if type(label) is not int or label not in (0, 1):
            raise PhonosimError(
                f"pairs file {path}: pair {i} has label {reprlib.repr(label)}, expected 0 or 1"
            )
    # a key names its feature file; keys themselves hold "__"
    for key in dict.fromkeys(k for p in pairs for k in p[:2]):
        check_name(key, f"pairs file {path}: key", corpus.MAX_KEY_CHARS)
    return pairs


def _check_output(flag: str, path: str, directory: bool) -> None:
    """Before a stage reads any input: an existing ``path`` must be a
    directory if the stage writes one (``directory``), else not one.  A file
    needs its parent directory; a directory, whose parents the stage makes,
    needs its nearest existing ancestor to be a directory."""
    if os.path.exists(path) and os.path.isdir(path) != directory:
        raise PhonosimError(f"{flag} {path} is {'not ' if directory else ''}a directory")
    ancestor = os.path.dirname(path)
    while directory and ancestor and not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor or "."):
        raise PhonosimError(f"{flag} {path}: {ancestor or '.'} is not an existing directory")


def _load_config(cls, what: str, path: str | None):
    """A ``cls`` from the JSON object in ``path``; its defaults if there is
    no file."""
    values = {}
    if path:
        values = read_json(path, what)
        if not isinstance(values, dict):
            raise PhonosimError(f"{what} {path} is not a JSON object")
    unknown = values.keys() - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise PhonosimError(f"bad {what} {path}: unknown field {reprlib.repr(min(unknown))}")
    try:
        return cls(**values)
    except PhonosimError as exc:  # a value in the file that the config rejects
        raise PhonosimError(f"bad {what} {path}: {exc}") from None


def _cmd_synth(args) -> None:
    _check_output("--out", args.out, directory=True)
    cfg = corpus.SynthConfig(
        n_speakers=args.speakers,
        n_sentences=args.sentences,
        lam=getattr(args, "lambda"),
        interactive_sessions=args.interactive_sessions,
    )
    corpus.generate_synthetic_corpus(cfg, args.seed, args.out)
    print(f"wrote synthetic corpus to {args.out}", file=sys.stderr)


def _cmd_features(args) -> None:
    _check_output("--out", args.out, directory=True)
    manifest = corpus.load_manifest(args.manifest)
    store = dsp.FeatureStore(args.out)
    tasks = []  # (WAV path, feature path) of each utterance, checked before any is written
    for u in manifest.utterances:
        if u.audio_path is None:
            raise PhonosimError(f"utterance {u.key} has no audio_path")
        tasks.append((manifest.resolve(u.audio_path), store.path_for(u.key)))

    def extract(task):
        wav_path, feature_path = task
        dsp.write_features(dsp.extract_features(wav_path), feature_path)

    os.makedirs(args.out, exist_ok=True)
    run_split(extract, tasks)
    print(f"wrote {len(manifest.utterances)} feature files to {args.out}", file=sys.stderr)


def _cmd_pairs(args) -> None:
    _check_output("--out", args.out, directory=False)
    if args.condition == "solo":
        if args.sessions is not None:
            raise PhonosimError("--sessions applies to interactive/imitation, not solo")
        if args.range is None:
            args.range = "1:40"  # so the echoed config shows the range used
        lo, hi = _parse_range(args.range)
        pairs = corpus.build_solo_pairs(corpus.load_manifest(args.manifest), lo, hi)
    else:
        if args.range is not None:
            raise PhonosimError(f"--range applies to solo, not {args.condition}")
        if not args.sessions:
            raise PhonosimError(f"condition {args.condition!r} requires --sessions")
        pairs = corpus.build_condition_pairs(
            corpus.load_manifest(args.manifest), args.condition, _parse_sessions(args.sessions)
        )
    with open(args.out, "w") as fh:
        json.dump({"pairs": [p._asdict() for p in pairs]}, fh, indent=1)
    print(f"wrote {len(pairs)} pairs to {args.out}", file=sys.stderr)


def _cmd_train(args) -> None:
    _check_output("--out", args.out, directory=True)
    cfg = _load_config(training.TrainConfig, "training config", args.config)
    if args.seed is not None:  # a flag, so its error does not name the file
        cfg = dataclasses.replace(cfg, seed=args.seed)
    pairs = _load_pairs_file(args.pairs)
    val_pairs = _load_pairs_file(args.val_pairs) if args.val_pairs else []
    store = dsp.FeatureStore(args.features)
    init = net.load_checkpoint(args.init) if args.init else None
    result = training.train(cfg, pairs, val_pairs, store, init=init)
    os.makedirs(args.out, exist_ok=True)
    net.save_checkpoint(result.best_params, os.path.join(args.out, "model.artm"))
    net.save_checkpoint(result.params, os.path.join(args.out, "model_final.artm"))
    with open(os.path.join(args.out, "history.json"), "w") as fh:
        json.dump(result.history, fh, indent=1)
    accuracy = result.history[-1]["train_accuracy"]
    print(f"trained {cfg.epochs} epochs, final train accuracy {accuracy:.3f}", file=sys.stderr)


def _cmd_eval(args) -> None:
    _check_output("--report", args.report, directory=False)
    params = net.load_checkpoint(args.model)
    pairs = _load_pairs_file(args.pairs)
    store = dsp.FeatureStore(args.features)
    report = training.evaluate(params, pairs, store)
    with open(args.report, "w") as fh:
        json.dump(report, fh, indent=1)
    print(
        f"accuracy {report['accuracy']:.3f}, AUC {report['auc']:.3f} "
        f"on {len(pairs)} pairs",
        file=sys.stderr,
    )


def _cmd_analyze(args) -> None:
    _check_output("--out", args.out, directory=True)
    params = net.load_checkpoint(args.model)
    manifest = corpus.load_manifest(args.manifest)
    store = dsp.FeatureStore(args.features)
    solo_range = _parse_range(args.solo_range) if args.solo_range else None
    report, rows = analysis.build_report(
        params,
        manifest,
        store,
        sessions=_parse_sessions(args.sessions),
        solo_range=solo_range,
    )
    analysis.emit_report(report, rows, args.out)
    print(f"wrote convergence report to {args.out}", file=sys.stderr)


def _cmd_gradcheck(args) -> None:
    try:
        d_in, d_hidden, d_rep = (int(v) for v in args.dims.split(","))
    except ValueError:
        raise PhonosimError(f"bad dims {args.dims!r}, expected e.g. 5,4,3")
    errors = training.gradient_check(net.ModelDims(d_in, d_hidden, d_rep), seed=args.seed)
    worst = max(errors.values())
    for name, err in errors.items():
        print(f"{name:10s} max relative error {err:.3e}")
    if worst >= training.GRADCHECK_TOLERANCE:
        raise PhonosimError(
            f"gradient check failed: worst relative error {worst:.3e} "
            f">= {training.GRADCHECK_TOLERANCE}"
        )
    print(f"gradient check passed (worst {worst:.3e} < {training.GRADCHECK_TOLERANCE})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phonosim",
        description=(
            "Measure phonetic convergence with a Siamese recurrent network: "
            "synth -> features -> pairs -> train -> eval -> analyze; "
            "gradcheck verifies the gradient machinery."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a deterministic synthetic corpus")
    p.add_argument("--speakers", type=int, default=4)
    p.add_argument("--sentences", type=int, default=20)
    p.add_argument("--lambda", type=float, default=0.0, dest="lambda")
    p.add_argument("--interactive-sessions", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("features", help="extract 13 MFCCs + deltas + delta-deltas (39 columns)")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("pairs", help="build labeled verification pairs")
    p.add_argument("--manifest", required=True)
    p.add_argument("--condition", choices=corpus.CONDITIONS, required=True)
    p.add_argument("--range", help="solo sentence range LO:HI (default 1:40)")
    p.add_argument("--sessions", help="session ids for interactive/imitation, e.g. 1,2")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pairs)

    p = sub.add_parser("train", help="train the Siamese verifier")
    p.add_argument("--features", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--val-pairs")
    p.add_argument("--config", help="JSON training configuration")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--init", help="checkpoint to fine-tune from")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on labeled pairs")
    p.add_argument("--model", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("analyze", help="convergence report across conditions")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--sessions", required=True, help="interactive sessions, e.g. 1,2")
    p.add_argument("--solo-range", help="solo sentence range LO:HI")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--dims", default="5,4,3", help="d_in,d_hidden,d_rep")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        args.func(args)
        out = getattr(args, "out", None) or getattr(args, "report", None)
        if out:  # gradcheck writes no files
            _echo_config(args, out)
    except (PhonosimError, OSError) as exc:  # OSError: a missing or unreadable file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
