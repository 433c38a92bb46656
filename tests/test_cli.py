"""CLI pipeline: synth -> features -> pairs -> train -> eval -> analyze.

Runs the whole chain in-process through cli.main() on a miniature corpus,
then exercises gradcheck and the error paths (exit code 2 for data errors,
1 for usage errors).
"""

import contextlib
import dataclasses
import faulthandler
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import phonosim
from phonosim import cli, corpus, dsp, net, train as training
from phonosim.errors import AudioError, DataError, PhonosimError, run_split

from conftest import set_cpus


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the full pipeline once; tests inspect its artifacts."""
    root = tmp_path_factory.mktemp("cli")
    corpus_dir = str(root / "corpus")
    feat_dir = str(root / "features")
    pairs_path = str(root / "train_pairs.json")
    val_pairs_path = str(root / "val_pairs.json")
    model_dir = str(root / "model")
    report_path = str(root / "report.json")
    analyze_dir = str(root / "analysis")

    assert cli.main([
        "synth", "--speakers", "2", "--sentences", "6",
        "--interactive-sessions", "1", "--seed", "5", "--out", corpus_dir,
    ]) == 0
    manifest = os.path.join(corpus_dir, "manifest.json")
    assert cli.main(["features", "--manifest", manifest, "--out", feat_dir]) == 0
    assert cli.main([
        "pairs", "--manifest", manifest, "--condition", "solo",
        "--range", "1:4", "--out", pairs_path,
    ]) == 0
    assert cli.main([
        "pairs", "--manifest", manifest, "--condition", "solo",
        "--range", "5:6", "--out", val_pairs_path,
    ]) == 0
    train_cfg = root / "train.json"
    train_cfg.write_text(json.dumps({"epochs": 3, "seed": 2}))
    assert cli.main([
        "train", "--features", feat_dir, "--pairs", pairs_path,
        "--val-pairs", val_pairs_path, "--config", str(train_cfg),
        "--out", model_dir,
    ]) == 0
    model = os.path.join(model_dir, "model.artm")
    assert cli.main([
        "eval", "--model", model, "--pairs", val_pairs_path,
        "--features", feat_dir, "--report", report_path,
    ]) == 0
    assert cli.main([
        "analyze", "--model", model, "--manifest", manifest,
        "--features", feat_dir, "--sessions", "1", "--out", analyze_dir,
    ]) == 0
    return {
        "root": root,
        "corpus": corpus_dir,
        "features": feat_dir,
        "pairs": pairs_path,
        "model_dir": model_dir,
        "report": report_path,
        "analysis": analyze_dir,
    }


def test_synth_outputs(pipeline):
    corpus_dir = pipeline["corpus"]
    assert os.path.exists(os.path.join(corpus_dir, "manifest.json"))
    assert os.path.exists(os.path.join(corpus_dir, "resolved_config.json"))
    wavs = os.listdir(os.path.join(corpus_dir, "audio"))
    assert len(wavs) == 2 * 6 * 3  # 2 speakers x 6 sentences x 3 sessions


def test_synth_manifest_holds_no_dyad_id(pipeline):
    """Dyad membership is stated once, in ``dyads``; each WAV is named by
    its utterance key."""
    doc = json.loads(Path(pipeline["corpus"], "manifest.json").read_text())
    assert doc["dyads"] == [["S01", "S02"]]
    for u in doc["utterances"]:
        assert set(u) == {"speaker_id", "condition", "session", "sentence_index", "audio_path"}
        key = f"{u['speaker_id']}__{u['condition']}__{u['session']}__{u['sentence_index']:03d}"
        assert u["audio_path"] == f"audio/{key}.wav"


def test_features_outputs(pipeline):
    files = [f for f in os.listdir(pipeline["features"]) if f.endswith(".artf")]
    assert len(files) == 2 * 6 * 3


def test_pairs_file_format(pipeline):
    doc = json.loads(Path(pipeline["pairs"]).read_text())
    # 2 speakers x C(4,2) positives + 16 negatives
    assert len(doc["pairs"]) == 2 * 6 + 16
    sample = doc["pairs"][0]
    assert set(sample) == {"left", "right", "label", "condition"}


@pytest.mark.parametrize(
    "condition, flags", [("solo", ["--range", "1:4"]), ("interactive", ["--sessions", "1"])]
)
def test_pairs_file_loads_back(pipeline, tmp_path, condition, flags):
    """What pairs writes loads back as the PairExamples the builder made."""
    path = os.path.join(pipeline["corpus"], "manifest.json")
    out = str(tmp_path / "pairs.json")
    assert cli.main(
        ["pairs", "--manifest", path, "--condition", condition, *flags, "--out", out]
    ) == 0
    m = corpus.load_manifest(path)
    if condition == "solo":
        built = corpus.build_solo_pairs(m, 1, 4)
    else:
        built = corpus.build_condition_pairs(m, condition, [1])
    loaded = cli._load_pairs_file(out)
    assert loaded == built and len(built) > 0
    assert all(type(p) is corpus.PairExample for p in loaded)


def test_file_output_without_extension(pipeline, tmp_path):
    """pairs and eval write a file named without an extension, and their
    config record beside it."""
    pairs, report = tmp_path / "pairs", tmp_path / "report"
    assert cli.main([
        "pairs", "--manifest", os.path.join(pipeline["corpus"], "manifest.json"),
        "--condition", "solo", "--range", "1:4", "--out", str(pairs),
    ]) == 0
    assert cli.main([
        "eval", "--model", os.path.join(pipeline["model_dir"], "model.artm"),
        "--pairs", str(pairs), "--features", pipeline["features"], "--report", str(report),
    ]) == 0
    assert len(json.loads(pairs.read_text())["pairs"]) == 2 * 6 + 16
    assert "auc" in json.loads(report.read_text())
    assert json.loads((tmp_path / "pairs.config.json").read_text())["out"] == str(pairs)
    assert json.loads((tmp_path / "report.config.json").read_text())["report"] == str(report)


def test_train_outputs(pipeline):
    d = pipeline["model_dir"]
    assert os.path.exists(os.path.join(d, "model.artm"))
    assert os.path.exists(os.path.join(d, "model_final.artm"))
    history = json.loads(Path(d, "history.json").read_text())
    assert len(history) == 3
    assert {"epoch", "lr", "train_loss", "train_accuracy"} <= set(history[0])


def test_eval_report(pipeline):
    doc = json.loads(Path(pipeline["report"]).read_text())
    assert {"accuracy", "auc", "positive", "negative", "counts"} <= set(doc)
    assert 0.0 <= doc["accuracy"] <= 1.0


def test_analyze_outputs(pipeline):
    d = pipeline["analysis"]
    for name in ("report.json", "fig3_distributions.csv", "fig4_scatter.csv"):
        assert os.path.exists(os.path.join(d, name)), name
    doc = json.loads(Path(d, "report.json").read_text())
    assert "condition_stats" in doc and "speaker_scores" in doc


def test_gradcheck_command(capsys):
    assert cli.main(["gradcheck", "--dims", "5,4,3", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "gradient check passed" in out


def test_gradcheck_bad_dims():
    assert cli.main(["gradcheck", "--dims", "nope"]) == 2


def test_usage_error_exit_code():
    assert cli.main(["unknown-subcommand"]) == 1


def test_features_has_no_cmvn_switch(pipeline, tmp_path):
    out = tmp_path / "features"
    assert cli.main([
        "features", "--manifest", os.path.join(pipeline["corpus"], "manifest.json"),
        "--out", str(out), "--no-cmvn",
    ]) == 1
    assert not out.exists()


def test_data_error_exit_code(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["pairs", "--manifest", missing, "--condition", "solo",
                     "--out", str(tmp_path / "p.json")]) == 2


def test_missing_input_file_exit_code(pipeline, capsys):
    missing = str(pipeline["root"] / "missing.artm")
    assert cli.main([
        "eval", "--model", missing, "--pairs", pipeline["pairs"],
        "--features", pipeline["features"],
        "--report", str(pipeline["root"] / "missing_report.json"),
    ]) == 2
    assert "error:" in capsys.readouterr().err


def test_wrong_feature_width_exit_code(pipeline, tmp_path, capsys):
    narrow = tmp_path / "features"
    shutil.copytree(pipeline["features"], narrow)
    key = json.loads(Path(pipeline["pairs"]).read_text())["pairs"][0]["left"]
    path = narrow / (key + ".artf")
    dsp.write_features(dsp.read_features(path).frames[:, :36], path)
    assert cli.main([
        "eval", "--model", os.path.join(pipeline["model_dir"], "model.artm"),
        "--pairs", pipeline["pairs"], "--features", str(narrow),
        "--report", str(tmp_path / "report.json"),
    ]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_finite_feature_exit_code(pipeline, tmp_path, capsys):
    corrupt = tmp_path / "features"
    shutil.copytree(pipeline["features"], corrupt)
    key = json.loads(Path(pipeline["pairs"]).read_text())["pairs"][0]["left"]
    path = corrupt / (key + ".artf")
    frames = dsp.read_features(path).frames.copy()
    frames[3, 5] = np.nan
    dsp.write_features(frames, path)
    report = tmp_path / "report.json"
    assert cli.main([
        "eval", "--model", os.path.join(pipeline["model_dir"], "model.artm"),
        "--pairs", pipeline["pairs"], "--features", str(corrupt),
        "--report", str(report),
    ]) == 2
    assert "error:" in capsys.readouterr().err
    assert not report.exists()


def test_features_reject_mismatched_sample_rate(pipeline, tmp_path, capsys):
    """Features run at dsp.PIPELINE_RATE; there is no sample_rate setting."""
    config = tmp_path / "mfcc.json"
    config.write_text(json.dumps({"sample_rate": 8000}))
    out = tmp_path / "features"
    assert cli.main([
        "features", "--manifest", os.path.join(pipeline["corpus"], "manifest.json"),
        "--config", str(config), "--out", str(out),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(config) in err
    assert "unknown field 'sample_rate'" in err
    assert not out.exists()


def test_condition_pairs_require_sessions(pipeline, tmp_path, capsys):
    manifest = os.path.join(pipeline["corpus"], "manifest.json")
    out = str(pipeline["root"] / "int_pairs.json")
    assert cli.main([
        "pairs", "--manifest", manifest, "--condition", "interactive", "--out", out,
    ]) == 2
    # a flag the condition does not use is an error, not silently ignored
    for flags, named in (
        (["--condition", "interactive", "--sessions", "1", "--range", "3:4"], "--range"),
        (["--condition", "solo", "--sessions", "7"], "--sessions"),
    ):
        capsys.readouterr()
        rejected = tmp_path / "pairs.json"
        assert cli.main(["pairs", "--manifest", manifest, *flags, "--out", str(rejected)]) == 2
        assert f"error: {named}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
    assert cli.main([
        "pairs", "--manifest", manifest, "--condition", "interactive",
        "--sessions", "1", "--out", out,
    ]) == 0
    assert len(json.loads(Path(out).read_text())["pairs"]) > 0


def _modules_loaded_by(code: str, prefixes=("scipy", "multiprocessing")) -> str:
    """Run ``code`` in a fresh interpreter; the sorted list of the modules
    it loaded whose names start with one of ``prefixes``, as printed."""
    src = os.path.dirname(os.path.dirname(phonosim.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code += (
        "; import sys; print(sorted(m for m in sys.modules "
        f"if m.startswith({prefixes!r})))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout.strip().splitlines()[-1]


def test_import_loads_no_scipy():
    """A bare ``import phonosim`` loads neither NumPy nor any phonosim
    submodule.  The CLI imports without SciPy or multiprocessing; only
    analyze loads SciPy, and only train multiprocessing."""
    assert _modules_loaded_by("import phonosim", ("numpy", "phonosim.")) == "[]"
    assert _modules_loaded_by("import phonosim.cli") == "[]"


def test_features_loads_no_scipy(pipeline, tmp_path):
    """synth writes 16-bit PCM, which features reads without SciPy; a
    missing WAV fails with exit 2 before SciPy is tried."""
    manifest = os.path.join(pipeline["corpus"], "manifest.json")
    away = tmp_path / "away"
    away.mkdir()
    missing_wavs = shutil.copy(manifest, away)  # its audio paths are relative
    for path, code in ((manifest, 0), (missing_wavs, 2)):
        out = str(tmp_path / f"features{code}")
        loaded = _modules_loaded_by(
            "from phonosim import cli; "
            f"assert cli.main(['features', '--manifest', {path!r}, '--out', {out!r}]) == {code}"
        )
        assert loaded == "[]"


@pytest.mark.parametrize(
    "config, named",
    [
        ('{"epochs": 0}', "epochs"), ('{"epochs": "5"}', "epochs"),
        ('{"seed": -3}', "seed"), ('{"adam_beta1": 1.0}', "adam_beta1"),
        ('{"batch_size": 2.5}', "batch_size"), ('{"lr0": NaN}', "lr0"),
        ("[1, 2]", "training config"),
    ],
)
def test_bad_train_config_exit_code(pipeline, tmp_path, capsys, config, named):
    path = tmp_path / "train.json"
    path.write_text(config)
    assert cli.main([
        "train", "--features", pipeline["features"], "--pairs", pipeline["pairs"],
        "--config", str(path), "--out", str(tmp_path / "model"),
    ]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and named in err and str(path) in err
    assert not (tmp_path / "model").exists()


@pytest.mark.parametrize(
    "entry",
    [
        {"label": "x"}, {"label": 2}, {"label": True}, {"label": 1.0}, {"left": 5},
        {"condition": None}, {"condition": "dialogue"},
    ],
)
def test_bad_pairs_entry_exit_code(pipeline, tmp_path, capsys, entry):
    doc = json.loads(Path(pipeline["pairs"]).read_text())
    doc["pairs"][1].update(entry)
    if entry.get("condition", "") is None:  # a missing condition
        del doc["pairs"][1]["condition"]
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    assert cli.main([
        "eval", "--model", os.path.join(pipeline["model_dir"], "model.artm"),
        "--pairs", str(pairs), "--features", pipeline["features"],
        "--report", str(report),
    ]) == 2
    assert "error:" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize(
    "config",
    [
        '{"n_mels": 0}', '{"hop": -0.01}', '{"n_ceps": 41}', '{"window": 0.04}',
        '{"fmin": 8000.0}', '{"fmax": 9000.0}', '{"preemphasis": NaN}',
    ],
)
def test_bad_mfcc_config_exit_code(pipeline, tmp_path, capsys, config):
    path = tmp_path / "mfcc.json"
    path.write_text(config)
    out = tmp_path / "features"
    assert cli.main([
        "features", "--manifest", os.path.join(pipeline["corpus"], "manifest.json"),
        "--config", str(path), "--out", str(out),
    ]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and str(path) in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "analyze"])
@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_non_finite_threshold_exit_code(pipeline, tmp_path, capsys, command, threshold):
    """The threshold is the constant train.THRESHOLD: eval and analyze take no
    --threshold, so any value for it is an unknown argument (exit 1)."""
    model = os.path.join(pipeline["model_dir"], "model.artm")
    out = tmp_path / "out"
    if command == "eval":
        argv = ["eval", "--model", model, "--pairs", pipeline["pairs"],
                "--report", str(out)]
    else:
        argv = ["analyze", "--model", model, "--sessions", "1", "--out", str(out),
                "--manifest", os.path.join(pipeline["corpus"], "manifest.json")]
    argv += ["--features", pipeline["features"], f"--threshold={threshold}"]
    assert cli.main(argv) == 1
    assert f"unrecognized arguments: --threshold={threshold}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
def test_bad_gradcheck_tolerance_exit_code(capsys, tolerance):
    """The bound is the constant train.GRADCHECK_TOLERANCE: gradcheck takes no
    --tolerance, so any value for it is an unknown argument (exit 1)."""
    assert cli.main(["gradcheck", f"--tolerance={tolerance}"]) == 1
    captured = capsys.readouterr()
    assert f"unrecognized arguments: --tolerance={tolerance}" in captured.err
    assert "passed" not in captured.out


@pytest.mark.parametrize(
    "reader, setting",
    [
        ("train-config", '{"threshold": 0.6}'), ("train-config", '{"adam_beta1": 0.8}'),
        ("mfcc-config", '{"window": 0.04}'), ("mfcc-config", '{"n_mels": 30}'),
        ("mfcc-config", '{"delta_window": 2}'),
    ],
    ids=["train-threshold", "train-adam_beta1", "mfcc-window", "mfcc-n_mels", "mfcc-delta_window"],
)
def test_removed_setting_rejected(pipeline, tmp_path, capsys, reader, setting):
    """The threshold, Adam and MFCC-frame values are constants: a config field
    that sets one is an unknown field (exit 2, naming field and file)."""
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(setting)
    assert cli.main(_reading(pipeline, reader, path, out)) == 2
    (name,) = json.loads(setting)
    err = capsys.readouterr().err
    assert f"unknown field {name!r}" in err and str(path) in err
    assert not out.exists()


def _manifest_text(field, raw):
    """A valid two-speaker manifest with the value at ``field`` set to raw JSON."""
    doc = {
        "speakers": [{"id": "A"}, {"id": "B"}],
        "dyads": [["A", "B"]],
        "utterances": [
            {"speaker_id": s, "condition": "solo", "session": 1,
             "sentence_index": j, "audio_path": f"audio/{s}{j}.wav"}
            for s in "AB" for j in (1, 2)
        ],
    }
    target = doc
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = "@RAW@"
    return json.dumps(doc).replace('"@RAW@"', raw)


@pytest.mark.parametrize(
    "field, raw",
    [
        (["speakers", 0, "id"], '["A"]'),
        (["utterances", 0, "sentence_index"], "1e999"),
        (["dyads"], '["AB"]'),
        (["utterances", 0, "session"], "1.7"),
        (["utterances", 0, "session"], "true"),
        (["utterances", 0, "audio_path"], "5"),
    ],
    ids=["list-id", "huge-sentence", "string-dyad", "float-session", "bool-session",
         "int-path"],
)
def test_bad_manifest_field_exit_code(tmp_path, capsys, field, raw):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(_manifest_text(field, raw))
    out = tmp_path / "pairs.json"
    assert cli.main([
        "pairs", "--manifest", str(manifest), "--condition", "solo",
        "--range", "1:2", "--out", str(out),
    ]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [["--sentences", "0"], ["--interactive-sessions", "-1"], ["--sentences", "81"]],
)
def test_bad_synth_config_exit_code(tmp_path, capsys, flags):
    out = tmp_path / "corpus"
    assert cli.main(["synth", "--speakers", "2", *flags, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (out / "audio").exists()


@pytest.mark.parametrize("command", ["synth", "gradcheck"])
def test_negative_seed_exit_code(tmp_path, capsys, command):
    out = tmp_path / "corpus"
    argv = ["synth", "--speakers", "2", "--out", str(out)] if command == "synth" else [command]
    assert cli.main([*argv, "--seed", "-1"]) == 2
    assert "error: seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_n_ceps_sets_feature_width(pipeline, tmp_path, capsys):
    """n_ceps 12 writes 36-column features; train sizes its model from
    them, and eval rejects them for the pipeline's 39-input model."""
    config = tmp_path / "mfcc.json"
    config.write_text('{"n_ceps": 12}')
    features = tmp_path / "features"
    assert cli.main([
        "features", "--manifest", os.path.join(pipeline["corpus"], "manifest.json"),
        "--config", str(config), "--out", str(features),
    ]) == 0
    widths = {dsp.read_features(p).frames.shape[1] for p in features.glob("*.artf")}
    assert widths == {36}
    model = tmp_path / "model"
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text('{"epochs": 2}')
    assert cli.main([
        "train", "--features", str(features), "--pairs", pipeline["pairs"],
        "--config", str(train_cfg), "--out", str(model),
    ]) == 0
    assert net.load_checkpoint(model / "model.artm").dims.d_in == 36
    report = tmp_path / "report.json"
    assert cli.main([
        "eval", "--model", os.path.join(pipeline["model_dir"], "model.artm"),
        "--pairs", pipeline["pairs"], "--features", str(features), "--report", str(report),
    ]) == 2
    assert "model expects (frames, 39)" in capsys.readouterr().err
    assert not report.exists()


def test_train_mixed_feature_widths_exit_code(pipeline, tmp_path, capsys):
    """A training set whose features differ in width fails, naming every
    width, before the model directory is made."""
    features = shutil.copytree(pipeline["features"], tmp_path / "features")
    left = json.loads(Path(pipeline["pairs"]).read_text())["pairs"][0]["left"]
    dsp.write_features(np.zeros((5, 36)), features / f"{left}.artf")
    model = tmp_path / "model"
    assert cli.main([
        "train", "--features", str(features), "--pairs", pipeline["pairs"],
        "--out", str(model),
    ]) == 2
    assert "error: training features differ in width: [36, 39]" in capsys.readouterr().err
    assert not model.exists()


def test_gradcheck_passes_near_l1_kink(capsys):
    """Weights near 0 are moved off the kink of the L1 term before
    differencing; at these dims and seed a difference straddled it."""
    assert cli.main(["gradcheck", "--dims", "10,8,6", "--seed", "5"]) == 0
    assert "gradient check passed" in capsys.readouterr().out


def _manifest_with_speaker(pipeline, speaker: str) -> dict:
    """The pipeline's manifest with speaker S01 renamed to ``speaker`` and
    every audio path absolute."""
    doc = json.loads((Path(pipeline["corpus"]) / "manifest.json").read_text())
    doc["speakers"] = [{"id": speaker}, {"id": "S02"}]
    doc["dyads"] = [[speaker, "S02"]]
    for u in doc["utterances"]:
        u["audio_path"] = os.path.join(pipeline["corpus"], u["audio_path"])
        if u["speaker_id"] == "S01":
            u["speaker_id"] = speaker
    return doc


def _files_under(root: Path) -> list[str]:
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*"))


@pytest.mark.parametrize(
    "speaker",
    ["", "S" * 65, "../outside", "..\\outside", "S\x0001", "S__01", ".S01"],
    ids=["empty", "long", "slash", "backslash", "nul", "double-underscore", "dot"],
)
def test_bad_speaker_id_exit_code(pipeline, tmp_path, capsys, speaker):
    """A speaker id that cannot be one part of a file name exits 2, and
    features writes nothing, inside its --out or outside it."""
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(_manifest_with_speaker(pipeline, speaker)))
    out = tmp_path / "sub" / "f3"
    assert cli.main(["features", "--manifest", str(manifest), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(manifest) in err and "speaker id" in err
    assert _files_under(tmp_path) == ["manifest.json"]


@pytest.mark.parametrize("form", ["long", "slash", "backslash", "dot"])
def test_bad_pairs_key_exit_code(pipeline, tmp_path, capsys, form):
    """A pairs-file key that is too long, holds a path separator or starts
    with a dot exits 2 before any feature file is looked up."""
    doc = json.loads(Path(pipeline["pairs"]).read_text())
    key = doc["pairs"][0]["left"]
    doc["pairs"][0]["left"] = {
        "long": "x" * (corpus.MAX_KEY_CHARS + 1),
        # the real feature file, reached from outside the feature directory
        "slash": f"../{Path(pipeline['features']).name}/{key}",
        "backslash": f"..\\{key}",
        "dot": f".{key}",
    }[form]
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps(doc))
    assert cli.main([
        "train", "--features", pipeline["features"], "--pairs", str(pairs),
        "--out", str(tmp_path / "model"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(pairs) in err and "key" in err
    assert _files_under(tmp_path) == ["pairs.json"]


def test_one_label_val_pairs_exit_code(pipeline, tmp_path, capsys):
    """Validation pairs of one label exit 2 before training, naming the set."""
    manifest = os.path.join(pipeline["corpus"], "manifest.json")
    val = tmp_path / "val.json"
    assert cli.main([
        "pairs", "--manifest", manifest, "--condition", "solo", "--range", "5:5",
        "--out", str(val),
    ]) == 0
    assert {p["label"] for p in json.loads(val.read_text())["pairs"]} == {0}
    assert cli.main([
        "train", "--features", pipeline["features"], "--pairs", pipeline["pairs"],
        "--val-pairs", str(val), "--out", str(tmp_path / "model"),
    ]) == 2
    assert "error: validation set has only label-0 pairs" in capsys.readouterr().err
    assert not (tmp_path / "model").exists()


def test_train_batch_size_past_pair_count(pipeline, tmp_path):
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"epochs": 1, "batch_size": 1_000_000}))
    assert cli.main([
        "train", "--features", pipeline["features"], "--pairs", pipeline["pairs"],
        "--config", str(config), "--out", str(tmp_path / "model"),
    ]) == 0


def test_analyze_empty_solo_range_exit_code(pipeline, tmp_path, capsys):
    """A --solo-range that selects no solo pairs exits 2 and writes no report."""
    out = tmp_path / "analysis"
    assert cli.main([
        "analyze", "--model", os.path.join(pipeline["model_dir"], "model.artm"),
        "--manifest", os.path.join(pipeline["corpus"], "manifest.json"),
        "--features", pipeline["features"], "--sessions", "1",
        "--solo-range", "70:80", "--out", str(out),
    ]) == 2
    assert "error: no solo pairs in sentence range 70:80" in capsys.readouterr().err
    assert not out.exists()


_BAD_JSON = {
    "non-utf8": b'\xff\xfe{"pairs": []}',
    "deep": b"[" * 100_000,
    "truncated": b'{"pairs": [',
    "wrong-kind": b"[1, 2]",
}


def _reading(pipeline, input_kind, path, out):
    """The argv of a command that reads ``path`` as ``input_kind`` and writes ``out``."""
    manifest = os.path.join(pipeline["corpus"], "manifest.json")
    train = ["train", "--features", pipeline["features"], "--out", str(out)]
    return {
        "manifest": ["pairs", "--manifest", str(path), "--condition", "solo",
                     "--out", str(out)],
        "pairs": [*train, "--pairs", str(path)],
        "train-config": [*train, "--pairs", pipeline["pairs"], "--config", str(path)],
        "mfcc-config": ["features", "--manifest", manifest, "--config", str(path),
                        "--out", str(out)],
    }[input_kind]


@pytest.mark.parametrize("content", list(_BAD_JSON))
@pytest.mark.parametrize("input_kind", ["manifest", "pairs", "train-config", "mfcc-config"])
def test_bad_json_file_exit_code(pipeline, tmp_path, capsys, input_kind, content):
    """Every JSON input exits 2 naming the file, and writes nothing."""
    path = tmp_path / "input.json"
    path.write_bytes(_BAD_JSON[content])
    out = tmp_path / "out"
    assert cli.main(_reading(pipeline, input_kind, path, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err
    assert not out.exists()


_LONG = "x" * 200_000
_LONG_VALUE = {
    "manifest": {"speakers": _LONG, "dyads": [], "utterances": []},
    "pairs": {"pairs": [{"left": "a", "right": "b", "label": _LONG, "condition": "solo"}]},
    "pairs-condition": {"pairs": [{"left": "a", "right": "b", "label": 1,
                                   "condition": _LONG}]},
    "train-config": {"epochs": _LONG},
    "mfcc-config": {_LONG: 1},
}


@pytest.mark.parametrize("case", list(_LONG_VALUE))
def test_long_value_error_is_short(pipeline, tmp_path, capsys, case):
    """A 200,000-character value is quoted in short form in an error line
    that names the file."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(_LONG_VALUE[case]))
    out = tmp_path / "out"
    assert cli.main(_reading(pipeline, case.removesuffix("-condition"), path, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err
    assert len(err.encode()) < 1024
    assert not out.exists()


# ---------------------------------------------------------------------------
# synth and features on two CPUs: a forked child takes the odd-indexed
# utterances, the caller the even-indexed ones


def _assert_no_child_left():
    """Every child of this process has ended and been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _deadline(seconds):
    """Abort the test run with a traceback, not hang, past ``seconds``."""
    faulthandler.dump_traceback_later(seconds, exit=True, file=sys.__stderr__)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


def _file_bytes(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` but the argument records, which hold paths."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and not p.name.endswith("config.json")
    }


def test_split_stages_bytes_match_inline(tmp_path, monkeypatch):
    """synth then features write the same bytes with two usable CPUs as with
    one, for an even utterance count, an odd one and a single utterance."""
    real_fork = os.fork
    trees, forks = {}, {}
    for n in (1, 2):
        made = forks[n] = []
        set_cpus(monkeypatch, n)
        monkeypatch.setattr(os, "fork", lambda: made.append(1) or real_fork())
        root = tmp_path / f"cpus{n}"
        corpus_dir = root / "corpus"
        assert cli.main([
            "synth", "--speakers", "2", "--sentences", "3", "--interactive-sessions", "1",
            "--seed", "4", "--out", str(corpus_dir),
        ]) == 0
        doc = json.loads((corpus_dir / "manifest.json").read_text())
        utterances = doc["utterances"]
        subsets = (("all", utterances), ("odd", utterances[:-1]), ("one", utterances[:1]))
        for name, subset in subsets:
            manifest = corpus_dir / f"{name}.json"
            manifest.write_text(json.dumps({**doc, "utterances": subset}))
            argv = ["features", "--manifest", str(manifest), "--out", str(root / name)]
            assert cli.main(argv) == 0
        trees[n] = _file_bytes(root)
        _assert_no_child_left()
    assert len(utterances) == 18
    assert forks == {1: [], 2: [1, 1, 1]}  # synth, all, odd; one task runs inline
    assert sum(name.endswith(".artf") for name in trees[2]) == 18 + 17 + 1
    assert trees[1] == trees[2]


def _copied_corpus(pipeline, tmp_path):
    """A copy of the pipeline corpus, and its manifest's utterances."""
    corpus_dir = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus_dir)
    manifest = corpus_dir / "manifest.json"
    return manifest, json.loads(manifest.read_text())["utterances"]


@pytest.mark.parametrize("index", [2, 3], ids=["caller-share", "child-share"])
def test_features_corrupt_wav_in_either_share(pipeline, tmp_path, capsys, monkeypatch, index):
    """A corrupt WAV exits 2 naming the file, whichever process reads it;
    the child's AudioError reaches the caller as an AudioError."""
    set_cpus(monkeypatch, 2)
    manifest, utterances = _copied_corpus(pipeline, tmp_path)
    wav = manifest.parent / utterances[index]["audio_path"]
    wav.write_bytes(b"this is not audio")
    argv = ["features", "--manifest", str(manifest), "--out", str(tmp_path / "features")]
    with _deadline(120):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"corrupt WAV: {wav}" in err
        _assert_no_child_left()
        args = cli.build_parser().parse_args(argv)
        with pytest.raises(AudioError, match=f"corrupt WAV: {wav}"):
            args.func(args)
    _assert_no_child_left()


def test_features_child_death_is_an_error(pipeline, tmp_path, capsys, monkeypatch):
    """A child that dies without reporting (here: os._exit(3) while reading
    an odd-indexed WAV) exits 2 with its exit code, and does not hang."""
    set_cpus(monkeypatch, 2)
    manifest, utterances = _copied_corpus(pipeline, tmp_path)
    odd = str(manifest.parent / utterances[1]["audio_path"])
    load_audio = dsp.load_audio
    monkeypatch.setattr(
        dsp, "load_audio", lambda path: os._exit(3) if path == odd else load_audio(path)
    )
    with _deadline(120):
        assert cli.main([
            "features", "--manifest", str(manifest), "--out", str(tmp_path / "features"),
        ]) == 2
    assert "error: forked worker exited with code 3" in capsys.readouterr().err
    _assert_no_child_left()


@pytest.mark.parametrize(
    "exc", [DataError("bad value 3"), FileNotFoundError(2, "No such file", "x.wav")],
    ids=["phonosim", "os"],
)
def test_split_raises_child_error_again(monkeypatch, exc):
    """An error raised in the child is raised in the caller with its type
    and message."""
    set_cpus(monkeypatch, 2)

    def task(i):
        if i == 3:
            raise exc

    with _deadline(60), pytest.raises(type(exc)) as raised:
        run_split(task, range(6))
    assert str(raised.value) == str(exc)
    _assert_no_child_left()


def test_split_interrupt_kills_child(monkeypatch):
    """Ctrl-C in the caller's share ends the child at once, reaped."""
    set_cpus(monkeypatch, 2)

    def task(i):
        if i == 1:
            time.sleep(60)
        elif i == 2:
            raise KeyboardInterrupt

    start = time.monotonic()
    with _deadline(60), pytest.raises(KeyboardInterrupt):
        run_split(task, range(4))
    assert time.monotonic() - start < 30
    _assert_no_child_left()


def test_features_checks_every_audio_path_first(pipeline, tmp_path, capsys):
    """A manifest whose last utterance has no audio path exits 2 before any
    feature file is written."""
    doc = _manifest_with_speaker(pipeline, "S01")
    del doc["utterances"][-1]["audio_path"]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "features"
    assert cli.main(["features", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert "has no audio_path" in capsys.readouterr().err
    assert _files_under(tmp_path) == ["manifest.json"]


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from conftest import any_json, json_file_bytes, valid_or_any

    # near-valid pairs files: the right keys, each value valid or any JSON value
    _near_pairs = st.fixed_dictionaries({
        "pairs": st.lists(
            st.fixed_dictionaries(
                {
                    "left": valid_or_any("A__solo__1__001"),
                    "right": valid_or_any("B__solo__1__001"),
                    "label": valid_or_any(1),
                    "condition": valid_or_any("solo"),
                },
            ) | any_json,
            max_size=3,
        ) | any_json,
    })

    def _near_config(cls):
        """Any subset of the fields of ``cls``, plus an unknown one, each
        holding its default or any JSON value."""
        fields = {f.name: valid_or_any(f.default) for f in dataclasses.fields(cls)}
        return st.fixed_dictionaries({}, optional={**fields, "bogus": any_json})

    @pytest.fixture(scope="module")
    def fuzz_dir(tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @settings(max_examples=300, deadline=None)
    @given(raw=json_file_bytes(_near_pairs))
    def test_load_pairs_file_fuzz(fuzz_dir, raw):
        """Any file loads as a list of pairs or raises a PhonosimError."""
        path = fuzz_dir / "pairs.json"
        path.write_bytes(raw)
        try:
            assert isinstance(cli._load_pairs_file(str(path)), list)
        except PhonosimError:
            pass

    @pytest.mark.parametrize(
        "cls, what",
        [(training.TrainConfig, "training config"), (dsp.MfccConfig, "MFCC config")],
        ids=["train", "mfcc"],
    )
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_load_config_fuzz(fuzz_dir, cls, what, data):
        """Any file loads as a config or raises a PhonosimError."""
        path = fuzz_dir / "config.json"
        path.write_bytes(data.draw(json_file_bytes(_near_config(cls))))
        try:
            assert isinstance(cli._load_config(cls, what, str(path)), cls)
        except PhonosimError:
            pass

except ImportError:  # pragma: no cover - hypothesis is an optional test extra

    def test_fuzz_without_hypothesis():
        pytest.skip("hypothesis is not installed, so the fuzz tests did not run")
