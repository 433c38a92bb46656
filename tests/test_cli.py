"""CLI pipeline: synth -> features -> pairs -> train -> eval -> analyze.

Runs the whole chain in-process through cli.main() on a miniature corpus,
then exercises gradcheck and the error paths (exit code 2 for data errors,
1 for usage errors).
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phonosim
from phonosim import cli, corpus, dsp, train as training
from phonosim.errors import PhonosimError


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
    config = tmp_path / "mfcc.json"
    config.write_text(json.dumps({"sample_rate": 8000, "fmax": 4000.0}))
    assert cli.main([
        "features", "--manifest", os.path.join(pipeline["corpus"], "manifest.json"),
        "--config", str(config), "--out", str(tmp_path / "features"),
    ]) == 2
    assert "error:" in capsys.readouterr().err


def test_condition_pairs_require_sessions(pipeline):
    manifest = os.path.join(pipeline["corpus"], "manifest.json")
    out = str(pipeline["root"] / "int_pairs.json")
    assert cli.main([
        "pairs", "--manifest", manifest, "--condition", "interactive", "--out", out,
    ]) == 2
    assert cli.main([
        "pairs", "--manifest", manifest, "--condition", "interactive",
        "--sessions", "1", "--out", out,
    ]) == 0
    assert len(json.loads(Path(out).read_text())["pairs"]) > 0


def _modules_loaded_by(code: str) -> str:
    """Run ``code`` in a fresh interpreter; the sorted list of SciPy and
    multiprocessing modules it loaded, as printed."""
    src = os.path.dirname(os.path.dirname(phonosim.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code += (
        "; import sys; print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'multiprocessing')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout.strip().splitlines()[-1]


def test_import_loads_no_scipy():
    """The package and its CLI import without SciPy or multiprocessing;
    only analyze loads SciPy, and only train multiprocessing."""
    assert _modules_loaded_by("import phonosim, phonosim.cli") == "[]"


def test_features_loads_no_scipy(pipeline, tmp_path):
    """synth writes 16-bit PCM, which features reads without SciPy."""
    manifest = os.path.join(pipeline["corpus"], "manifest.json")
    out = str(tmp_path / "features")
    loaded = _modules_loaded_by(
        "from phonosim import cli; "
        f"assert cli.main(['features', '--manifest', {manifest!r}, '--out', {out!r}]) == 0"
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
    model = os.path.join(pipeline["model_dir"], "model.artm")
    out = tmp_path / "out"
    if command == "eval":
        argv = ["eval", "--model", model, "--pairs", pipeline["pairs"],
                "--report", str(out)]
    else:
        argv = ["analyze", "--model", model, "--sessions", "1", "--out", str(out),
                "--manifest", os.path.join(pipeline["corpus"], "manifest.json")]
    argv += ["--features", pipeline["features"], f"--threshold={threshold}"]
    assert cli.main(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def _manifest_text(field, raw):
    """A valid two-speaker manifest with the value at ``field`` set to raw JSON."""
    doc = {
        "speakers": [{"id": "A"}, {"id": "B"}],
        "dyads": [["A", "B"]],
        "utterances": [
            {"speaker_id": s, "dyad_id": "A+B", "condition": "solo", "session": 1,
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


@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
def test_bad_gradcheck_tolerance_exit_code(capsys, tolerance):
    assert cli.main(["gradcheck", f"--tolerance={tolerance}"]) == 2
    captured = capsys.readouterr()
    assert "error: --tolerance" in captured.err
    assert "passed" not in captured.out


def test_n_ceps_sets_feature_width(pipeline, tmp_path, capsys):
    """n_ceps 12 writes 36-column features, which the default 39-input
    model rejects at train."""
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
    assert cli.main([
        "train", "--features", str(features), "--pairs", pipeline["pairs"],
        "--out", str(model),
    ]) == 2
    assert "error:" in capsys.readouterr().err
    assert not model.exists()


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
    pass
