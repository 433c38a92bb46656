"""Metamorphic relations of the whole pipeline, on the tiny corpus and, for
the relations that run the CLI, on a 4-speaker corpus with one model
trained on it once.

- Gain: scaling a waveform by g adds log g to every log mel energy; the
  orthonormal DCT puts that constant in c0 alone and CMVN removes it, so
  ``extract_features`` of the scaled WAV equals that of the original.  Both
  are written as 64-bit float WAVs, which hold the scaled samples exactly
  as computed.  On these 36 utterances the features moved by at most
  9.7e-14; through 32-bit float WAVs, requantization moved them by 8.3e-7
  at g = 0.05.
- Pair sides: the cosine is symmetric, so swapping left and right in a
  pairs file leaves ``eval``'s report byte-identical.
- Manifest order: every pair builder reads its utterances ordered by
  speaker, session and sentence, so shuffling the manifest's utterances
  leaves the pairs files, ``eval.json`` and the ``analyze`` outputs
  byte-identical.
- Relabelling: renaming the speakers (and the feature files with them)
  reorders the pairs but keeps each one, so ``speaker_scores`` is permuted
  with its raw scores kept to 1e-12.  A normalized score divides by the
  spread of its raw scores, so it is held to 4e-12 over that spread.
- Time reversal: reversing every input and swapping the two directions'
  weights, with the halves of every tensor that spans both directions,
  gives the same model.  Each recurrence of the mirror packs the frames
  its counterpart packed, in the same order; only the head sums in
  another order.  Embeddings moved by at most 1.1e-16, and gradients by at
  most 4.8e-15 of their tensor's largest entry.
"""

import contextlib
import dataclasses
import json
import os
import shutil

import numpy as np
import pytest

from phonosim import cli, corpus, dsp, net
from phonosim import train as tr

from conftest import carried_frames, wav_bytes


@pytest.mark.parametrize("gain", [0.5, 0.05, 1e-3])
def test_gain_leaves_features_unchanged(tiny_corpus, tmp_path, gain):
    cfg = dsp.MfccConfig()
    for u in tiny_corpus.utterances:
        x = dsp.load_audio(tiny_corpus.resolve(u.audio_path)).samples
        paths = tmp_path / "one.wav", tmp_path / "scaled.wav"
        for path, samples in zip(paths, (x, gain * x)):
            path.write_bytes(wav_bytes(samples.astype("<f8").tobytes(), tag=3, width=8))
        want, got = (dsp.extract_features(path, cfg) for path in paths)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=u.key)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A 4-speaker corpus with two interactive sessions, its feature files,
    and a model trained on its solo sentences 1-4 (it scores every speaker).
    Returns the manifest, the feature directory and the checkpoint."""
    root = tmp_path_factory.mktemp("metamorphic")
    cfg = corpus.SynthConfig(n_speakers=4, n_sentences=6, lam=0.5, interactive_sessions=2)
    manifest = corpus.generate_synthetic_corpus(cfg, seed=11, out_dir=root / "corpus")
    features = root / "features"
    features.mkdir()
    store = dsp.FeatureStore(features)
    frames = {}
    for u in manifest.utterances:
        frames[u.key] = dsp.extract_features(manifest.resolve(u.audio_path), dsp.MfccConfig())
        dsp.write_features(frames[u.key], store.path_for(u.key))
    train_pairs = corpus.build_solo_pairs(manifest, 1, 4)
    params = tr.train(tr.TrainConfig(epochs=10, lr0=3e-3, seed=1), train_pairs, [], frames).params
    model = root / "model.artm"
    net.save_checkpoint(params, model)
    return manifest, features, model


def _run(*argv):
    assert cli.main([str(a) for a in argv]) == 0


def _outputs(manifest, features, model, out):
    """The bytes of every pairs file, ``eval.json`` and ``analyze`` output that
    the CLI writes for ``manifest``, by file name under ``out``."""
    path = out / "manifest.json"
    out.mkdir()
    corpus.save_manifest(manifest, path)
    for condition, selection in (
        ("solo", ("--range", "1:6")),
        ("interactive", ("--sessions", "1,2")),
        ("imitation", ("--sessions", "1")),
    ):
        pairs = out / f"{condition}.json"
        _run("pairs", "--manifest", path, "--condition", condition, *selection, "--out", pairs)
        _run("eval", "--model", model, "--pairs", pairs, "--features", features,
             "--report", out / f"{condition}_eval.json")
    _run("analyze", "--model", model, "--manifest", path, "--features", features,
         "--sessions", "1,2", "--out", out / "analysis")
    return {
        p.relative_to(out).as_posix(): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "manifest.json" and "config" not in p.name
    }


def test_swapping_pair_sides_leaves_eval_report(pipeline, tmp_path):
    manifest, features, model = pipeline
    pairs = corpus.build_solo_pairs(manifest, 1, 6)
    pairs += corpus.build_condition_pairs(manifest, "interactive", [1])
    swapped = [p._replace(left=p.right, right=p.left) for p in pairs]
    assert swapped != pairs
    reports = []
    for name, side in (("pairs", pairs), ("swapped", swapped)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"pairs": [p._asdict() for p in side]}))
        report = tmp_path / f"{name}_eval.json"
        _run("eval", "--model", model, "--pairs", path, "--features", features, "--report", report)
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


def test_shuffling_the_manifest_leaves_every_output(pipeline, tmp_path):
    manifest, features, model = pipeline
    utterances = list(manifest.utterances)
    np.random.default_rng(3).shuffle(utterances)
    shuffled = dataclasses.replace(manifest, utterances=utterances)
    want = _outputs(manifest, features, model, tmp_path / "ordered")
    got = _outputs(shuffled, features, model, tmp_path / "shuffled")
    assert "analysis/report.json" in want and len(want) == 9
    for name in want:
        assert got[name] == want[name], name


RENAMED = {"S01": "Z9", "S02": "B7", "S03": "Y1", "S04": "A0"}  # reverses the id order


def test_renaming_speakers_permutes_speaker_scores(pipeline, tmp_path):
    manifest, features, model = pipeline
    renamed = corpus.Manifest(
        speakers=[RENAMED[s] for s in manifest.speakers],
        dyads=[(RENAMED[a], RENAMED[b]) for a, b in manifest.dyads],
        utterances=[
            dataclasses.replace(u, speaker_id=RENAMED[u.speaker_id]) for u in manifest.utterances
        ],
    )
    renamed_features = tmp_path / "features"
    renamed_features.mkdir()
    store, renamed_store = dsp.FeatureStore(features), dsp.FeatureStore(renamed_features)
    for u, v in zip(manifest.utterances, renamed.utterances):
        shutil.copyfile(store.path_for(u.key), renamed_store.path_for(v.key))
    reports = []
    for m, feats, out in ((manifest, features, "ids"), (renamed, renamed_features, "renamed")):
        outputs = _outputs(m, feats, model, tmp_path / out)
        reports.append(json.loads(outputs["analysis/report.json"]))
    want, got = (r["speaker_scores"] for r in reports)
    assert len(want) == 4 and "imitation_ability_norm" in want["S01"]
    assert list(got) == sorted(RENAMED[s] for s in want)
    for field in want["S01"]:
        raw = np.array([want[s][field.removesuffix("_norm")] for s in want])
        tol = 4e-12 / np.ptp(raw) if field.endswith("_norm") else 1e-12
        for s in want:
            assert abs(got[RENAMED[s]][field] - want[s][field]) <= tol, (s, field)


def _mirror(tensors: dict, d_hidden: int) -> dict:
    """``tensors`` (parameters or their gradients) of the same model with its
    directions swapped: ``wf/uf/bf`` with ``wb/ub/bb``, and the halves of
    each tensor whose last axis spans both directions."""
    out = dict(tensors)
    for f, b in (("wf", "wb"), ("uf", "ub"), ("bf", "bb")):
        out[f], out[b] = tensors[b], tensors[f]
    for name in ("wy", "bn_scale", "bn_shift", "bn_mean", "bn_var"):
        if name in tensors:
            out[name] = np.roll(tensors[name], d_hidden, axis=-1)
    return out


def _mirrored_params(seed: int):
    """Random parameters, every bias and batch-norm tensor non-trivial, and
    their mirror."""
    p = net.init_params(net.ModelDims(), seed)
    rng = np.random.default_rng(seed)
    for name in ("bf", "bb", "by", "be", "bn_shift", "bn_mean"):
        getattr(p, name)[...] = rng.normal(0.0, 0.1, getattr(p, name).shape)
    for name in ("bn_scale", "bn_var"):
        getattr(p, name)[...] = rng.uniform(0.5, 1.5, getattr(p, name).shape)
    tensors = {name: getattr(p, name) for name in net.ALL_TENSORS}
    return p, net.ModelParams(dims=p.dims, **_mirror(tensors, p.dims.d_hidden))


def test_time_reversal_leaves_embeddings(tiny_features):
    p, q = _mirrored_params(seed=5)
    reversed_features = {key: f[::-1] for key, f in tiny_features.items()}
    want = tr.embed_all(p, tiny_features, tiny_features)
    got = tr.embed_all(q, reversed_features, reversed_features)
    for key in tiny_features:
        np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-12, err_msg=key)


@pytest.mark.parametrize("worker", [False, True], ids=["inline", "worker"])
def test_time_reversal_mirrors_gradients(tiny_features, monkeypatch, worker):
    """On a batch with one row of 300 frames, long enough that BPTT stops
    carrying it part of the way back."""
    if worker and not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    p, q = _mirrored_params(seed=6)
    dh = p.dims.d_hidden
    utts = list(tiny_features.values())
    feats = [np.concatenate(utts)[:300], *utts[:7]]
    reversed_feats = [f[::-1] for f in feats]
    rng = np.random.default_rng(7)
    labels = rng.integers(0, 2, size=len(feats) // 2)
    masks = (rng.random((len(feats), 2 * dh)) >= 0.2) / 0.8

    carried = carried_frames(monkeypatch)
    results = []
    for params, batch, m in ((p, feats, masks), (q, reversed_feats, np.roll(masks, dh, axis=-1))):
        forked = net.BackwardWorker(p.dims, batch, len(batch)) if worker else None
        with forked or contextlib.nullcontext() as w:
            results.append(
                tr.pair_forward_backward(params, batch[0::2], batch[1::2], labels, 1e-3, m, w)
            )
    (loss, grads, _, sims), (mloss, mgrads, _, msims) = results
    assert abs(mloss - loss) <= 1e-12 * abs(loss)
    np.testing.assert_allclose(msims, sims, rtol=0, atol=1e-12)
    for name, want in _mirror(grads, dh).items():
        scale = np.abs(want).max()
        assert np.abs(mgrads[name] - want).max() <= 1e-12 * scale, name
    assert all(0 < n_carried < n for n_carried, n in carried)  # the cut ran
