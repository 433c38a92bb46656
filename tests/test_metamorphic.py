"""Metamorphic relations of the whole pipeline, on the tiny corpus.

- Gain: scaling a waveform by g adds log g to every log mel energy; the
  orthonormal DCT puts that constant in c0 alone and CMVN removes it, so
  ``extract_features`` of the scaled WAV equals that of the original.  Both
  are written as 64-bit float WAVs, which hold the scaled samples exactly
  as computed.  On these 36 utterances the features moved by at most
  9.7e-14; through 32-bit float WAVs, requantization moved them by 8.3e-7
  at g = 0.05.
- Pair sides: the cosine is symmetric, so swapping left and right in a
  pairs file leaves ``eval``'s report byte-identical.
- Time reversal: reversing every input and swapping the two directions'
  weights, with the halves of every tensor that spans both directions,
  gives the same model.  Each recurrence of the mirror packs the frames
  its counterpart packed, in the same order; only the head sums in
  another order.  Embeddings moved by at most 1.1e-16, and gradients by at
  most 4.8e-15 of their tensor's largest entry.
"""

import contextlib
import json
import os

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


def test_swapping_pair_sides_leaves_eval_report(tiny_corpus, tiny_features, tmp_path):
    train_pairs = corpus.build_solo_pairs(tiny_corpus, 1, 4)
    params = tr.train(tr.TrainConfig(epochs=2, seed=1), train_pairs, [], tiny_features).params
    model = tmp_path / "model.artm"
    net.save_checkpoint(params, model)
    features = tmp_path / "features"
    features.mkdir()
    store = dsp.FeatureStore(features)
    for key, frames in tiny_features.items():
        dsp.write_features(frames, store.path_for(key))

    pairs = corpus.build_solo_pairs(tiny_corpus, 1, 6)
    pairs += corpus.build_condition_pairs(tiny_corpus, "interactive", [1])
    swapped = [p._replace(left=p.right, right=p.left) for p in pairs]
    assert swapped != pairs
    reports = []
    for name, side in (("pairs", pairs), ("swapped", swapped)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"pairs": [p._asdict() for p in side]}))
        report = tmp_path / f"{name}_eval.json"
        argv = ["eval", "--model", str(model), "--pairs", str(path)]
        assert cli.main([*argv, "--features", str(features), "--report", str(report)]) == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


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
