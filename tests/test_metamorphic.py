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
"""

import json

import numpy as np
import pytest

from phonosim import cli, corpus, dsp, net
from phonosim import train as tr

from conftest import wav_bytes


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
