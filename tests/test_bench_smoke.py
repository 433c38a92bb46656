"""Smoke test of the pipeline benchmark at toy size, and of its probes.

The benchmark checks the CLI's outputs against its own NumPy reference
forward (to 1e-9), so this also guards the kernel in ``phonosim.net``
against changes the unit tests would not see.  The probes that turn a
traced call into a count are applied to real calls here, each against
the true count.
"""

import importlib.util
import json
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest

from phonosim import analysis, corpus, dsp, net, train
from test_analysis import _loop_filter, _random_table

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


def _bench_tracing():
    """``bench/tracing.py``, loaded from its file (``bench`` is no package)."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_probes_count_what_they_name(tiny_corpus, tiny_features, tmp_path):
    """Each probe's count for a real call is the true count: a function
    that returned another kind of result (a mask, a dict, a list) would
    still give every traced metric above 0 but count the wrong thing."""
    probes = _bench_tracing().PROBES

    def probed(name, fn, *args):
        result = fn(*args)
        return result, probes[name](args, {}, result)

    params = net.init_params(net.ModelDims(), seed=0)
    solo, counts = probed("corpus.build_solo_pairs", corpus.build_solo_pairs, tiny_corpus, 1, 4)
    assert counts == {"pairs": len(solo)} and len(solo) > 0
    inter, counts = probed(
        "corpus.build_condition_pairs", corpus.build_condition_pairs,
        tiny_corpus, "interactive", [1],
    )
    assert counts == {"pairs": len(inter)} and len(inter) > 0
    _, counts = probed(
        "analysis.score_pairs", analysis.score_pairs, params, solo, tiny_features, tiny_corpus
    )
    assert counts == {"pairs": len(solo)}
    table, _ = _random_table(0)
    _, counts = probed("analysis.filter_scores", analysis.filter_scores, table)
    assert counts == {"pairs": len(_loop_filter(table, 0.5))}

    samples = np.random.default_rng(0).normal(size=12_345)
    w = dsp.Waveform(samples=samples, sample_rate=dsp.PIPELINE_RATE)
    _, counts = probed("dsp.compute_mfcc", dsp.compute_mfcc, w)
    n_frames = dsp.frame_count(len(samples), dsp.WINDOW_SAMPLES, dsp.HOP_SAMPLES)
    assert counts == {"frames": n_frames}
    path = tmp_path / "a.wav"
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(16000)
        fh.writeframes(np.zeros(12_345, dtype="<i2").tobytes())
    _, counts = probed("dsp.load_audio", dsp.load_audio, path)
    assert counts == {"audio_s": 12_345 / 16_000}

    rng = np.random.default_rng(1)
    lefts = [rng.normal(size=(n, 39)) for n in (7, 3, 5)]
    rights = [rng.normal(size=(n, 39)) for n in (2, 9, 4)]
    _, counts = probed(
        "train.pair_forward_backward", train.pair_forward_backward,
        params, lefts, rights, np.array([1, 0, 1]),
    )
    assert counts == {"frame_steps": 6 * 9, "true_frames": 7 + 3 + 5 + 2 + 9 + 4}
    keys = [p.left for p in solo] + [p.right for p in solo]
    _, counts = probed("train.embed_all", train.embed_all, params, keys, tiny_features)
    assert sorted(counts["keys"]) == sorted(set(keys))
