"""Acceptance suite: nine criteria, one pass/fail line each.

Shared heavy artifacts (synthetic corpora at three convergence strengths
and one model trained at defaults) are built once per module.  Every
criterion prints a single ``[acceptance N] ...: PASS/FAIL`` line on the
real stdout so the verdicts survive pytest's capture.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from phonosim import analysis, corpus, dsp, net
from phonosim import train as tr

from conftest import metadata_manifest


def verdict(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    sys.__stdout__.write(f"\n[acceptance {num}] {desc}: {tag}{suffix}\n")
    sys.__stdout__.flush()
    assert ok, f"acceptance criterion {num} failed: {desc}{suffix}"


# ---------------------------------------------------------------------------
# shared artifacts for criteria 3-5


TRAIN_SENT = (1, 8)
VAL_SENT = (9, 12)
HELDOUT_SENT = (13, 20)
SEED = 7


def _features(manifest):
    cfg = dsp.MfccConfig()
    store = {}
    for u in manifest.utterances:
        wav = dsp.load_audio(manifest.resolve(u.audio_path))
        feats = dsp.append_deltas(dsp.compute_mfcc(wav, cfg), cfg.delta_window)
        store[u.key] = dsp.cmvn(feats).frames
    return store


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """(manifest, features) per lambda in {0, 0.5, 1}; 4 speakers, 20 sentences."""
    root = tmp_path_factory.mktemp("acceptance")
    out = {}
    for lam in (0.0, 0.5, 1.0):
        m = corpus.generate_synthetic_corpus(
            corpus.SynthConfig(lam=lam), SEED, root / f"lam{lam}"
        )
        out[lam] = (m, _features(m))
    return out


@pytest.fixture(scope="module")
def trained(corpora):
    """Defaults (50 epochs) on solo sentences 1-8 of the lambda=0 corpus."""
    manifest, store = corpora[0.0]
    train_pairs = corpus.build_solo_pairs(manifest, *TRAIN_SENT)
    val_pairs = corpus.build_solo_pairs(manifest, *VAL_SENT)
    result = tr.train(tr.TrainConfig(seed=3), train_pairs, val_pairs, store)
    return result


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_pair_counts_exact():
    m = metadata_manifest(n_speakers=58, n_sentences=80)
    counts = {}
    for name, rng in (("train", (1, 40)), ("val", (41, 60)), ("test", (61, 80))):
        pairs = corpus.build_solo_pairs(m, *rng)
        counts[name] = (
            sum(1 for p in pairs if p.label == 1),
            sum(1 for p in pairs if p.label == 0),
        )
    ok = (
        counts["train"] == (45240, 46400)
        and counts["val"] == (11020, 11600)
        and counts["test"] == (11020, 11600)
    )
    verdict(1, "pair-count reproduction (exact)", ok, f"{counts}")


def test_criterion_2_gradient_correctness():
    errors = tr.gradient_check(net.ModelDims(5, 4, 3), seed=0, lengths=(7, 5, 6, 4))
    worst = max(errors.values())
    ok = set(errors) == set(net.TRAINABLE_TENSORS) and worst < 1e-4
    verdict(2, "gradient vs central finite differences", ok, f"worst rel err {worst:.2e}")


def test_criterion_3_overfit_sanity(trained):
    best = max(h["train_accuracy"] for h in trained.history)
    ok = best >= 0.95 and len(trained.history) <= 50
    verdict(3, "training accuracy >= 0.95 within 50 epochs", ok, f"best {best:.3f}")


def test_criterion_4_generalization(corpora, trained):
    manifest, store = corpora[0.0]
    heldout = corpus.build_solo_pairs(manifest, *HELDOUT_SENT)
    report = tr.evaluate(trained.best_params, heldout, store)
    ok = report.accuracy >= 0.80
    verdict(
        4,
        "held-out sentence verification accuracy >= 0.80",
        ok,
        f"accuracy {report.accuracy:.3f}, AUC {report.auc:.3f}, n={report.n}",
    )


def test_criterion_5_convergence_direction(corpora, trained):
    params = trained.best_params
    dyad_means = {}
    intra_means = {}
    for lam, (manifest, store) in corpora.items():
        inter = corpus.build_condition_pairs(manifest, "interactive", [1, 2])
        dyad = [p for p in inter if p.label == 0]
        sims = tr.score_similarities(params, dyad, store)
        dyad_means[lam] = float(np.mean(sims))
        vs_solo = analysis.cross_condition_pairs(manifest, "interactive", [1, 2])
        sims = tr.score_similarities(params, vs_solo, store)
        intra_means[lam] = float(np.mean(sims))
    lams = (0.0, 0.5, 1.0)
    nondecreasing = all(
        dyad_means[a] <= dyad_means[b] for a, b in zip(lams, lams[1:])
    )
    nonincreasing = all(
        intra_means[a] >= intra_means[b] for a, b in zip(lams, lams[1:])
    )
    strict = dyad_means[1.0] > dyad_means[0.0] and intra_means[1.0] < intra_means[0.0]
    ok = nondecreasing and nonincreasing and strict
    detail = (
        "intra-dyad " + "/".join(f"{dyad_means[l]:.3f}" for l in lams)
        + ", intra-speaker " + "/".join(f"{intra_means[l]:.3f}" for l in lams)
    )
    verdict(5, "similarity monotone in convergence strength", ok, detail)


def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 21))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(n) * 4) / 4  # ties included

        pos = scores[labels == 1]
        neg = scores[labels == 0]
        auc_oracle = sum(
            1.0 if p > q else (0.5 if p == q else 0.0) for p in pos for q in neg
        ) / (len(pos) * len(neg))

        tp = int(np.sum((scores >= 0.5) & (labels == 1)))
        fp = int(np.sum((scores >= 0.5) & (labels == 0)))
        tn = int(np.sum((scores < 0.5) & (labels == 0)))
        fn = int(np.sum((scores < 0.5) & (labels == 1)))

        def prf(tp_, fp_, fn_):
            p_ = tp_ / (tp_ + fp_) if tp_ + fp_ else 0.0
            r_ = tp_ / (tp_ + fn_) if tp_ + fn_ else 0.0
            return p_, r_, (2 * p_ * r_ / (p_ + r_) if p_ + r_ else 0.0)

        rep = tr.metrics_from_scores(scores, labels, 0.5)
        ok &= abs(tr.roc_auc(scores, labels) - auc_oracle) < 1e-12
        ok &= (rep.tp, rep.fp, rep.tn, rep.fn) == (tp, fp, tn, fn)
        ok &= rep.accuracy == (tp + tn) / n
        for cls, (tp_, fp_, fn_) in (
            (rep.positive, (tp, fp, fn)),
            (rep.negative, (tn, fn, fp)),
        ):
            p_, r_, f_ = prf(tp_, fp_, fn_)
            ok &= (
                abs(cls.precision - p_) < 1e-12
                and abs(cls.recall - r_) < 1e-12
                and abs(cls.f1 - f_) < 1e-12
            )
        if not ok:
            break
    verdict(6, "metrics match brute force on 1000 random score sets", bool(ok))


def test_criterion_7_pearson():
    import scipy.stats

    x = np.arange(12.0)
    r_lin, p_lin = analysis.pearson(x, 2.0 * x - 1.0)
    closed_ok = abs(r_lin - 1.0) < 1e-10 and p_lin == 0.0

    rng = np.random.default_rng(1)
    xr = rng.normal(size=30)
    yr = 0.4 * xr + rng.normal(size=30)
    r_got, _ = analysis.pearson(xr, yr)
    xc, yc = xr - xr.mean(), yr - yr.mean()
    r_closed = (xc @ yc) / np.sqrt((xc @ xc) * (yc @ yc))
    closed_ok &= abs(r_got - r_closed) < 1e-10

    r, n = 0.51, 43
    z = (np.arange(n) - (n - 1) / 2.0) / np.std(np.arange(n))
    e = rng.normal(size=n)
    e -= e.mean()
    e -= z * (e @ z) / n
    e /= e.std()
    y = r * z + np.sqrt(1 - r * r) * e
    got_r, got_p = analysis.pearson(np.arange(n, dtype=float), y)
    t = r * np.sqrt((n - 2) / (1 - r * r))
    oracle_p = 2.0 * scipy.stats.t.sf(t, df=n - 2)
    paper_ok = (
        abs(got_r - r) < 1e-10
        and abs(got_p - oracle_p) < 1e-6
        and abs(got_p - 0.0005) < 1e-4
    )
    verdict(
        7,
        "Pearson r closed form and p-value oracle",
        closed_ok and paper_ok,
        f"p({r}, n={n}) = {got_p:.6f}",
    )


def test_criterion_8_invariant_suite(tmp_path):
    rng = np.random.default_rng(2)
    params = net.init_params(net.ModelDims(5, 4, 3), seed=0)
    checks = {}

    x = rng.normal(size=(6, 5))
    padded = np.vstack([x, rng.normal(size=(2, 5)) * 50])
    checks["masking"] = np.array_equal(
        net.rnn_forward(params, x, 6), net.rnn_forward(params, padded, 6)
    )

    a = (rng.normal(size=(5, 5)), 5)
    b = (rng.normal(size=(7, 5)), 7)
    checks["symmetry"] = net.siamese_forward(params, a, b) == net.siamese_forward(
        params, b, a
    )

    e = net.embed_utterance(params, a[0], 5)
    checks["embedding_range"] = bool(((e > 0.0) & (e < 1.0)).all())

    v = rng.normal(size=8)
    checks["cosine_identity"] = abs(net.cosine_similarity(v, v) - 1.0) < 1e-12

    cm = dsp.cmvn(dsp.FeatureMatrix(frames=rng.normal(size=(40, 39)) * 5 + 2)).frames
    checks["cmvn_means"] = bool((np.abs(cm.mean(axis=0)) < 1e-6).all())

    frames = rng.normal(size=(9, 39)).astype(np.float32).astype(np.float64)
    path = tmp_path / "roundtrip.artf"
    dsp.write_features(frames, path)
    checks["feature_roundtrip"] = np.array_equal(dsp.read_features(path).frames, frames)

    cfg = corpus.SynthConfig(
        n_speakers=2, n_sentences=2, interactive_sessions=1, imitation_sessions=0
    )
    m1 = corpus.generate_synthetic_corpus(cfg, 13, tmp_path / "d1")
    m2 = corpus.generate_synthetic_corpus(cfg, 13, tmp_path / "d2")
    checks["synth_determinism"] = all(
        Path(m1.resolve(u1.audio_path)).read_bytes()
        == Path(m2.resolve(u2.audio_path)).read_bytes()
        for u1, u2 in zip(m1.utterances, m2.utterances)
    )

    store = _features(m1)
    pairs = corpus.build_solo_pairs(m1, 1, 2)
    tc = tr.TrainConfig(epochs=2, seed=5)
    h1 = tr.train(tc, pairs, [], store).history
    h2 = tr.train(tc, pairs, [], store).history
    checks["train_determinism"] = h1 == h2

    failed = [k for k, v in checks.items() if not v]
    verdict(8, "invariant suite", not failed, f"failed: {failed}" if failed else "7 invariants")


def test_criterion_9_frame_count_formula():
    one_second = dsp.frame_count(16000, 400, 160) == 98
    boundary = dsp.frame_count(400, 400, 160) == 1
    verdict(9, "frame-count formula", one_second and boundary)
