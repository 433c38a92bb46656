"""Training machinery: losses, gradients, Adam, metrics, and the loop.

Frozen values:
  - bce(0.5, any) = ln 2 = 0.6931471805599453
  - bce(0.9, 0)   = -ln 0.1 = 2.302585092994046
  - bce(1 - 1e-7, 1) ~= 1e-7
Oracles:
  - finite differences for every gradient tensor (shipped gradient_check)
  - O(n^2) pairwise comparison for AUC; direct confusion counting for the
    classification metrics
"""

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from phonosim import net
from phonosim import train as tr
from phonosim.errors import DataError, PhonosimError

from conftest import set_cpus


@pytest.fixture()
def small_params():
    return net.init_params(net.ModelDims(5, 4, 3), seed=0)


def _random_pair(rng, d_in=5, t1=6, t2=8):
    return rng.normal(size=(t1, d_in)), rng.normal(size=(t2, d_in))


# ---------------------------------------------------------------------------
# loss


def test_bce_frozen_values():
    assert tr.bce_loss(0.5, 1) == pytest.approx(0.6931471805599453, abs=1e-12)
    assert tr.bce_loss(0.5, 0) == pytest.approx(0.6931471805599453, abs=1e-12)
    assert tr.bce_loss(0.9, 0) == pytest.approx(2.302585092994046, abs=1e-12)
    assert tr.bce_loss(1.0 - 1e-7, 1) == pytest.approx(1e-7, rel=1e-3)


def test_bce_clamps_extremes():
    assert np.isfinite(tr.bce_loss(0.0, 1))
    assert np.isfinite(tr.bce_loss(1.0, 0))
    assert tr.bce_loss(1.0, 0) == pytest.approx(-np.log(1e-7))


# ---------------------------------------------------------------------------
# gradients


def test_gradient_check_all_tensors_under_tolerance():
    # the second batch mixes short and long rows, so padded steps occur; the
    # third has one-frame rows and ties, out of length order
    for lengths in ((7, 5, 6, 4), (2, 9, 3, 8), (1, 6, 3, 6, 1, 3)):
        errors = tr.gradient_check(net.ModelDims(5, 4, 3), seed=0, lengths=lengths)
        assert set(errors) == set(net.TRAINABLE_TENSORS)
        worst = max(errors.values())
        assert worst < 1e-4, f"{lengths}: worst relative error {worst:.3e}"


def test_l1_penalty_additivity(small_params):
    rng = np.random.default_rng(0)
    pair = _random_pair(rng)
    left, right, label = [pair[0]], [pair[1]], np.array([1.0])
    _, g0, _, _ = tr.pair_forward_backward(small_params, left, right, label, 0.0)
    _, g1, _, _ = tr.pair_forward_backward(small_params, left, right, label, 1e-3)
    for name in net.TRAINABLE_TENSORS:
        if name in net.WEIGHT_TENSORS:
            expected = g0[name] + 1e-3 * np.sign(getattr(small_params, name))
        else:
            expected = g0[name]  # biases and batch-norm are exempt
        np.testing.assert_allclose(g1[name], expected, atol=1e-12)


def test_identical_pair_loss_below_ln2(small_params):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(7, 5))
    loss, _, _, _ = tr.pair_forward_backward(small_params, [x], [x], np.array([1.0]))
    assert loss < np.log(2.0)


def test_batched_embeddings_match_single_path(small_params):
    """The padded batch path agrees with per-utterance inference."""
    rng = np.random.default_rng(3)
    feats = [rng.normal(size=(t, 5)) for t in (4, 9, 6)]
    e_batch, _ = net._embed_forward(small_params, feats, training=False)
    for i, f in enumerate(feats):
        single = net.embed_utterance(small_params, f, f.shape[0])
        np.testing.assert_allclose(e_batch[i], single, atol=1e-12)


def test_embed_all_batches_match_single_path(small_params):
    """Length-sorted inference batches agree with one utterance at a time,
    and a key's embedding does not depend on the order of the keys."""
    rng = np.random.default_rng(12)
    lengths = [1, 7, 7, 3, 30, 1, 12, 7, 19, 2, 30, 5] * 3
    assert len(lengths) > 2 * tr.EMBED_ROWS
    store = {f"u{i:02d}": rng.normal(size=(t, 5)) for i, t in enumerate(lengths)}
    keys = list(store)
    emb = tr.embed_all(small_params, keys + keys[:4], store)
    assert set(emb) == set(keys)
    for key, frames in store.items():
        single = net.embed_utterance(small_params, frames, len(frames))
        np.testing.assert_allclose(emb[key], single, rtol=0, atol=1e-12)
    shuffled = tr.embed_all(small_params, list(rng.permutation(keys)), store)
    for key in keys:
        np.testing.assert_array_equal(shuffled[key], emb[key])


def test_pair_loss_matches_per_utterance_oracle():
    """Independent oracle for the padded batch kernel in training mode.

    Each utterance runs its own unpadded tanh loops; batch-norm uses the
    statistics of the dropped-out batch; then the head, cosine and BCE.
    """
    dims = net.ModelDims(6, 5, 4)
    p = net.init_params(dims, seed=3)
    for name in net.WEIGHT_TENSORS:
        getattr(p, name)[...] *= 6.0  # keep the cosine away from 1
    rng = np.random.default_rng(8)
    lengths = (2, 60, 17, 3, 45, 9, 31, 2)
    feats = [rng.normal(size=(t, dims.d_in)) for t in lengths]
    labels = np.array([1.0, 0.0, 0.0, 1.0])
    masks = (rng.random((len(feats), 2 * dims.d_hidden)) >= 0.2) / 0.8
    l1 = 1e-4

    def final_states(x):
        hf = np.zeros(dims.d_hidden)
        for t in range(len(x)):
            hf = np.tanh(p.wf @ x[t] + p.uf @ hf + p.bf)
        hb = np.zeros(dims.d_hidden)
        for t in range(len(x) - 1, -1, -1):
            hb = np.tanh(p.wb @ x[t] + p.ub @ hb + p.bb)
        return np.concatenate([hf, hb])

    h = np.array([final_states(x) for x in feats]) * masks
    mu, var = h.mean(axis=0), h.var(axis=0)
    z = p.bn_scale * (h - mu) / np.sqrt(var + net.BN_EPS) + p.bn_shift
    e = 1.0 / (1.0 + np.exp(-(np.tanh(z @ p.wy.T + p.by) @ p.we.T + p.be)))
    want = 0.0
    for i, y in enumerate(labels):
        a, b = e[2 * i], e[2 * i + 1]
        sim = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        want += tr.bce_loss(sim, y) / len(labels)
    want += l1 * sum(np.abs(getattr(p, n)).sum() for n in net.WEIGHT_TENSORS)

    loss, _, (bn_mu, bn_var), _ = tr.pair_forward_backward(
        p, feats[0::2], feats[1::2], labels, l1, masks
    )
    assert abs(loss - want) <= 1e-12
    np.testing.assert_allclose(bn_mu, mu, rtol=0, atol=1e-12)
    np.testing.assert_allclose(bn_var, var, rtol=0, atol=1e-12)


def _repeated_batch():
    """A batch in which one matrix object fills four slots, one pair being
    (a, a), and a second object fills three."""
    dims = net.ModelDims(6, 5, 4)
    p = net.init_params(dims, seed=4)
    for name in net.WEIGHT_TENSORS:
        getattr(p, name)[...] *= 6.0  # keep the cosine away from 1
    rng = np.random.default_rng(21)
    a, b, c, d = (rng.normal(size=(t, dims.d_in)) for t in (9, 3, 14, 1))
    lefts, rights = [a, a, c, b, c], [a, b, a, d, c]
    labels = np.array([1.0, 0.0, 0.0, 1.0, 1.0])
    masks = (rng.random((2 * len(lefts), 2 * dims.d_hidden)) >= 0.2) / 0.8
    return p, lefts, rights, labels, masks


def test_repeated_matrices_match_distinct_copies(monkeypatch):
    """Slots sharing a matrix object run the recurrences once; loss, batch
    statistics and gradients equal those of a batch of separate copies."""
    p, lefts, rights, labels, masks = _repeated_batch()
    packed = []
    pack = net._pack

    def counting_pack(feats, d_in):
        packed.append(len(feats))
        return pack(feats, d_in)

    monkeypatch.setattr(net, "_pack", counting_pack)
    loss, grads, (mu, var), sims = tr.pair_forward_backward(
        p, lefts, rights, labels, 1e-4, masks
    )
    loss_c, grads_c, (mu_c, var_c), sims_c = tr.pair_forward_backward(
        p, [f.copy() for f in lefts], [f.copy() for f in rights], labels, 1e-4, masks
    )
    assert packed == [4, 10]  # distinct objects, then one row per slot
    assert abs(loss - loss_c) <= 1e-12
    for got, want in ((mu, mu_c), (var, var_c), (sims, sims_c)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    for name in net.TRAINABLE_TENSORS:
        np.testing.assert_allclose(grads[name], grads_c[name], rtol=0, atol=1e-12)


def test_repeated_matrices_gradient_central_differences():
    p, lefts, rights, labels, masks = _repeated_batch()
    _, grads, _, _ = tr.pair_forward_backward(p, lefts, rights, labels, 1e-4, masks)
    rng = np.random.default_rng(22)
    eps = 1e-5
    for name in ("uf", "wb", "wy"):
        tensor = getattr(p, name)
        for flat in rng.choice(tensor.size, size=6, replace=False):
            idx = np.unravel_index(flat, tensor.shape)
            orig = tensor[idx]
            tensor[idx] = orig + eps
            up = tr.pair_forward_backward(p, lefts, rights, labels, 1e-4, masks)[0]
            tensor[idx] = orig - eps
            down = tr.pair_forward_backward(p, lefts, rights, labels, 1e-4, masks)[0]
            tensor[idx] = orig
            fd = (up - down) / (2.0 * eps)
            g = grads[name][idx]
            assert abs(g - fd) / max(abs(g), abs(fd), 1e-6) < 1e-4, (name, idx, g, fd)


def test_empty_batch_errors(small_params):
    with pytest.raises(DataError):
        tr.pair_forward_backward(small_params, [], [], np.array([]))


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradients_no_move(small_params):
    state = tr.adam_init(small_params)
    before = small_params.copy()
    grads = {n: np.zeros_like(getattr(small_params, n)) for n in net.TRAINABLE_TENSORS}
    tr.adam_step(state, small_params, grads, lr=0.1)
    for name in net.TRAINABLE_TENSORS:
        np.testing.assert_array_equal(getattr(small_params, name), getattr(before, name))


def test_adam_constant_gradient_step_limit(small_params):
    """With a constant gradient, bias-corrected steps approach lr * sign(g)."""
    state = tr.adam_init(small_params)
    g = {
        n: np.full_like(getattr(small_params, n), 2.5)
        for n in net.TRAINABLE_TENSORS
    }
    prev = small_params.copy()
    lr = 1e-2
    for _ in range(200):
        prev = small_params.copy()
        tr.adam_step(state, small_params, g, lr=lr)
    step = getattr(prev, "wf") - getattr(small_params, "wf")
    np.testing.assert_allclose(step, lr, rtol=1e-6)


def test_adam_deterministic(small_params):
    rng = np.random.default_rng(4)
    grads = {
        n: rng.normal(size=getattr(small_params, n).shape)
        for n in net.TRAINABLE_TENSORS
    }
    a, b = small_params.copy(), small_params.copy()
    tr.adam_step(tr.adam_init(a), a, grads, lr=1e-3)
    tr.adam_step(tr.adam_init(b), b, grads, lr=1e-3)
    for name in net.TRAINABLE_TENSORS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_adam_matches_per_tensor_reference(small_params):
    """The flat update is bit-identical to Adam applied one tensor at a time."""
    rng = np.random.default_rng(6)
    ref = small_params.copy()
    m = {n: np.zeros_like(getattr(ref, n)) for n in net.TRAINABLE_TENSORS}
    v = {n: np.zeros_like(getattr(ref, n)) for n in net.TRAINABLE_TENSORS}
    state = tr.adam_init(small_params)
    beta1, beta2, eps = 0.8, 0.99, 1e-7
    for t in range(1, 6):
        lr = 1e-2 * 0.9**t
        grads = {
            n: rng.normal(scale=10.0 ** rng.integers(-4, 2), size=getattr(ref, n).shape)
            for n in net.TRAINABLE_TENSORS
        }
        tr.adam_step(state, small_params, grads, lr, beta1, beta2, eps)
        bc1 = 1.0 - beta1**t
        bc2 = 1.0 - beta2**t
        for name in net.TRAINABLE_TENSORS:
            g = grads[name]
            m[name] = beta1 * m[name] + (1.0 - beta1) * g
            v[name] = beta2 * v[name] + (1.0 - beta2) * g * g
            mhat = m[name] / bc1
            vhat = v[name] / bc2
            getattr(ref, name)[...] -= lr * mhat / (np.sqrt(vhat) + eps)
        assert state.t == t
        for name in net.TRAINABLE_TENSORS:
            np.testing.assert_array_equal(getattr(small_params, name), getattr(ref, name))
        np.testing.assert_array_equal(
            state.m, np.concatenate([m[n].ravel() for n in net.TRAINABLE_TENSORS])
        )
        np.testing.assert_array_equal(
            state.v, np.concatenate([v[n].ravel() for n in net.TRAINABLE_TENSORS])
        )


# ---------------------------------------------------------------------------
# metrics with brute-force oracles


def _auc_oracle(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


def _metrics_oracle(scores, labels, threshold):
    tp = fp = tn = fn = 0
    for s, y in zip(scores, labels):
        pred = 1 if s >= threshold else 0
        if pred and y:
            tp += 1
        elif pred and not y:
            fp += 1
        elif not pred and not y:
            tn += 1
        else:
            fn += 1
    return tp, fp, tn, fn


def test_auc_and_metrics_match_bruteforce_random_trials():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 21))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # quantized scores force ties into the mix
        scores = np.round(rng.random(n) * 4) / 4
        assert tr.roc_auc(scores, labels) == pytest.approx(
            _auc_oracle(scores, labels), abs=1e-12
        )
        rep = tr.metrics_from_scores(scores, labels, 0.5)
        assert (rep.tp, rep.fp, rep.tn, rep.fn) == _metrics_oracle(scores, labels, 0.5)
        assert rep.accuracy == pytest.approx((rep.tp + rep.tn) / n, abs=1e-12)
        assert rep.n == n


def test_auc_frozen_examples():
    assert tr.roc_auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0
    assert tr.roc_auc([0.4, 0.6], [1, 0]) == 0.0
    assert tr.roc_auc([0.5, 0.5, 0.5], [1, 0, 1]) == 0.5
    with pytest.raises(DataError):
        tr.roc_auc([0.1, 0.2], [1, 1])


def _rankdata_auc(scores, labels):
    from scipy.stats import rankdata

    pos = np.asarray(labels) == 1
    n_pos = int(pos.sum())
    n_neg = len(pos) - n_pos
    ranks = rankdata(np.asarray(scores, dtype=np.float64))
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def test_auc_equals_rankdata_auc_under_heavy_ties():
    rng = np.random.default_rng(9)
    for n in (2, 3, 17, 400, 20000):
        for levels in (1, 2, 3, 16):  # levels 1: every score ties
            scores = rng.integers(0, levels, size=n) / 7.0
            labels = rng.integers(0, 2, size=n)
            labels[:2] = 0, 1
            assert tr.roc_auc(scores, labels) == _rankdata_auc(scores, labels)
    scores = rng.random(5000)
    scores[::3] = scores[1::3][: len(scores[::3])]
    labels = rng.integers(0, 2, size=5000)
    assert tr.roc_auc(scores, labels) == _rankdata_auc(scores, labels)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_auc_rejects_non_finite_scores(bad):
    with pytest.raises(DataError):
        tr.roc_auc([0.2, bad, 0.7, 0.4], [1, 0, 1, 0])


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(6)
    scores = rng.random(15)
    labels = rng.integers(0, 2, size=15)
    labels[0], labels[1] = 0, 1
    base = tr.roc_auc(scores, labels)
    assert tr.roc_auc(np.exp(3 * scores), labels) == pytest.approx(base, abs=1e-12)


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=100, deadline=None)
    @given(
        scores=st.lists(
            st.integers(min_value=0, max_value=8).map(lambda k: k / 8.0),
            min_size=2,
            max_size=20,
        ),
        labels=st.data(),
    )
    def test_auc_property_bruteforce(scores, labels):
        y = [labels.draw(st.integers(0, 1)) for _ in scores]
        if min(y) == max(y):
            y[0] = 1 - y[0]
        assert tr.roc_auc(scores, y) == pytest.approx(
            _auc_oracle(scores, y), abs=1e-12
        )

    @settings(max_examples=100, deadline=None)
    @given(
        scores=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
        threshold=st.floats(0.0, 1.0),
        labels=st.data(),
    )
    def test_metrics_counts_partition_sample(scores, threshold, labels):
        y = [labels.draw(st.integers(0, 1)) for _ in scores]
        if min(y, default=0) == max(y, default=0):
            return  # AUC undefined for one class
        rep = tr.metrics_from_scores(scores, y, threshold)
        assert rep.tp + rep.fp + rep.tn + rep.fn == len(scores)
        assert 0.0 <= rep.accuracy <= 1.0 and 0.0 <= rep.auc <= 1.0
        for cls in (rep.positive, rep.negative):
            for v in (cls.precision, cls.recall, cls.f1):
                assert 0.0 <= v <= 1.0

except ImportError:  # pragma: no cover - hypothesis is an optional test extra

    def test_fuzz_without_hypothesis():
        pytest.skip("hypothesis is not installed, so the fuzz tests did not run")


def test_metrics_per_class_definitions():
    # 2 TP, 1 FP, 3 TN, 1 FN by construction
    scores = [0.9, 0.8, 0.7, 0.2, 0.1, 0.3, 0.4]
    labels = [1, 1, 0, 0, 0, 0, 1]
    rep = tr.metrics_from_scores(scores, labels, 0.5)
    assert (rep.tp, rep.fp, rep.tn, rep.fn) == (2, 1, 3, 1)
    assert rep.positive.precision == pytest.approx(2 / 3)
    assert rep.positive.recall == pytest.approx(2 / 3)
    assert rep.positive.f1 == pytest.approx(2 / 3)
    assert rep.negative.precision == pytest.approx(3 / 4)
    assert rep.negative.recall == pytest.approx(3 / 4)
    d = rep.to_dict()
    assert d["counts"] == {"tp": 2, "fp": 1, "tn": 3, "fn": 1}


# ---------------------------------------------------------------------------
# scoring and the training loop (uses the session-scope tiny corpus)


def test_config_validation():
    with pytest.raises(DataError):
        tr.TrainConfig(lr_decay=0.0)
    with pytest.raises(DataError):
        tr.TrainConfig(batch_size=0)
    with pytest.raises(DataError):
        tr.TrainConfig(dropout_rate=1.0)
    with pytest.raises(DataError):
        tr.TrainConfig(l1_coeff=-1.0)
    for bad in (
        {"epochs": 0}, {"epochs": "5"}, {"epochs": True}, {"batch_size": 2.5},
        {"seed": -3}, {"lr0": float("nan")}, {"lr0": 10**400},
    ):
        with pytest.raises(DataError):
            tr.TrainConfig(**bad)
    assert tr.TrainConfig(epochs=np.int64(2), lr0=1).epochs == 2


def test_evaluate_invariant_to_pair_order(tiny_features):
    keys = sorted(tiny_features)
    pairs = [
        (keys[0], keys[1], 1),
        (keys[2], keys[3], 0),
        (keys[4], keys[5], 1),
        (keys[1], keys[4], 0),
    ]
    params = net.init_params(net.ModelDims(), seed=0)
    a = tr.evaluate(params, pairs, tiny_features)
    b = tr.evaluate(params, pairs[::-1], tiny_features)
    assert a.accuracy == b.accuracy and a.auc == b.auc
    assert (a.tp, a.fp, a.tn, a.fn) == (b.tp, b.fp, b.tn, b.fn)


def test_score_similarities_accepts_pair_objects(tiny_corpus, tiny_features):
    """A PairExample and a plain (left, right, label) tuple score alike."""
    from phonosim import corpus

    pairs = corpus.build_solo_pairs(tiny_corpus, 1, 3)
    pairs = pairs[:3] + pairs[-3:]  # positives come first, negatives last
    triples = [(p.left, p.right, p.label) for p in pairs]
    params = net.init_params(net.ModelDims(), seed=0)
    np.testing.assert_array_equal(
        tr.score_similarities(params, pairs, tiny_features),
        tr.score_similarities(params, triples, tiny_features),
    )
    assert (
        tr.evaluate(params, pairs, tiny_features).to_dict()
        == tr.evaluate(params, triples, tiny_features).to_dict()
    )


def test_full_batch_descent_loss_nonincreasing(tiny_features):
    """Smoke property: small-lr gradient descent does not increase the loss."""
    keys = sorted(tiny_features)
    lefts = [tiny_features[k] for k in keys[0:4]]
    rights = [tiny_features[k] for k in keys[4:8]]
    labels = np.array([1.0, 0.0, 1.0, 0.0])
    params = net.init_params(net.ModelDims(), seed=0)
    losses = []
    for _ in range(5):
        loss, grads, _, _ = tr.pair_forward_backward(params, lefts, rights, labels)
        losses.append(loss)
        for name in net.TRAINABLE_TENSORS:
            getattr(params, name)[...] -= 1e-4 * grads[name]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def _quick_pairs(tiny_corpus):
    from phonosim import corpus

    return corpus.build_solo_pairs(tiny_corpus, 1, 4), corpus.build_solo_pairs(
        tiny_corpus, 5, 6
    )


def test_train_zero_lr_leaves_params(tiny_corpus, tiny_features):
    train_pairs, val_pairs = _quick_pairs(tiny_corpus)
    cfg = tr.TrainConfig(epochs=1, lr0=0.0, seed=0)
    init = net.init_params(net.ModelDims(), seed=3)
    res = tr.train(cfg, train_pairs, val_pairs, tiny_features, init=init)
    for name in net.TRAINABLE_TENSORS:
        np.testing.assert_array_equal(getattr(res.params, name), getattr(init, name))
    # running batch-norm statistics do move
    assert not np.array_equal(res.params.bn_mean, init.bn_mean)


def test_train_same_seed_identical_history(tiny_corpus, tiny_features):
    train_pairs, val_pairs = _quick_pairs(tiny_corpus)
    cfg = tr.TrainConfig(epochs=2, seed=7)
    r1 = tr.train(cfg, train_pairs, val_pairs, tiny_features)
    r2 = tr.train(cfg, train_pairs, val_pairs, tiny_features)
    assert r1.history == r2.history
    for name in net.ALL_TENSORS:
        np.testing.assert_array_equal(
            getattr(r1.params, name), getattr(r2.params, name)
        )


def test_train_history_contract_and_lr_decay(tiny_corpus, tiny_features):
    train_pairs, val_pairs = _quick_pairs(tiny_corpus)
    cfg = tr.TrainConfig(epochs=3, seed=1)
    res = tr.train(cfg, train_pairs, val_pairs, tiny_features)
    assert [h["epoch"] for h in res.history] == [0, 1, 2]
    for e, h in enumerate(res.history):
        assert h["lr"] == pytest.approx(1e-3 * 0.95**e)
        assert "validation" in h and "accuracy" in h["validation"]
    best_acc = max(h["validation"]["accuracy"] for h in res.history)
    final_val = tr.evaluate(res.best_params, val_pairs, tiny_features)
    assert final_val.accuracy == pytest.approx(best_acc)


def test_train_empty_dataset_errors(tiny_features):
    with pytest.raises(DataError, match="empty"):
        tr.train(tr.TrainConfig(epochs=1), [], [], tiny_features)


def test_train_one_label_set_errors(tiny_corpus, tiny_features, monkeypatch):
    """A set with one label fails before the first epoch, naming the set."""
    train_pairs, val_pairs = _quick_pairs(tiny_corpus)
    steps = []
    monkeypatch.setattr(tr, "adam_step", lambda *args: steps.append(args))
    negatives = [p for p in val_pairs if p.label == 0]
    with pytest.raises(DataError, match="validation set has only label-0 pairs"):
        tr.train(tr.TrainConfig(epochs=1), train_pairs, negatives, tiny_features)
    positives = [p for p in train_pairs if p.label == 1]
    with pytest.raises(DataError, match="training set has only label-1 pairs"):
        tr.train(tr.TrainConfig(epochs=1), positives, val_pairs, tiny_features)
    assert steps == []


def test_train_feature_widths_checked_before_worker(tiny_corpus, tiny_features, monkeypatch):
    """Mixed feature widths, or features of another width than the initial
    model, fail before the backward worker starts, naming every width."""
    train_pairs, val_pairs = _quick_pairs(tiny_corpus)
    started = []
    monkeypatch.setattr(tr, "backward_worker", lambda *args: started.append(args))
    mixed = dict(tiny_features)
    mixed[train_pairs[-1].right] = np.zeros((5, 36))
    cfg = tr.TrainConfig(epochs=1)
    with pytest.raises(DataError, match=r"differ in width: \[36, 39\]"):
        tr.train(cfg, train_pairs, val_pairs, mixed)
    init = net.init_params(net.ModelDims(36), seed=0)
    with pytest.raises(DataError, match="have 39 columns, the initial model expects 36"):
        tr.train(cfg, train_pairs, val_pairs, tiny_features, init=init)
    assert started == []


# ---------------------------------------------------------------------------
# the backward-direction worker

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)


def _recording_workers(monkeypatch):
    made = []

    def record(*args):
        context = net.backward_worker(*args)
        made.append(type(context))
        return context

    monkeypatch.setattr(tr, "backward_worker", record)
    return made


def _forked_and_inline(monkeypatch, cfg, train_pairs, val_pairs, store):
    """Train with the worker and in process; require identical results."""
    made = _recording_workers(monkeypatch)
    set_cpus(monkeypatch, 2)
    forked = tr.train(cfg, train_pairs, val_pairs, store)
    set_cpus(monkeypatch, 1)
    inline = tr.train(cfg, train_pairs, val_pairs, store)
    assert made[0] is net.BackwardWorker and made[1] is not net.BackwardWorker
    assert forked.history == inline.history
    for name in net.ALL_TENSORS:
        for a, b in ((forked.params, inline.params), (forked.best_params, inline.best_params)):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert multiprocessing.active_children() == []


@needs_fork
def test_train_worker_bit_identical_to_inline(tiny_corpus, tiny_features, monkeypatch):
    train_pairs, val_pairs = _quick_pairs(tiny_corpus)
    cfg = tr.TrainConfig(epochs=2, batch_size=5, seed=4)
    _forked_and_inline(monkeypatch, cfg, train_pairs, val_pairs, tiny_features)


class _CopyingStore:
    """A store that returns a fresh copy of a key's matrix on every lookup."""

    def __init__(self, feats):
        self.feats = feats

    def __getitem__(self, key):
        return self.feats[key].copy()


@needs_fork
def test_train_worker_sized_for_a_copying_store(monkeypatch):
    """Each lookup of a copying store is a distinct matrix, so a batch of
    6 pairs over 3 keys holds 12; the worker's buffers are sized for them."""
    rng = np.random.default_rng(3)
    store = _CopyingStore({k: rng.normal(size=(9, 39)) for k in "abc"})
    pairs = [(l, r, y) for l, r in ("ab", "bc", "ca") for y in (0, 1)]
    cfg = tr.TrainConfig(epochs=2, batch_size=6, seed=1)
    _forked_and_inline(monkeypatch, cfg, pairs, [], store)


def test_train_in_daemon_process_runs_inline(tiny_corpus, tiny_features, monkeypatch):
    """A daemon process may not start children, so it trains in process."""
    made = _recording_workers(monkeypatch)
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
    train_pairs, val_pairs = _quick_pairs(tiny_corpus)
    tr.train(tr.TrainConfig(epochs=1), train_pairs, val_pairs, tiny_features)
    assert len(made) == 1 and made[0] is not net.BackwardWorker


def test_train_batch_past_pair_count(tiny_corpus, tiny_features, monkeypatch):
    """A batch_size above the pair count trains as one batch of every pair,
    with worker buffers for the set's distinct utterances."""
    train_pairs, val_pairs = _quick_pairs(tiny_corpus)
    rows = []

    def record(dims, max_len, max_rows):
        rows.append(max_rows)
        return net.backward_worker(dims, max_len, max_rows)

    monkeypatch.setattr(tr, "backward_worker", record)
    set_cpus(monkeypatch, 2)
    runs = [
        tr.train(
            tr.TrainConfig(epochs=2, batch_size=b, seed=4), train_pairs, val_pairs, tiny_features
        )
        for b in (len(train_pairs), 10**6)
    ]
    assert runs[0].history == runs[1].history
    keys = {k for p in train_pairs for k in p[:2]}
    assert len(keys) < 2 * len(train_pairs) and rows == [len(keys), len(keys)]


@needs_fork
def test_acquire_outlasts_spinning_and_sees_death():
    """A wait longer than the spin-and-yield phase blocks until the release;
    a dead peer ends the wait."""
    sem = multiprocessing.get_context("fork").Semaphore(0)
    timer = threading.Timer(0.5, sem.release)
    timer.start()
    assert net._acquire(sem, lambda: True)
    timer.join(timeout=5)
    assert not timer.is_alive()
    assert not net._acquire(sem, lambda: False)


def _failing_adam(monkeypatch, at_call, action):
    """Run ``action`` in place of the ``at_call``-th Adam step."""
    calls = []
    step = tr.adam_step

    def adam(*args):
        calls.append(1)
        if len(calls) == at_call:
            action()
        return step(*args)

    monkeypatch.setattr(tr, "adam_step", adam)


@needs_fork
def test_train_error_leaves_no_worker(tiny_corpus, tiny_features, monkeypatch):
    train_pairs, val_pairs = _quick_pairs(tiny_corpus)
    made = _recording_workers(monkeypatch)
    set_cpus(monkeypatch, 2)

    def fail():
        assert len(multiprocessing.active_children()) == 1
        raise DataError("injected")

    _failing_adam(monkeypatch, 3, fail)
    with pytest.raises(DataError, match="injected"):
        tr.train(tr.TrainConfig(epochs=2, batch_size=4), train_pairs, val_pairs, tiny_features)
    assert made == [net.BackwardWorker]
    assert multiprocessing.active_children() == []


@needs_fork
def test_train_dead_worker_raises(tiny_corpus, tiny_features, monkeypatch):
    train_pairs, val_pairs = _quick_pairs(tiny_corpus)
    set_cpus(monkeypatch, 2)

    def kill():
        (child,) = multiprocessing.active_children()
        os.kill(child.pid, signal.SIGKILL)

    def hung(signum, frame):
        raise TimeoutError("train waits on a dead worker")

    _failing_adam(monkeypatch, 3, kill)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    start = time.monotonic()
    try:
        with pytest.raises(PhonosimError, match="worker exited"):
            tr.train(
                tr.TrainConfig(epochs=2, batch_size=4), train_pairs, val_pairs, tiny_features
            )
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 10.0
    assert multiprocessing.active_children() == []
