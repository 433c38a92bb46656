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

import collections
import contextlib
import dataclasses
import hashlib
import json
import multiprocessing
import os
import signal
import threading
import time
import weakref

import numpy as np
import pytest

from phonosim import corpus, dsp, net
from phonosim import train as tr
from phonosim.errors import DataError, FeatureIOError, PhonosimError

from conftest import (
    assert_no_child_left, carried_frames, deadline, metadata_manifest, set_cpus
)


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


def test_bce_on_an_array_equals_its_scalar_calls():
    sims = np.array([-0.2, 0.0, 1e-9, 0.3, 0.5, 0.9, 1.0 - 1e-8, 1.0])
    ints = np.array([1, 0, 1, 0, 1, 0, 1, 0])
    for labels in (ints, ints.astype(np.float64)):
        want = np.array([tr.bce_loss(float(s), int(y)) for s, y in zip(sims, labels)])
        assert tr.bce_loss(sims, labels).tobytes() == want.tobytes()


def test_pair_loss_is_mean_bce_plus_l1_bit_for_bit(small_params):
    """``pair_forward_backward`` takes its per-pair losses from ``bce_loss``."""
    rng = np.random.default_rng(9)
    lefts = [rng.normal(size=(t, 5)) for t in (6, 3, 8, 5)]
    rights = [rng.normal(size=(t, 5)) for t in (4, 7, 2, 9)]
    labels = np.array([1.0, 0.0, 1.0, 0.0])
    masks = tr._dropout_masks(rng, 8, small_params)
    l1 = 1e-4
    loss, _, _, g = tr.pair_forward_backward(small_params, lefts, rights, labels, l1, masks)
    penalty = l1 * sum(np.abs(getattr(small_params, n)).sum() for n in net.WEIGHT_TENSORS)
    assert loss == float(tr.bce_loss(g, labels).mean() + penalty)


# SHA-256 of the loss, every gradient, the batch-norm batch statistics and
# the similarities of the batches below, taken from the code that wrote the
# cosine out inside pair_forward_backward, with BLAS on one thread
PAIR_STEP_DIGEST = "157c7606025b656942fa3c6fd675a85e5ae01c3b70febed201217e8876066db2"


def test_pair_step_bytes_are_pinned():
    """A training step on seeded batches of 1 to 150-frame rows, one matrix
    in two slots, dropout 0.2 and L1 on, is byte for byte the pinned one."""
    dims = net.ModelDims()
    p = net.init_params(dims, seed=21)
    for name in net.WEIGHT_TENSORS:
        getattr(p, name)[...] *= 6.0  # keep the cosine away from 1
    rng = np.random.default_rng(22)
    sha = hashlib.sha256()
    sims = []
    for n_pairs in (1, 6, 16):
        feats = [rng.normal(size=(t, dims.d_in)) for t in rng.integers(1, 151, 2 * n_pairs)]
        feats[-1] = feats[0]
        labels = (rng.random(n_pairs) < 0.5).astype(np.float64)
        masks = tr._dropout_masks(rng, 2 * n_pairs, p)
        loss, grads, (mu, var), g = tr.pair_forward_backward(
            p, feats[0::2], feats[1::2], labels, 1e-5, masks
        )
        sha.update(np.float64(loss).tobytes())
        for name in net.TRAINABLE_TENSORS:
            sha.update(grads[name].tobytes())
        for a in (mu, var, g):
            sha.update(a.tobytes())
        sims += g.tolist()
    assert tr.PROB_CLIP < min(sims) and max(sims) < 1.0 - tr.PROB_CLIP
    assert sha.hexdigest() == PAIR_STEP_DIGEST


# ---------------------------------------------------------------------------
# gradients


def test_gradient_check_all_tensors_under_tolerance():
    # the second batch mixes short and long rows, so rows end at different
    # steps; the third has one-frame rows and ties, out of length order
    for lengths in ((7, 5, 6, 4), (2, 9, 3, 8), (1, 6, 3, 6, 1, 3)):
        errors = tr.gradient_check(net.ModelDims(5, 4, 3), seed=0, lengths=lengths)
        assert set(errors) == set(net.TRAINABLE_TENSORS)
        worst = max(errors.values())
        assert worst < 1e-4, f"{lengths}: worst relative error {worst:.3e}"


def test_gradient_check_refuses_large_dims_before_allocating(monkeypatch):
    """200,200,200 gives 281,600 trainable values, over GRADCHECK_MAX_VALUES:
    ``DataError`` before ``init_params`` allocates a tensor.  So do lengths
    that do not make whole pairs, such as (7, 5, 6), whose 6 has no partner."""

    def init_params(*args):
        pytest.fail("gradient_check allocated the model")

    monkeypatch.setattr(tr, "init_params", init_params)
    with pytest.raises(DataError, match="281600 trainable values"):
        tr.gradient_check(net.ModelDims(200, 200, 200))
    for lengths in ((7, 5, 6), (7,), (), (7, 0)):
        with pytest.raises(DataError, match="not an even number of positive lengths"):
            tr.gradient_check(lengths=lengths)


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
    """The packed batch path agrees with per-utterance inference."""
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
    """Independent oracle for the packed batch kernel in training mode.

    Each utterance runs its own tanh loops; batch-norm uses the
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


def test_recurrent_gradients_match_per_utterance_bptt_oracle(monkeypatch):
    """Independent oracle for the gradients of wf, uf, bf, wb, ub and bb.

    Every slot's utterance runs its own loops and its own BPTT, so a matrix
    that fills several slots is back-propagated once per slot.  The
    gradient at the final states comes from a head backward that takes
    batch norm through its explicit Jacobian.  Mixed lengths, one-frame
    rows, sort ties and repeated slots, one pair being (b, b), and a row
    of 320 frames, long enough that BPTT stops carrying it part of the way
    back, in both directions.
    """
    dims = net.ModelDims(6, 5, 4)
    dh = dims.d_hidden
    p = net.init_params(dims, seed=5)
    rng = np.random.default_rng(31)
    for name in net.WEIGHT_TENSORS:
        getattr(p, name)[...] *= 6.0  # keep the cosine away from 1
    p.bf[...], p.bb[...] = rng.normal(scale=0.3, size=(2, dh))
    a, b, c, d, e1, f = (rng.normal(size=(t, dims.d_in)) for t in (1, 23, 7, 7, 1, 320))
    lefts, rights = [a, b, c, b, f, d], [d, b, e1, c, b, a]
    labels = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    slots = [m for pair in zip(lefts, rights) for m in pair]
    n = len(slots)
    masks = (rng.random((n, 2 * dh)) >= 0.2) / 0.8
    l1 = 1e-4

    def states(x):
        """hf[t + 1] after frame t from hf[0] = 0; hb[t] at frame t, hb[T] = 0."""
        hf = [np.zeros(dh)]
        for t in range(len(x)):
            hf.append(np.tanh(p.wf @ x[t] + p.uf @ hf[-1] + p.bf))
        hb = [np.zeros(dh)]
        for t in range(len(x) - 1, -1, -1):
            hb.insert(0, np.tanh(p.wb @ x[t] + p.ub @ hb[0] + p.bb))
        return hf, hb

    hs = [states(x) for x in slots]
    drop = np.array([np.concatenate([hf[-1], hb[0]]) for hf, hb in hs]) * masks
    mu, sd = drop.mean(axis=0), np.sqrt(drop.var(axis=0) + net.BN_EPS)
    z = p.bn_scale * (drop - mu) / sd + p.bn_shift
    y = np.tanh(z @ p.wy.T + p.by)
    e = 1.0 / (1.0 + np.exp(-(y @ p.we.T + p.be)))
    de = np.zeros_like(e)
    for i, label in enumerate(labels):
        u, v = e[2 * i], e[2 * i + 1]
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        sim = u @ v / (nu * nv)
        assert tr.PROB_CLIP < sim < 1.0 - tr.PROB_CLIP
        dsim = (sim - label) / (sim * (1.0 - sim)) / len(labels)
        de[2 * i] = dsim * (v / (nu * nv) - sim * u / nu**2)
        de[2 * i + 1] = dsim * (u / (nu * nv) - sim * v / nv**2)
    da = (de * e * (1.0 - e)) @ p.we * (1.0 - y * y)
    dxhat = da @ p.wy * p.bn_scale
    dhcat = np.empty_like(drop)
    for col in range(2 * dh):
        centred = drop[:, col] - mu[col]
        # jac[i, k] = d xhat_i / d drop_k
        jac = (np.eye(n) - 1.0 / n) / sd[col] - np.outer(centred, centred) / (n * sd[col] ** 3)
        dhcat[:, col] = jac.T @ dxhat[:, col] * masks[:, col]

    want = {name: np.zeros_like(getattr(p, name)) for name in ("wf", "uf", "bf", "wb", "ub", "bb")}
    for s, x in enumerate(slots):
        hf, hb = hs[s]
        g = dhcat[s, :dh]
        for t in range(len(x) - 1, -1, -1):
            dpre = g * (1.0 - hf[t + 1] ** 2)
            want["wf"] += np.outer(dpre, x[t])
            want["uf"] += np.outer(dpre, hf[t])
            want["bf"] += dpre
            g = p.uf.T @ dpre
        g = dhcat[s, dh:]
        for t in range(len(x)):
            dpre = g * (1.0 - hb[t] ** 2)
            want["wb"] += np.outer(dpre, x[t])
            want["ub"] += np.outer(dpre, hb[t + 1])
            want["bb"] += dpre
            g = p.ub.T @ dpre
    for name in ("wf", "uf", "wb", "ub"):
        want[name] += l1 * np.sign(getattr(p, name))

    carried = carried_frames(monkeypatch)
    _, grads, _, _ = tr.pair_forward_backward(p, lefts, rights, labels, l1, masks)
    for name, w in want.items():
        err = np.abs(grads[name] - w).max() / np.abs(w).max()
        assert err <= 1e-12, f"{name}: relative error {err:.2e}"
    assert len(carried) == 2 and all(n < total for n, total in carried), carried


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

    def counting_pack(feats, d_in, reverse, buf):
        packed.append(len(feats))
        return pack(feats, d_in, reverse, buf)

    monkeypatch.setattr(net, "_pack", counting_pack)
    loss, grads, (mu, var), sims = tr.pair_forward_backward(
        p, lefts, rights, labels, 1e-4, masks
    )
    loss_c, grads_c, (mu_c, var_c), sims_c = tr.pair_forward_backward(
        p, [f.copy() for f in lefts], [f.copy() for f in rights], labels, 1e-4, masks
    )
    # distinct objects, then one row per slot; each packed in both time orders
    assert packed == [4, 4, 10, 10]
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
    with pytest.raises(DataError, match="empty score set"):
        tr.metrics_from_scores([], [])
    with pytest.raises(DataError, match="empty pair set"):
        tr.evaluate(small_params, [], {})


def test_pair_batch_needs_one_entry_per_pair(small_params):
    """Right matrices, labels and dropout masks match the pairs, or
    ``DataError``: a one-element ``labels`` or a one-row mask is not
    broadcast over every pair.  A 0-d matrix is a ``DataError`` too."""
    rng = np.random.default_rng(31)
    (a, b), (c, d) = _random_pair(rng), _random_pair(rng)
    good = dict(
        left_feats=[a, c], right_feats=[b, d], labels=np.array([1.0, 0.0]),
        dropout_masks=np.ones((4, 2 * small_params.dims.d_hidden)),
    )
    tr.pair_forward_backward(small_params, **good)
    for bad in (
        dict(labels=[1.0]), dict(labels=[1.0, 0.0, 1.0]), dict(labels=[[1.0], [0.0]]),
        dict(right_feats=[b]), dict(dropout_masks=good["dropout_masks"][:1]),
        dict(dropout_masks=good["dropout_masks"][:, 1:]), dict(left_feats=[a, np.array(1.0)]),
    ):
        with pytest.raises(DataError):
            tr.pair_forward_backward(small_params, **(good | bad))


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
    beta1, beta2, eps = tr.ADAM_BETA1, tr.ADAM_BETA2, tr.ADAM_EPS
    for t in range(1, 6):
        lr = 1e-2 * 0.9**t
        grads = {
            n: rng.normal(scale=10.0 ** rng.integers(-4, 2), size=getattr(ref, n).shape)
            for n in net.TRAINABLE_TENSORS
        }
        tr.adam_step(state, small_params, grads, lr)
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
        rep = tr.metrics_from_scores(scores, labels)
        tp, fp, tn, fn = (rep["counts"][k] for k in ("tp", "fp", "tn", "fn"))
        assert (tp, fp, tn, fn) == _metrics_oracle(scores, labels, 0.5)
        assert rep["accuracy"] == pytest.approx((tp + tn) / n, abs=1e-12)
        assert tp + fp + tn + fn == n


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
        labels=st.data(),
    )
    def test_metrics_counts_partition_sample(scores, labels):
        y = [labels.draw(st.integers(0, 1)) for _ in scores]
        if min(y, default=0) == max(y, default=0):
            return  # AUC undefined for one class
        rep = tr.metrics_from_scores(scores, y)
        assert sum(rep["counts"].values()) == len(scores)
        assert 0.0 <= rep["accuracy"] <= 1.0 and 0.0 <= rep["auc"] <= 1.0
        for cls in (rep["positive"], rep["negative"]):
            for v in (cls["precision"], cls["recall"], cls["f1"]):
                assert 0.0 <= v <= 1.0

except ImportError:  # pragma: no cover - hypothesis is an optional test extra

    def test_fuzz_without_hypothesis():
        pytest.skip("hypothesis is not installed, so the fuzz tests did not run")


def test_metrics_per_class_definitions():
    # 2 TP, 1 FP, 3 TN, 1 FN by construction
    scores = [0.9, 0.8, 0.7, 0.2, 0.1, 0.3, 0.4]
    labels = [1, 1, 0, 0, 0, 0, 1]
    rep = tr.metrics_from_scores(scores, labels)
    assert rep["counts"] == {"tp": 2, "fp": 1, "tn": 3, "fn": 1}
    assert rep["positive"]["precision"] == pytest.approx(2 / 3)
    assert rep["positive"]["recall"] == pytest.approx(2 / 3)
    assert rep["positive"]["f1"] == pytest.approx(2 / 3)
    assert rep["negative"]["precision"] == pytest.approx(3 / 4)
    assert rep["negative"]["recall"] == pytest.approx(3 / 4)
    # the eval.json text byte for byte: keys, their order and each number's
    # repr, as recorded from MetricsReport.to_dict before the record class went
    text = json.dumps(rep, indent=1)
    assert list(rep) == ["accuracy", "auc", "positive", "negative", "counts"]
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2827cdf1c8b1c5f339d178361220104538be76f906020f6f1bfb938bfd1edc0d"
    )


# ---------------------------------------------------------------------------
# scoring and the training loop (uses the session-scope tiny corpus)


def test_train_config_holds_only_what_a_run_varies(small_params):
    """The learning-rate decay, L1 weight and dropout rate are constants;
    every training batch gets dropout masks."""
    assert [f.name for f in dataclasses.fields(tr.TrainConfig)] == [
        "epochs", "batch_size", "lr0", "seed"
    ]
    assert (tr.LR_DECAY, tr.L1_COEFF, tr.DROPOUT_RATE) == (0.95, 1e-5, 0.2)
    masks = tr._dropout_masks(np.random.default_rng(0), 6, small_params)
    assert masks.shape == (6, 8) and set(np.unique(masks)) == {0.0, 1 / 0.8}


def test_config_validation():
    with pytest.raises(DataError):
        tr.TrainConfig(batch_size=0)
    for bad in (
        {"epochs": 0}, {"epochs": "5"}, {"epochs": True}, {"batch_size": 2.5},
        {"seed": -3}, {"lr0": float("nan")}, {"lr0": 10**400}, {"lr0": -1.0},
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
    assert a["accuracy"] == b["accuracy"] and a["auc"] == b["auc"]
    assert a["counts"] == b["counts"]


def test_score_similarities_accepts_pair_objects(tiny_corpus, tiny_features):
    """A PairExample and a plain (left, right, label) tuple score alike."""
    pairs = corpus.build_solo_pairs(tiny_corpus, 1, 3)
    pairs = pairs[:3] + pairs[-3:]  # positives come first, negatives last
    triples = [(p.left, p.right, p.label) for p in pairs]
    params = net.init_params(net.ModelDims(), seed=0)
    np.testing.assert_array_equal(
        tr.score_similarities(params, pairs, tiny_features),
        tr.score_similarities(params, triples, tiny_features),
    )
    assert tr.evaluate(params, pairs, tiny_features) == tr.evaluate(
        params, triples, tiny_features
    )


def test_score_similarities_match_cosine_similarity(tiny_corpus, tiny_features, monkeypatch):
    """Stacked, block-wise scoring gives each pair the cosine that
    ``net.cosine_similarity`` gives its two ``embed_all`` vectors, and the
    block size does not change a similarity."""
    pairs = corpus.build_solo_pairs(tiny_corpus, 1, 6)
    params = net.init_params(net.ModelDims(), seed=0)
    for name in net.WEIGHT_TENSORS:
        getattr(params, name)[...] *= 6.0  # keep the cosine away from 1
    emb = tr.embed_all(params, {k for p in pairs for k in (p.left, p.right)}, tiny_features)
    want = [net.cosine_similarity(emb[p.left], emb[p.right]) for p in pairs]
    got = tr.score_similarities(params, pairs, tiny_features)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert len(pairs) > 7 and min(want) < 0.9
    monkeypatch.setattr(tr, "SCORE_ROWS", 7)
    assert tr.score_similarities(params, pairs, tiny_features).tobytes() == got.tobytes()


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
    assert final_val["accuracy"] == pytest.approx(best_acc)


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


def test_train_validation_features_read_before_first_step(
    tiny_corpus, tiny_features, tmp_path, monkeypatch
):
    """A missing validation feature file, or validation features of another
    width than the training ones, fail before any Adam step."""
    train_pairs, val_pairs = _quick_pairs(tiny_corpus)
    steps = []
    monkeypatch.setattr(tr, "adam_step", lambda *args: steps.append(args))
    train_keys = {k for p in train_pairs for k in p[:2]}
    val_key = next(k for p in val_pairs for k in p[:2] if k not in train_keys)
    for key, frames in tiny_features.items():
        if key != val_key:
            dsp.write_features(frames, tmp_path / f"{key}.artf")
    cfg = tr.TrainConfig(epochs=1)
    with pytest.raises(FeatureIOError, match="missing feature file"):
        tr.train(cfg, train_pairs, val_pairs, dsp.FeatureStore(tmp_path))
    assert steps == []
    narrow = dict(tiny_features)
    narrow[val_key] = np.zeros((5, 36))
    with pytest.raises(DataError, match=r"shape \(5, 36\), model expects \(frames, 39\)"):
        tr.train(cfg, train_pairs, val_pairs, narrow)
    assert steps == []


def test_train_feature_widths_checked_before_worker(tiny_corpus, tiny_features, monkeypatch):
    """Mixed feature widths, features of another width than the initial
    model, a 0-d array as the first training matrix, or a 1-D matrix among
    the training or the validation features fail with the kernel's message,
    before any Adam step and before the backward worker starts."""
    train_pairs, val_pairs = _quick_pairs(tiny_corpus)
    started, steps = [], []
    monkeypatch.setattr(tr, "backward_worker", lambda *args: started.append(args))
    monkeypatch.setattr(tr, "adam_step", lambda *args: steps.append(args))
    train_keys = {k for p in train_pairs for k in p[:2]}
    val_key = next(k for p in val_pairs for k in p[:2] if k not in train_keys)
    first, last = train_pairs[0].left, train_pairs[-1].right
    assert first != last
    cfg = tr.TrainConfig(epochs=1)
    flat = r"shape \(39,\), model expects \(frames, 39\)"
    for key, bad, message in (
        (last, np.zeros((5, 36)), r"shape \(5, 36\), model expects \(frames, 39\)"),
        (first, np.zeros(()), r"shape \(\), model expects"),
        (first, np.zeros(39), flat),
        (last, np.zeros(39), flat),
        (val_key, np.zeros(39), flat),
    ):
        with pytest.raises(DataError, match=message):
            tr.train(cfg, train_pairs, val_pairs, {**tiny_features, key: bad})
    init = net.init_params(net.ModelDims(36), seed=0)
    with pytest.raises(DataError, match=r"shape \(\d+, 39\), model expects \(frames, 36\)"):
        tr.train(cfg, train_pairs, val_pairs, tiny_features, init=init)
    assert started == [] and steps == []


# ---------------------------------------------------------------------------
# the backward-direction worker

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def _recording_workers(monkeypatch):
    """The context that each ``train`` call's ``backward_worker`` gave."""
    made = []

    def record(*args):
        context = net.backward_worker(*args)
        made.append(context)
        return context

    monkeypatch.setattr(tr, "backward_worker", record)
    return made


def _forked_and_inline(monkeypatch, cfg, train_pairs, val_pairs, store):
    """Train with the worker and in process; require identical results."""
    made = _recording_workers(monkeypatch)
    set_cpus(monkeypatch, 2)
    with deadline(120):
        forked = tr.train(cfg, train_pairs, val_pairs, store)
    set_cpus(monkeypatch, 1)
    inline = tr.train(cfg, train_pairs, val_pairs, store)
    assert type(made[0]) is net.BackwardWorker and type(made[1]) is not net.BackwardWorker
    assert forked.history == inline.history
    for name in net.ALL_TENSORS:
        for a, b in ((forked.params, inline.params), (forked.best_params, inline.best_params)):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


@needs_fork
def test_train_worker_bit_identical_to_inline(tiny_corpus, tiny_features, monkeypatch):
    """Also on strongly mixed lengths, which the worker packs in the
    caller's row order: 3 to 120 frames, two equal-length copies (sort
    ties) and keys repeated within a batch; and on long ones, 1 to 340
    frames, where BPTT stops carrying rows before their first frame."""
    train_pairs, val_pairs = _quick_pairs(tiny_corpus)
    cfg = tr.TrainConfig(epochs=2, batch_size=5, seed=4)
    _forked_and_inline(monkeypatch, cfg, train_pairs, val_pairs, tiny_features)
    rng = np.random.default_rng(5)
    lengths = dict(a=3, b=120, c=57, d=8, e=90, f=33, g=3, h=71, i=15)
    store = {k: rng.normal(size=(n, 39)) for k, n in lengths.items()}
    store["c2"] = store["c"].copy()
    keys = sorted(store)
    pairs = [(l, r, (i + j) % 2) for i, l in enumerate(keys) for j, r in enumerate(keys) if i < j]
    cfg = tr.TrainConfig(epochs=2, batch_size=7, seed=2)
    _forked_and_inline(monkeypatch, cfg, pairs, [], store)
    lengths = dict(a=340, b=1, c=262, d=45, e=301, f=120, g=340, h=9, i=188)
    store = {k: rng.normal(size=(n, 39)) for k, n in lengths.items()}
    pairs = [(l, r, (i * j) % 2) for i, l in enumerate(store) for j, r in enumerate(store) if i < j]
    carried = carried_frames(monkeypatch)
    _forked_and_inline(monkeypatch, tr.TrainConfig(epochs=2, batch_size=6, seed=3), pairs, [], store)
    assert any(n < total for n, total in carried)


@needs_fork
def test_train_without_dropout_worker_bit_identical_to_inline():
    """A training-mode step without dropout masks gives the same bytes with
    the worker as in process: the loss, every gradient, the batch-norm
    statistics and the similarities.  The batch mixes 1 to 120 frames and
    holds one matrix in two slots."""
    dims = net.ModelDims()
    p = net.init_params(dims, seed=7)
    rng = np.random.default_rng(8)
    feats = [rng.normal(size=(t, dims.d_in)) for t in (3, 120, 57, 8, 90, 1)]
    feats[-1] = feats[0]
    labels = np.array([1.0, 0.0, 1.0])
    results = []
    for forked in (True, False):
        worker = net.BackwardWorker(dims, feats, len(feats)) if forked else None
        with deadline(30), worker or contextlib.nullcontext() as w:
            loss, grads, (mu, var), g = tr.pair_forward_backward(
                p, feats[0::2], feats[1::2], labels, tr.L1_COEFF, dropout_masks=None, worker=w
            )
        results.append([np.float64(loss), *(grads[n] for n in net.TRAINABLE_TENSORS), mu, var, g])
    assert [a.tobytes() for a in results[0]] == [a.tobytes() for a in results[1]]


class _CopyingStore:
    """A store that returns a fresh copy of a key's matrix on every lookup."""

    def __init__(self, feats):
        self.feats = feats

    def __getitem__(self, key):
        return self.feats[key].copy()


@needs_fork
def test_train_worker_sized_for_a_copying_store(monkeypatch):
    """Each lookup of a copying store is a distinct matrix; train looks up
    each key once, so a batch of 6 pairs over 3 keys holds 3, and the
    worker's buffers are sized for them."""
    rng = np.random.default_rng(3)
    store = _CopyingStore({k: rng.normal(size=(9, 39)) for k in "abc"})
    pairs = [(l, r, y) for l, r in ("ab", "bc", "ca") for y in (0, 1)]
    cfg = tr.TrainConfig(epochs=2, batch_size=6, seed=1)
    _forked_and_inline(monkeypatch, cfg, pairs, [], store)


class _CountingStore(_CopyingStore):
    """A copying store that counts the lookups of each key."""

    def __init__(self, feats):
        super().__init__(feats)
        self.lookups = collections.Counter()

    def __getitem__(self, key):
        self.lookups[key] += 1
        return super().__getitem__(key)


def test_train_reads_each_key_once(monkeypatch):
    """On the desk shape (4 speakers, solo 1-8 for training, 9-12 for
    validation), train looks up each of the 48 distinct keys once, not
    once per pair slot (592 lookups)."""
    set_cpus(monkeypatch, 1)
    m = metadata_manifest(n_speakers=4, n_sentences=12)
    train_pairs = corpus.build_solo_pairs(m, 1, 8)
    val_pairs = corpus.build_solo_pairs(m, 9, 12)
    rng = np.random.default_rng(8)
    store = _CountingStore({u.key: rng.normal(size=(4, 3)) for u in m.utterances})
    tr.train(tr.TrainConfig(epochs=1, batch_size=64), train_pairs, val_pairs, store)
    assert 2 * (len(train_pairs) + len(val_pairs)) == 592
    assert store.lookups == collections.Counter({u.key: 1 for u in m.utterances})
    assert sum(store.lookups.values()) == 48


@needs_fork
def test_train_zero_frame_matrix_leaves_no_worker(monkeypatch):
    """train rejects a zero-frame matrix before it calls ``backward_worker``,
    so no worker is made and no child is forked."""
    made = _recording_workers(monkeypatch)
    set_cpus(monkeypatch, 2)
    rng = np.random.default_rng(4)
    store = {"a": rng.normal(size=(9, 39)), "b": np.zeros((0, 39)), "c": rng.normal(size=(5, 39))}
    pairs = [("a", "c", 1), ("a", "b", 0), ("c", "a", 0)]
    with deadline(30), pytest.raises(DataError, match="utterance with zero frames"):
        tr.train(tr.TrainConfig(epochs=1), pairs, [], store)
    assert made == []


@needs_fork
def test_worker_shared_memory_independent_of_frame_count():
    """The memory shared with the worker holds no frames: workers over
    matrices of 10 and of 1,000 frames map the same number of bytes."""
    dims = net.ModelDims()
    mapped = []
    for frames in (10, 1000):
        feats = [np.zeros((frames, dims.d_in)) for _ in range(4)]
        with net.BackwardWorker(dims, feats, max_rows=4) as worker:
            mapped.append(len(worker._map))
    assert mapped[0] == mapped[1]


@needs_fork
def test_worker_rejects_matrix_it_was_not_forked_with(small_params):
    """A copy of a forked matrix is another matrix: the caller gets a
    DataError before the worker is released, so the worker still serves
    the next batch and ends with the ``with`` block."""
    rng = np.random.default_rng(6)
    left, right = _random_pair(rng)
    with deadline(30):
        with net.BackwardWorker(small_params.dims, [left, right], max_rows=2) as worker:
            with pytest.raises(DataError, match="not forked with"):
                tr.pair_forward_backward(
                    small_params, [left], [right.copy()], np.ones(1), worker=worker
                )
            assert worker.poll() is False
            tr.pair_forward_backward(small_params, [left], [right], np.ones(1), worker=worker)


def test_train_in_daemon_process_runs_inline(tiny_corpus, tiny_features, monkeypatch):
    """A daemon process may not start children, so it trains in process."""
    made = _recording_workers(monkeypatch)
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
    train_pairs, val_pairs = _quick_pairs(tiny_corpus)
    tr.train(tr.TrainConfig(epochs=1), train_pairs, val_pairs, tiny_features)
    assert len(made) == 1 and type(made[0]) is not net.BackwardWorker


def test_train_batch_past_pair_count(tiny_corpus, tiny_features, monkeypatch):
    """A batch_size above the pair count trains as one batch of every pair,
    with worker buffers for the set's distinct utterances."""
    train_pairs, val_pairs = _quick_pairs(tiny_corpus)
    rows = []

    def record(dims, feats, max_rows):
        rows.append(max_rows)
        return net.backward_worker(dims, feats, max_rows)

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


def _recording_buffer_bases(monkeypatch):
    """A weak reference to the base array of this process's first
    recurrence, and for each recurrence whether its packed input and its
    states are views of that same base."""
    caller, direction = os.getpid(), net._direction
    base, same = [], []

    def recording(batch, w, u, b, reverse, buf):
        final, run = direction(batch, w, u, b, reverse, buf)
        if os.getpid() == caller:
            x, h = run[:2]
            if not base and h.base is not None:
                base.append(weakref.ref(h.base))
            same.append(bool(base) and x.base is h.base is base[0]())
        return final, run

    monkeypatch.setattr(net, "_direction", recording)
    return base, same


def _mixed_length_store(keys, seed):
    rng = np.random.default_rng(seed)
    return {k: rng.normal(size=(int(rng.integers(1, 30)), 39)) for k in sorted(keys)}


@pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "worker"])
def test_train_batches_share_buffers_freed_on_return(tiny_corpus, monkeypatch, cpus):
    """Every training batch of one ``train`` call packs its input and runs
    its recurrences in the same base buffer, in process and beside the
    worker; once ``train`` returns, that buffer is gone."""
    train_pairs, _ = _quick_pairs(tiny_corpus)
    store = _mixed_length_store({k for pair in train_pairs for k in pair[:2]}, 7)
    set_cpus(monkeypatch, cpus)
    base, same = _recording_buffer_bases(monkeypatch)
    cfg = tr.TrainConfig(epochs=2, batch_size=4, seed=3)
    tr.train(cfg, train_pairs, [], store)  # no validation, so every call is a batch
    batches = cfg.epochs * -(-len(train_pairs) // cfg.batch_size)
    assert same == [True] * batches * (2 if cpus == 1 else 1)
    assert base[0]() is None


def test_embed_all_batches_share_buffers_freed_on_return(monkeypatch):
    """Every inference batch of one ``embed_all`` call packs its input and
    runs both recurrences in the same base buffer; once ``embed_all``
    returns, that buffer is gone."""
    store = _mixed_length_store([f"u{i:02d}" for i in range(3 * tr.EMBED_ROWS + 5)], 8)
    base, same = _recording_buffer_bases(monkeypatch)
    tr.embed_all(net.init_params(net.ModelDims(), seed=0), store, store)
    assert same == [True] * 2 * 4  # 4 batches, the last of 5 rows
    assert base[0]() is None


def _longest_first_packs(monkeypatch):
    """Make ``net._pack`` fail on a batch that is not longest first, in
    this process and in any child forked later; returns the batches this
    process packs."""
    caller, pack, batches = os.getpid(), net._pack, []

    def checked(feats, d_in, reverse, buf):
        lengths = [len(f) for f in feats]
        assert lengths == sorted(lengths, reverse=True), lengths
        if os.getpid() == caller:
            batches.append([id(f) for f in feats])
        return pack(feats, d_in, reverse, buf)

    monkeypatch.setattr(net, "_pack", checked)
    return batches


@needs_fork
def test_kernel_packs_longest_first(tiny_corpus, monkeypatch):
    """A batch's row order is set once, in ``_embed_forward``: its distinct
    matrices, longest first, ties in slot order.  Every batch reaches
    ``_pack`` in that order: in training beside the worker (whose failed
    assert comes back as its error) and inline, in ``embed_all`` and in
    ``rnn_forward``."""
    batches = _longest_first_packs(monkeypatch)
    train_pairs, _ = _quick_pairs(tiny_corpus)
    store = _mixed_length_store({k for pair in train_pairs for k in pair[:2]}, 7)
    cfg = tr.TrainConfig(epochs=1, batch_size=4, seed=3)
    made = _recording_workers(monkeypatch)
    set_cpus(monkeypatch, 2)
    with deadline(120):
        tr.train(cfg, train_pairs, [], store)
    set_cpus(monkeypatch, 1)
    tr.train(cfg, train_pairs, [], store)
    assert type(made[0]) is net.BackwardWorker and type(made[1]) is not net.BackwardWorker
    assert_no_child_left()
    params = net.init_params(net.ModelDims(), seed=0)
    tr.embed_all(params, store, store)
    frames = store[min(store)]
    net.rnn_forward(params, frames, len(frames))
    steps = -(-len(train_pairs) // cfg.batch_size)  # no validation: every call is a batch
    embeds = -(-len(store) // tr.EMBED_ROWS)
    assert len(batches) == 3 * steps + 2 * embeds + 2

    rng = np.random.default_rng(4)
    a, b, c = (rng.normal(size=(t, 5)) for t in (6, 6, 2))
    batches.clear()
    _, cache = net._embed_forward(
        net.init_params(net.ModelDims(5, 4, 3), seed=0), [c, b, a, b], training=False
    )
    assert batches == [[id(b), id(a), id(c)]] * 2
    assert cache["rows"].tolist() == [2, 0, 1, 0]


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
        assert os.waitpid(made[0].pid, os.WNOHANG) == (0, 0)  # still running
        raise DataError("injected")

    _failing_adam(monkeypatch, 3, fail)
    with pytest.raises(DataError, match="injected"):
        tr.train(tr.TrainConfig(epochs=2, batch_size=4), train_pairs, val_pairs, tiny_features)
    assert [type(m) for m in made] == [net.BackwardWorker]


@needs_fork
@pytest.mark.parametrize(
    "message", ["injected in worker", "x" * 200_000], ids=["short", "larger-than-a-pipe"]
)
def test_train_worker_error_reaches_caller(tiny_corpus, tiny_features, monkeypatch, message):
    """An exception raised in the backward worker reaches ``train`` with its
    type and message, also one too large to fit the pipe at once, and leaves
    no child."""
    train_pairs, val_pairs = _quick_pairs(tiny_corpus)
    made = _recording_workers(monkeypatch)
    set_cpus(monkeypatch, 2)
    caller, backward = os.getpid(), net._direction_backward

    def direction_backward(*args):
        if os.getpid() != caller:
            raise DataError(message)
        return backward(*args)

    monkeypatch.setattr(net, "_direction_backward", direction_backward)
    with deadline(30), pytest.raises(DataError) as raised:
        tr.train(tr.TrainConfig(epochs=1, batch_size=4), train_pairs, val_pairs, tiny_features)
    assert str(raised.value) == message
    assert [type(m) for m in made] == [net.BackwardWorker]


def _running(pid) -> bool:
    """Whether process ``pid`` exists and has not ended (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@needs_fork
@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="no /proc")
def test_worker_of_a_killed_train_exits_by_itself(tiny_corpus, tiny_features, monkeypatch):
    """When the process running ``train`` is killed mid-epoch, no ``with``
    block kills its backward worker; the worker sees its parent change in
    ``_acquire`` and exits by itself."""
    train_pairs, val_pairs = _quick_pairs(tiny_corpus)
    made = _recording_workers(monkeypatch)
    set_cpus(monkeypatch, 2)
    read, write = os.pipe()

    def hang():
        os.write(write, str(made[0].pid).encode())
        time.sleep(60)

    _failing_adam(monkeypatch, 3, hang)
    trainer = os.fork()
    if trainer == 0:
        try:
            tr.train(tr.TrainConfig(epochs=2, batch_size=4), train_pairs, val_pairs, tiny_features)
        finally:
            os._exit(1)
    os.close(write)
    worker = trainer_status = None
    try:
        with deadline(30):
            worker = int(os.read(read, 32))
            assert _running(worker)
            os.kill(trainer, signal.SIGKILL)
            trainer_status = os.waitpid(trainer, 0)[1]
            killed = time.monotonic()
            while _running(worker) and time.monotonic() - killed < 10.0:
                time.sleep(0.01)
        assert not _running(worker), "the orphaned worker still runs 10 s after train was killed"
    finally:
        os.close(read)
        if worker is not None and _running(worker):
            os.kill(worker, signal.SIGKILL)
        if trainer_status is None:
            os.kill(trainer, signal.SIGKILL)
            os.waitpid(trainer, 0)
    assert os.waitstatus_to_exitcode(trainer_status) == -signal.SIGKILL


@needs_fork
def test_train_dead_worker_raises(tiny_corpus, tiny_features, monkeypatch):
    train_pairs, val_pairs = _quick_pairs(tiny_corpus)
    made = _recording_workers(monkeypatch)
    set_cpus(monkeypatch, 2)

    def kill():
        os.kill(made[0].pid, signal.SIGKILL)

    _failing_adam(monkeypatch, 3, kill)
    start = time.monotonic()
    with deadline(30), pytest.raises(PhonosimError, match="killed by signal 9"):
        tr.train(tr.TrainConfig(epochs=2, batch_size=4), train_pairs, val_pairs, tiny_features)
    assert time.monotonic() - start < 10.0
