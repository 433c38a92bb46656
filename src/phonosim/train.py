"""Training machinery: the pair loss, Adam, the loop, and verification metrics.

Gradients of binary cross-entropy over the cosine similarity of two
tied-weight embeddings are computed analytically, back through the kernel
in :mod:`phonosim.net` (dropout masks held fixed).  Everything runs in
64-bit floats so the finite-difference check is meaningful.  With two
usable CPUs, ``train`` runs the backward RNN direction in a forked
``net.BackwardWorker`` for its epoch loop, bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, check_numeric_fields, check_seed
from .net import (
    BN_MOMENTUM,
    ModelDims,
    ModelParams,
    TRAINABLE_TENSORS,
    WEIGHT_TENSORS,
    _check_matrices,
    _embed_backward,
    _embed_forward,
    _tensor_shapes,
    backward_worker,
    cosine_rows,
    init_params,
    run_buffers,
)

PROB_CLIP = 1e-7

# a pair whose similarity reaches THRESHOLD is called a same-speaker pair
THRESHOLD = 0.5

# Adam's moment decay rates and denominator offset (Kingma & Ba, 2015)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# phonosim gradcheck fails at or above this worst relative error
GRADCHECK_TOLERANCE = 1e-4
# most trainable values phonosim gradcheck checks, above the default model's 16,800
GRADCHECK_MAX_VALUES = 20_000

# utterances per inference batch; larger batches raise peak memory for
# little speed
EMBED_ROWS = 16
SCORE_ROWS = 4096  # pairs per scoring block; 400,000 pairs in one took ~500 MB


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 16
    lr0: float = 1e-3
    lr_decay: float = 0.95
    l1_coeff: float = 1e-5
    dropout_rate: float = 0.2
    seed: int = 0

    def __post_init__(self):
        check_numeric_fields(self)
        if self.epochs < 1:
            raise DataError("epochs must be >= 1")
        check_seed(self.seed)
        if self.lr0 < 0:
            raise DataError("lr0 must be >= 0")
        if not 0 < self.lr_decay <= 1:
            raise DataError("lr_decay must lie in (0, 1]")
        if self.batch_size < 1:
            raise DataError("batch_size must be >= 1")
        if not 0 <= self.dropout_rate < 1:
            raise DataError("dropout_rate must lie in [0, 1)")
        if self.l1_coeff < 0:
            raise DataError("l1_coeff must be >= 0")


def bce_loss(similarity: np.ndarray | float, label: np.ndarray | float) -> np.ndarray | float:
    """Binary cross-entropy with the similarity, clipped to
    [``PROB_CLIP``, 1 - ``PROB_CLIP``], used as the probability; elementwise
    over arrays."""
    p = np.clip(similarity, PROB_CLIP, 1.0 - PROB_CLIP)
    return -(label * np.log(p) + (1 - label) * np.log(1.0 - p))


# ---------------------------------------------------------------------------
# the Siamese pair loss


def _dropout_masks(rng, n_utterances: int, params: ModelParams, rate: float):
    """Inverted-dropout masks over the final hidden states; None at rate 0."""
    if rate == 0.0:
        return None
    shape = (n_utterances, 2 * params.dims.d_hidden)
    return (rng.random(shape) >= rate) / (1.0 - rate)


def pair_forward_backward(
    params: ModelParams,
    left_feats: list[np.ndarray],
    right_feats: list[np.ndarray],
    labels: np.ndarray,
    l1_coeff: float = 0.0,
    dropout_masks: np.ndarray | None = None,
    worker=None,
    buffers=None,
):
    """Training-mode loss, gradients, batch-norm batch statistics, and similarities.

    ``right_feats`` and ``labels`` hold one entry per pair and
    ``dropout_masks`` one ``2 * d_hidden`` row per utterance, in interleaved
    (left0, right0, left1, right1, ...) order, else ``DataError``; both Siamese branches
    accumulate into the same gradient tensors.  A matrix object that fills
    several slots runs through the recurrences and BPTT once.  A
    ``net.BackwardWorker`` as ``worker``, forked with these matrices, runs
    the backward direction alongside the forward one, bit-identically.
    The batch packs and runs in ``buffers`` (``net.run_buffers``); None
    makes them for this batch alone.
    """
    n_pairs = len(left_feats)
    if n_pairs == 0:
        raise DataError("empty pair batch")
    labels = np.asarray(labels, dtype=np.float64)
    if len(right_feats) != n_pairs or labels.shape != (n_pairs,):
        raise DataError(f"{n_pairs} left, {len(right_feats)} right feats, labels {labels.shape}")
    mask_shape = (2 * n_pairs, 2 * params.dims.d_hidden)
    if dropout_masks is not None and np.shape(dropout_masks) != mask_shape:
        raise DataError(f"dropout masks of shape {np.shape(dropout_masks)}, expected {mask_shape}")
    feats = [f for pair in zip(left_feats, right_feats) for f in pair]
    e, cache = _embed_forward(
        params, feats, training=True, dropout_masks=dropout_masks, worker=worker,
        buffers=buffers,
    )

    el, er = e[0::2], e[1::2]
    g, nl, nr = cosine_rows(el, er)
    data_loss = bce_loss(g, labels).mean()
    penalty = l1_coeff * sum(
        np.abs(getattr(params, name)).sum() for name in WEIGHT_TENSORS
    )
    loss = float(data_loss + penalty)

    p = np.clip(g, PROB_CLIP, 1.0 - PROB_CLIP)
    dp = (p - labels) / (p * (1.0 - p)) / n_pairs
    dg = np.where((g > PROB_CLIP) & (g < 1.0 - PROB_CLIP), dp, 0.0)
    de_l = dg[:, None] * (er / (nl * nr)[:, None] - (g / nl**2)[:, None] * el)
    de_r = dg[:, None] * (el / (nl * nr)[:, None] - (g / nr**2)[:, None] * er)
    de = np.empty_like(e)
    de[0::2] = de_l
    de[1::2] = de_r

    grads = _embed_backward(params, de, cache)
    if l1_coeff > 0.0:
        for name in WEIGHT_TENSORS:
            grads[name] = grads[name] + l1_coeff * np.sign(getattr(params, name))
    for name in TRAINABLE_TENSORS:
        if not np.isfinite(grads[name]).all():
            raise DataError(f"non-finite gradient in tensor {name!r}")
    return loss, grads, (cache["mu"], cache["var"]), g


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """Step count and the moment estimates, one flat vector each over the
    trainable tensors in ``TRAINABLE_TENSORS`` order."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_init(params: ModelParams) -> AdamState:
    size = sum(getattr(params, name).size for name in TRAINABLE_TENSORS)
    return AdamState(m=np.zeros(size), v=np.zeros(size))


def adam_step(state: AdamState, params: ModelParams, grads: dict, lr: float) -> None:
    """Standard bias-corrected Adam update of ``params`` and ``state``, in
    place, with ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.

    One pass over the concatenated gradient; every element takes the same
    operations in the same order as a per-tensor update, so the result is
    bit-identical to one.
    """
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    g = np.concatenate([grads[name].ravel() for name in TRAINABLE_TENSORS])
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    g2 = (1.0 - ADAM_BETA2) * g
    g2 *= g
    v *= ADAM_BETA2
    v += g2
    denom = v / bc2
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step = m / bc1
    step *= lr
    step /= denom
    start = 0
    for name in TRAINABLE_TENSORS:
        p = getattr(params, name)
        p -= step[start : start + p.size].reshape(p.shape)
        start += p.size


# ---------------------------------------------------------------------------
# metrics


def roc_auc(scores, labels) -> float:
    """AUC as the Mann-Whitney statistic, ties counted half.

    Raises ``DataError`` for a NaN or infinite score.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC needs at least one positive and one negative")
    if not np.isfinite(scores).all():
        raise DataError("AUC needs finite scores")
    # 1-based ranks, ties averaged; every rank is an integer or a half, so
    # exact in float64
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def metrics_from_scores(scores, labels) -> dict:
    """Accuracy, AUC, per-class precision/recall/F1 and the confusion
    counts at ``THRESHOLD``, as the document ``eval.json`` holds."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if len(scores) == 0:
        raise DataError("empty score set")
    pred = scores >= THRESHOLD
    truth = labels == 1
    tp = int(np.sum(pred & truth))
    fp = int(np.sum(pred & ~truth))
    tn = int(np.sum(~pred & ~truth))
    fn = int(np.sum(~pred & truth))

    def cls(tp_, fp_, fn_):
        prec = tp_ / (tp_ + fp_) if tp_ + fp_ else 0.0
        rec = tp_ / (tp_ + fn_) if tp_ + fn_ else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        return {"precision": prec, "recall": rec, "f1": f1}

    return {
        "accuracy": (tp + tn) / len(scores),
        "auc": roc_auc(scores, labels),
        "positive": cls(tp, fp, fn),
        "negative": cls(tn, fn, fp),  # negatives as the target class
        "counts": {"tp": tp, "fp": fp, "tn": tn, "fn": fn},
    }


# ---------------------------------------------------------------------------
# inference scoring and the training loop


def embed_all(params: ModelParams, keys, store) -> dict[str, np.ndarray]:
    """Infer-mode embedding per unique utterance key.

    The keys run in batches of ``EMBED_ROWS``, in (frame count, key) order,
    so a batch holds utterances of similar length and its rows do not
    depend on the order of ``keys``.  Every batch packs and runs in one
    ``run_buffers``, freed on return.
    """
    feats = {key: store[key] for key in keys}
    ordered = sorted(feats, key=lambda k: (len(feats[k]), k))
    buffers = run_buffers(params.dims, feats.values(), EMBED_ROWS)
    out = {}
    for start in range(0, len(ordered), EMBED_ROWS):
        chunk = ordered[start : start + EMBED_ROWS]
        e, _ = _embed_forward(params, [feats[k] for k in chunk], training=False, buffers=buffers)
        out.update(zip(chunk, e))
    return out


def score_similarities(params: ModelParams, pairs, store) -> np.ndarray:
    """Infer-mode cosine similarity for every pair; deterministic.

    A pair's first two items are its left and right keys.  ``cosine_rows``
    scores blocks of ``SCORE_ROWS`` pairs gathered from the stacked embeddings.
    """
    keys = [p[:2] for p in pairs]
    emb = embed_all(params, {k for pair in keys for k in pair}, store)
    index = {k: i for i, k in enumerate(emb)}
    rows = np.array([[index[k] for k in pair] for pair in keys], dtype=np.intp)
    stacked, sims = np.array(list(emb.values())), np.empty(len(keys))
    for start in range(0, len(keys), SCORE_ROWS):
        block = slice(start, start + SCORE_ROWS)
        sims[block] = cosine_rows(*stacked[rows[block].T])[0]
    return sims


def evaluate(params: ModelParams, pairs, store) -> dict:
    """Threshold the infer-mode similarities at ``THRESHOLD`` and compute the
    metric suite."""
    pairs = list(pairs)
    if not pairs:
        raise DataError("empty pair set")
    sims = score_similarities(params, pairs, store)
    labels = np.array([p[2] for p in pairs])
    return metrics_from_scores(sims, labels)


@dataclass
class TrainResult:
    params: ModelParams        # parameters after the last epoch
    best_params: ModelParams   # best validation accuracy
    history: list


def train(
    config: TrainConfig,
    train_pairs,
    val_pairs,
    store,
    init: ModelParams | None = None,
) -> TrainResult:
    """Mini-batch Adam training with per-epoch learning-rate decay.

    The shuffle, dropout masks, and initialization are all keyed to
    ``config.seed``; identical config and seed reproduce the history
    exactly.  The checkpoint with the best validation accuracy is retained
    alongside the final parameters.  Each training and validation
    utterance is read from ``store`` once, by key.  The model's input width
    is ``init``'s, else the first training matrix's; a matrix that is not
    ``(frames >= 1, width)`` raises ``DataError`` before the model is made
    and the backward worker forks.
    """
    train_pairs = list(train_pairs)
    val_pairs = list(val_pairs) if val_pairs else []
    if not train_pairs:
        raise DataError("empty training set")
    labels = np.array([p[2] for p in train_pairs], dtype=np.float64)
    # the epoch metrics need both labels; fail before the first epoch
    for name, ys in (("training", labels), ("validation", [p[2] for p in val_pairs])):
        if len(set(ys)) == 1:
            raise DataError(
                f"{name} set has only label-{int(ys[0])} pairs; "
                "AUC needs at least one positive and one negative"
            )
    # each utterance is read once, by key, and every pair slot that names the
    # key holds that one matrix, so a batch runs it through the RNN once
    feats = {k: store[k] for k in dict.fromkeys(k for p in train_pairs for k in p[:2])}
    lefts = [feats[p[0]] for p in train_pairs]
    rights = [feats[p[1]] for p in train_pairs]
    # validation reads its matrices here, so a missing or misshapen one
    # fails before the first epoch
    val_feats = {k: store[k] for k in dict.fromkeys(k for p in val_pairs for k in p[:2])}
    d_in = init.dims.d_in if init is not None else lefts[0].shape[-1]
    _check_matrices([*feats.values(), *val_feats.values()], d_in)
    max_rows = min(2 * config.batch_size, len(feats))
    params = init.copy() if init is not None else init_params(ModelDims(d_in), config.seed)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xB0B]))
    state = adam_init(params)

    history = []
    best_params = params.copy()
    best_score = -np.inf
    sims = np.empty(len(labels))
    with backward_worker(params.dims, feats.values(), max_rows) as worker:
        # the kernel's buffers for every batch of the run, freed on return
        buffers = run_buffers(params.dims, feats.values(), max_rows)
        for epoch in range(config.epochs):
            lr = config.lr0 * config.lr_decay**epoch
            order = rng.permutation(len(labels))
            total_loss = 0.0
            for bi, start in enumerate(range(0, len(order), config.batch_size)):
                idx = order[start : start + config.batch_size]
                masks = _dropout_masks(rng, 2 * len(idx), params, config.dropout_rate)
                loss, grads, (mu, var), sims[idx] = pair_forward_backward(
                    params, [lefts[i] for i in idx], [rights[i] for i in idx],
                    labels[idx], config.l1_coeff, masks, worker, buffers,
                )
                if not np.isfinite(loss):
                    raise DataError(f"non-finite loss at epoch {epoch}, batch {bi}")
                adam_step(state, params, grads, lr)
                params.bn_mean = BN_MOMENTUM * params.bn_mean + (1.0 - BN_MOMENTUM) * mu
                params.bn_var = BN_MOMENTUM * params.bn_var + (1.0 - BN_MOMENTUM) * var
                total_loss += loss * len(idx)

            # accuracy and the rank-sum AUC do not depend on the pairs' order
            record = {
                "epoch": epoch,
                "lr": lr,
                "train_loss": total_loss / len(labels),
                "train_accuracy": metrics_from_scores(sims, labels)["accuracy"],
            }
            if val_pairs:
                record["validation"] = evaluate(params, val_pairs, val_feats)
                score = record["validation"]["accuracy"]
            else:
                score = record["train_accuracy"]
            if score > best_score:
                best_score = score
                best_params = params.copy()
            history.append(record)
    return TrainResult(params=params, best_params=best_params, history=history)


# ---------------------------------------------------------------------------
# finite-difference gradient check


def gradient_check(
    dims: ModelDims = ModelDims(5, 4, 3),
    seed: int = 0,
    lengths: tuple = (7, 5, 6, 4),
) -> dict[str, float]:
    """Max relative error of each tensor's analytic gradient vs central FD.

    The check point uses a larger weight scale than training init: tiny
    weights put every embedding near 0.5, driving the cosine similarity to
    ~1 where the 1/(1-p) cross-entropy factor amplifies roundoff and
    drowns small finite differences.  The differences step by ``eps``
    (1e-5), under dropout 0.2 and an L1 weight of 1e-4.  Weights within
    ``10 * eps`` of 0 are moved to ``+-10 * eps``, so no difference
    straddles the kink of the L1 term at 0.  Over ``GRADCHECK_MAX_VALUES``
    trainable values, or ``lengths`` not an even number of positive
    lengths, ``DataError`` before any tensor is allocated.
    """
    check_seed(seed)
    if not lengths or len(lengths) % 2 or min(lengths) < 1:
        raise DataError(f"lengths {lengths} are not an even number of positive lengths")
    shapes = _tensor_shapes(dims)
    values = sum(math.prod(shapes[name]) for name in TRAINABLE_TENSORS)
    if values > GRADCHECK_MAX_VALUES:
        raise DataError(f"{values} trainable values, more than gradcheck's {GRADCHECK_MAX_VALUES}")
    eps, dropout_rate, l1_coeff = 1e-5, 0.2, 1e-4
    rng = np.random.default_rng(seed)
    params = init_params(dims, seed)
    for name in WEIGHT_TENSORS + ("bf", "bb", "by", "be"):
        getattr(params, name)[...] *= 10.0  # weight std 0.5, biases stay 0
    for name in WEIGHT_TENSORS:
        w = getattr(params, name)
        near = np.abs(w) < 10.0 * eps
        w[near] = np.copysign(10.0 * eps, w[near])
    n_pairs = len(lengths) // 2
    feats = [rng.normal(size=(t, dims.d_in)) for t in lengths]
    lefts, rights = feats[0::2], feats[1::2]
    labels = np.array([(1 if i % 2 == 0 else 0) for i in range(n_pairs)], dtype=float)
    masks = _dropout_masks(rng, 2 * n_pairs, params, dropout_rate)

    def loss_of(p):
        loss, _, _, _ = pair_forward_backward(p, lefts, rights, labels, l1_coeff, masks)
        return loss

    _, grads, _, _ = pair_forward_backward(params, lefts, rights, labels, l1_coeff, masks)
    errors = {}
    for name in TRAINABLE_TENSORS:
        tensor = getattr(params, name)
        worst = 0.0
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = tensor[idx]
            tensor[idx] = orig + eps
            up = loss_of(params)
            tensor[idx] = orig - eps
            down = loss_of(params)
            tensor[idx] = orig
            fd = (up - down) / (2.0 * eps)
            g = grads[name][idx]
            rel = abs(g - fd) / max(abs(g), abs(fd), 1e-6)
            worst = max(worst, rel)
        errors[name] = worst
    return errors
