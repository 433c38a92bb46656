"""Siamese bi-directional RNN: the one forward/backward kernel, and checkpoints.

``_embed_forward``/``_embed_backward`` take a batch of variable-length
utterances through tied-weight forward/backward tanh recurrences read at
each utterance's true last frame, dropout and batch normalization, a tanh
feedforward layer and a sigmoid embedding layer.  A batch has one row
order, set once in ``_embed_forward``: its distinct matrix objects, longest
first, each slot reading the row of its matrix, so a matrix that fills
several slots runs through the recurrences once.  The recurrences run over
that batch packed time-major, with only the frames that exist stored, so
step ``t`` computes only the rows that still have a frame there.  The input
projection and, in BPTT, the weight gradients are one product over the
batch's frames, outside the time loop; each step is three NumPy calls
forward and two backward.  BPTT stops carrying a row once its chained
gradient is at most ``BPTT_FLOOR`` = 2**-64 of the largest the batch
injected, 11 bits below what float64 resolves of it; since rows are
longest first, the rows still carried at a step are one slice.  Every
state is kept.  Every batch, training or inference, packs and runs each
direction through ``_direction``, in the packed inputs, states and BPTT
scratch of ``run_buffers``: one allocation for all the batches of a run,
or one for a batch run on its own.  The public per-utterance functions
wrap that kernel with a batch of one.

In training, a ``BackwardWorker`` process, forked with the training
matrices, can pack and run the backward direction while the caller runs
the forward one; it gets the rows' ids in the batch's order and calls the
same kernel functions on the same values, bit-identically.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import numbers
import os
import reprlib
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, DataError, Forked, PhonosimError, can_fork

BN_EPS = 1e-5
BN_MOMENTUM = 0.99
INIT_STD = 0.05

# BPTT drops a row whose chained gradient is at most BPTT_FLOOR times the
# batch's largest injected one, checked every BPTT_CHECK steps
BPTT_FLOOR = 2.0**-64
BPTT_CHECK = 8

CHECKPOINT_MAGIC = b"ARTM"
CHECKPOINT_VERSION = 1

# fixed tensor order: trainable first, then batch-norm running statistics
TRAINABLE_TENSORS = (
    "wf", "uf", "bf",
    "wb", "ub", "bb",
    "wy", "by",
    "we", "be",
    "bn_scale", "bn_shift",
)
RUNNING_TENSORS = ("bn_mean", "bn_var")
ALL_TENSORS = TRAINABLE_TENSORS + RUNNING_TENSORS

# weight matrices the L1 penalty applies to (biases and batch-norm excluded)
WEIGHT_TENSORS = ("wf", "uf", "wb", "ub", "wy", "we")


@dataclass(frozen=True)
class ModelDims:
    d_in: int = 39
    d_hidden: int = 50
    d_rep: int = 50

    def __post_init__(self):
        if min(self.d_in, self.d_hidden, self.d_rep) < 1:
            raise DataError("all model dimensions must be strictly positive")


@dataclass
class ModelParams:
    dims: ModelDims
    wf: np.ndarray  # (d_hidden, d_in)     forward input weights
    uf: np.ndarray  # (d_hidden, d_hidden) forward recurrent weights
    bf: np.ndarray  # (d_hidden,)
    wb: np.ndarray  # backward direction, same shapes
    ub: np.ndarray
    bb: np.ndarray
    wy: np.ndarray  # (d_rep, 2 * d_hidden)
    by: np.ndarray  # (d_rep,)
    we: np.ndarray  # (d_rep, d_rep)
    be: np.ndarray  # (d_rep,)
    bn_scale: np.ndarray  # (2 * d_hidden,)
    bn_shift: np.ndarray  # (2 * d_hidden,)
    bn_mean: np.ndarray   # running statistics, not trainable
    bn_var: np.ndarray

    def copy(self) -> "ModelParams":
        return ModelParams(
            dims=self.dims, **{n: getattr(self, n).copy() for n in ALL_TENSORS}
        )


def _tensor_shapes(dims: ModelDims) -> dict[str, tuple[int, ...]]:
    """Every tensor's shape, in ALL_TENSORS order."""
    dh, di, dr = dims.d_hidden, dims.d_in, dims.d_rep
    return dict(
        wf=(dh, di), uf=(dh, dh), bf=(dh,),
        wb=(dh, di), ub=(dh, dh), bb=(dh,),
        wy=(dr, 2 * dh), by=(dr,),
        we=(dr, dr), be=(dr,),
        **{name: (2 * dh,) for name in ("bn_scale", "bn_shift") + RUNNING_TENSORS},
    )


def init_params(dims: ModelDims, seed: int) -> ModelParams:
    """Small random normal weights (std 0.05), zero biases, identity batch-norm."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in _tensor_shapes(dims).items():
        if name in WEIGHT_TENSORS:
            tensors[name] = rng.normal(0.0, INIT_STD, size=shape)
        else:
            tensors[name] = np.ones(shape) if name in ("bn_scale", "bn_var") else np.zeros(shape)
    return ModelParams(dims=dims, **tensors)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    ez = np.exp(-np.abs(z))  # never overflows
    return np.where(z >= 0, 1.0, ez) / (1.0 + ez)


def _pack(feats: list[np.ndarray], d_in: int, reverse: bool, buf):
    """Packed batch in the layout of PyTorch's ``PackedSequence``: row ``j``
    is ``feats[j]``, and ``feats`` come longest first.

    Returns ``x``, ``(N, d_in)`` float64 over the batch's ``N`` frames, a
    view of the start of the flat ``buf``; ``active``, the number of rows
    with a frame at step ``t``, which are rows ``:active[t]``, and ``off``,
    where step ``t`` starts in ``x``, for ``t`` in ``0..lmax``
    (``active[lmax]`` is 0 and ``off[lmax]`` is ``N``); and ``last``, the
    position in ``x`` of each row's last frame.  Row ``j``'s frame ``t`` is
    ``x[off[t] + j]``, each row time-reversed when ``reverse``.
    """
    for f in feats:
        if f.ndim != 2 or f.shape[1] != d_in:
            raise DataError(
                f"feature matrix of shape {f.shape}, model expects (frames, {d_in})"
            )
    lengths = np.array([f.shape[0] for f in feats], dtype=np.intp)
    if (lengths < 1).any():
        raise DataError("utterance with zero frames")
    n = len(feats)
    lmax = int(lengths[0])
    active = n - np.cumsum(np.bincount(lengths, minlength=lmax + 1))
    off = np.zeros(lmax + 1, dtype=np.intp)
    np.cumsum(active[:lmax], out=off[1:])
    x = _rows(buf, int(off[lmax]), d_in)
    for j, f in enumerate(feats):
        x[off[: len(f)] + j] = f[::-1] if reverse else f
    last = off[lengths - 1] + np.arange(n)
    return x, active.tolist(), off.tolist(), last


def _rows(buf, n: int, width: int) -> np.ndarray:
    """The start of the flat ``buf`` as an ``(n, width)`` array."""
    return buf[: n * width].reshape(n, width)


def run_buffers(dims: ModelDims, feats, max_rows: int):
    """Flat buffers for every batch of one run over ``feats``, in one allocation.

    For each recurrence: the packed input ``x``, the states ``h`` and the
    BPTT gather ``g`` of any batch of up to ``max_rows`` of ``feats``, sized
    by their ``max_rows`` longest.  A batch uses the start of each, so the
    pages it touches stay mapped for the next batch, and a direction that
    runs elsewhere never maps its pages.  Returns a ``(forward, backward)``
    pair of ``(x, h, g)`` triples.
    """
    lengths = sorted((len(f) for f in feats), reverse=True)
    frames = sum(lengths[:max_rows])
    di, dh = dims.d_in, dims.d_hidden
    base = np.empty(2 * frames * (di + 2 * dh))
    return tuple(
        tuple(np.split(part, [frames * di, frames * (di + dh)]))
        for part in np.split(base, 2)
    )


def _run_direction(x, w, u, b, active, off, last, h):
    """One tanh recurrence over a ``_pack`` batch, its states into ``h``
    (``(N, dh)``, the layout of ``x``); returns each row's final state.

    The input projection ``x @ w.T + b`` is one product over every frame;
    step ``t`` then adds ``h_{t-1} @ u.T`` to its live rows and takes the
    ``tanh``, three NumPy calls whatever the row count.
    """
    np.dot(x, w.T, out=h)
    h += b
    ut = np.ascontiguousarray(u.T)
    rec = np.empty((active[0], w.shape[0]))
    prev = h[: active[0]]
    np.tanh(prev, out=prev)  # h_{-1} = 0
    for t in range(1, len(off) - 1):
        k = active[t]
        ht = h[off[t] : off[t] + k]
        ht += np.dot(prev[:k], ut, out=rec[:k])
        np.tanh(ht, out=ht)
        prev = ht
    return h[last]


def _direction(batch, w, u, b, reverse: bool, buf):
    """Pack ``batch``, longest first, into the ``(x, h, g)`` triple ``buf``
    and run one direction; returns each row's final state and the run
    ``(x, h, active, off, g)`` that ``_direction_backward`` takes."""
    x, active, off, last = _pack(batch, w.shape[1], reverse, buf[0])
    h = _rows(buf[1], len(x), w.shape[0])
    return _run_direction(x, w, u, b, active, off, last, h), (x, h, active, off, buf[2])


def _direction_backward(x, h, active, off, g, u, d_final):
    """BPTT of one direction over a ``_pack`` batch; overwrites ``h``.

    ``d_final`` enters each row at its last frame: the rows ending at
    step ``t`` are ``active[t + 1]:active[t]``.  ``h`` becomes ``1 - h**2``
    in bulk and then, step by step, the gradient ``d`` at each frame's
    pre-activation: one multiply and one chain product per step.  The
    weight gradients are products over the frames the loop reached, after
    it; for ``du`` the state before each frame of steps ``t >= 1`` is
    gathered into the start of the flat ``g``.

    A row stops being carried once every entry of its chained gradient is
    at most ``floor = BPTT_FLOOR * max|d_final|``.  ``BPTT_FLOOR`` is
    2**-64: float64 keeps 53 bits of the largest gradient the batch
    injected, and the 11 bits more leave room for the frames a dropped row
    would still have added and for a gradient that grows for a few steps
    before it fades.  The floor is measured, not proven: the chained
    gradient shrinks through ``tanh'`` and cancellation, not through a
    bound on ``u``.  A row whose gradient is all zero is dropped, exactly.
    Rows are longest first and each enters at its last frame, so the rows
    carried longest are the first ones: every ``BPTT_CHECK`` steps the
    start row ``lo`` moves past each leading row under the floor, and the
    live rows of a step stay one slice ``lo:active[t]``.  While no row is
    dropped, the gradients are those of full BPTT, byte for byte.
    """
    n_frames = len(h)
    lmax = len(off) - 1
    # frame off[t] + j follows frame off[t - 1] + j, active[t - 1] earlier
    prev = np.arange(off[1], n_frames) - np.repeat(active[: lmax - 1], active[1:lmax])
    g = _rows(g, len(prev), h.shape[1])
    np.take(h, prev, axis=0, out=g, mode="clip")  # "raise" would buffer
    d = h
    np.multiply(d, d, out=d)
    np.subtract(1.0, d, out=d)
    dh_t = np.empty((active[0], h.shape[1]))
    floor = BPTT_FLOOR * np.abs(d_final).max()
    lo, start = 0, [0] * lmax  # start[t]: the first row carried at step t
    for t in range(lmax - 1, -1, -1):
        k = active[t]
        ended = active[t + 1]
        if k > ended:  # rows not live at t + 1 have no chained gradient
            dh_t[ended:k] = d_final[ended:k]
        if t % BPTT_CHECK == 0:
            while lo < k and np.abs(dh_t[lo]).max() <= floor:
                lo += 1
        start[t] = lo
        if lo == k:
            continue
        dt = d[off[t] + lo : off[t] + k]
        dt *= dh_t[lo:k]
        if t > 0:  # h_{-1} = 0
            np.dot(dt, u, out=dh_t[lo:k])
    if lo == 0:
        return d.T @ x, d[off[1] :].T @ g, d.sum(axis=0)
    # the frames carried, step by step: frame off[t] + j for j >= start[t]
    live = np.subtract(active[:lmax], start)
    first = np.add(off[:lmax], start)
    at = np.repeat(first - np.cumsum(live) + live, live) + np.arange(live.sum())
    dl = np.take(d, at, axis=0)  # faster than d[at]
    du = dl[live[0] :].T @ np.take(g, at[live[0] :] - off[1], axis=0)  # steps t >= 1
    return dl.T @ np.take(x, at, axis=0), du, dl.sum(axis=0)


def _embed_forward(
    params: ModelParams, feats, training: bool, dropout_masks=None, worker=None, buffers=None
):
    """Embeddings for a batch of utterances; returns (e, cache).

    The recurrences run once per distinct matrix object in ``feats``: an
    object that fills several slots shares its recurrent states, since
    dropout acts only after them.  The distinct matrices, longest first
    (ties in slot order), are the batch's rows in both directions and in
    the worker; cache ``rows`` holds each slot's row.  Batch-norm uses the
    batch statistics (cache ``mu``, ``var``) when ``training``, else the
    running ones.  ``dropout_masks``: one row per slot.  A training
    batch's backward direction runs in ``worker`` (a ``BackwardWorker``)
    when one is given, which ``_embed_backward`` then uses too.  The batch
    packs and runs in ``buffers``, from ``run_buffers``; None makes them for
    this batch alone.
    Raises ``DataError`` for a feature matrix that is not ``(frames, d_in)``.
    """
    distinct = sorted({id(f): f for f in feats}.values(), key=len, reverse=True)
    row = {id(f): j for j, f in enumerate(distinct)}
    rows = np.array([row[id(f)] for f in feats])
    buf_f, buf_b = buffers or run_buffers(params.dims, distinct, len(distinct))
    if worker is not None:
        worker.start_forward(params, distinct)
    final_f, run_f = _direction(distinct, params.wf, params.uf, params.bf, False, buf_f)
    if worker is None:
        final_b, run_b = _direction(distinct, params.wb, params.ub, params.bb, True, buf_b)
    else:
        final_b, run_b = worker.finish_forward(), None
    hcat = np.concatenate([final_f[rows], final_b[rows]], axis=1)

    dropped = hcat if dropout_masks is None else hcat * dropout_masks
    if training:
        mu, var = dropped.mean(axis=0), dropped.var(axis=0)
    else:
        mu, var = params.bn_mean, params.bn_var
    istd = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (dropped - mu) * istd
    z = params.bn_scale * xhat + params.bn_shift
    y = np.tanh(z @ params.wy.T + params.by)
    e = _sigmoid(y @ params.we.T + params.be)
    cache = dict(
        runs=(run_f, run_b), rows=rows, worker=worker, dropout_masks=dropout_masks,
        mu=mu, var=var, istd=istd, xhat=xhat, z=z, y=y, e=e,
    )
    return e, cache


def _embed_backward(params: ModelParams, de, cache):
    """Gradients of all trainable tensors given d(loss)/d(embeddings), training
    mode.  BPTT overwrites the cache's states, so a cache serves one call."""
    e, y, z, xhat = cache["e"], cache["y"], cache["z"], cache["xhat"]
    s = de * e * (1.0 - e)
    grads = {
        "we": s.T @ y,
        "be": s.sum(axis=0),
    }
    dy = s @ params.we
    dt = dy * (1.0 - y * y)
    grads["wy"] = dt.T @ z
    grads["by"] = dt.sum(axis=0)
    dz = dt @ params.wy

    grads["bn_scale"] = (dz * xhat).sum(axis=0)
    grads["bn_shift"] = dz.sum(axis=0)
    dxhat = dz * params.bn_scale
    ddrop = cache["istd"] * (
        dxhat
        - dxhat.mean(axis=0)
        - xhat * (dxhat * xhat).mean(axis=0)
    )
    dhcat = ddrop if cache["dropout_masks"] is None else ddrop * cache["dropout_masks"]
    # BPTT is linear in the injected gradient, so the slots that share a
    # matrix add into its row and it is back-propagated once
    run_f, run_b = cache["runs"]
    d_final = np.zeros((run_f[2][0], dhcat.shape[1]))  # active[0]: every row
    np.add.at(d_final, cache["rows"], dhcat)

    dh, worker = params.dims.d_hidden, cache["worker"]
    if worker is not None:
        worker.start_backward(d_final[:, dh:])
    dwf, duf, dbf = _direction_backward(*run_f, params.uf, d_final[:, :dh])
    if worker is None:
        dwb, dub, dbb = _direction_backward(*run_b, params.ub, d_final[:, dh:])
    else:
        dwb, dub, dbb = worker.finish_backward()
    grads.update(wf=dwf, uf=duf, bf=dbf, wb=dwb, ub=dub, bb=dbb)
    return grads


# ---------------------------------------------------------------------------
# the backward direction in a forked process

# A waiter spins, then yields the CPU between tries: a blocked waiter that
# the releaser wakes tends to preempt it, about 0.5 ms a wake-up.  Only a
# wait of tens of ms, such as the worker's through validation, blocks.
_SPIN_TRIES = 200
_YIELD_TRIES = 100_000


def _acquire(sem, alive) -> bool:
    """Take ``sem``; False if ``alive()`` turns false first."""
    tries = 0
    while not sem.acquire(block=tries > _YIELD_TRIES, timeout=0.05):
        tries += 1
        if (tries % _SPIN_TRIES == 0 or tries > _YIELD_TRIES) and not alive():
            return False
        if tries > _SPIN_TRIES:
            os.sched_yield()
    return True


class BackwardWorker(Forked):
    """A forked process that runs the backward direction of training batches.

    It keeps its copy-on-write view of the training matrices ``feats``.  Per
    batch, ``_embed_forward`` calls ``start_forward``, which sends the ids
    of the batch's rows in their order, runs the forward direction and calls
    ``finish_forward``, while the worker packs those matrices in the order
    it got them, time-reversed, and runs them;
    ``_embed_backward`` does the same with ``start_backward`` and
    ``finish_backward``.  Batches hold up to ``max_rows`` distinct matrices,
    and their packed inputs and states stay in ``run_buffers`` for the
    worker's life.
    Leaving the ``with`` block kills the process.
    """

    def __init__(self, dims: ModelDims, feats, max_rows: int):
        import multiprocessing  # here, so that importing phonosim stays cheap

        dh, di = dims.d_hidden, dims.d_in
        # head: phase (0 forward, 1 backward), rows, then each row's matrix id
        layout = dict(
            head=(max_rows + 2,),
            w=(dh, di), u=(dh, dh), b=(dh,),
            final=(max_rows * dh,), d_final=(max_rows * dh,),
            dw=(dh, di), du=(dh, dh), db=(dh,),
        )
        # anonymous and shared, so the forked process sees the same pages
        self._map = mmap.mmap(-1, 8 * sum(math.prod(s) for s in layout.values()))
        offset = 0
        for name, shape in layout.items():
            dtype = np.int64 if name == "head" else np.float64
            setattr(self, name, np.ndarray(shape, dtype, buffer=self._map, offset=offset))
            offset += 8 * math.prod(shape)
        self._feats = {id(f): f for f in feats}
        self._dims, self._max_rows = dims, max_rows
        context = multiprocessing.get_context("fork")
        self._go, self._done = context.Semaphore(0), context.Semaphore(0)
        super().__init__(self._serve)

    def _serve(self):
        parent = os.getppid()
        buf = run_buffers(self._dims, self._feats.values(), self._max_rows)[1]
        while _acquire(self._go, lambda: os.getppid() == parent):
            phase, n = self.head[:2].tolist()
            if phase == 0:
                batch = [self._feats[i] for i in self.head[2 : n + 2].tolist()]
                final, run = _direction(batch, self.w, self.u, self.b, True, buf)
                self.final[: final.size] = final.ravel()
            else:
                d_final = self.d_final[: n * self.b.size].reshape(n, -1)
                self.dw[...], self.du[...], self.db[...] = _direction_backward(
                    *run, self.u, d_final
                )
            self._done.release()

    def _wait(self) -> None:
        if not _acquire(self._done, lambda: not self.poll()):
            raise PhonosimError("backward-direction worker ended before its batch")

    def start_forward(self, params: ModelParams, distinct) -> None:
        """``distinct``: the batch's rows, longest first, each a matrix the
        worker has; ``DataError``, with the worker still waiting, if one is not."""
        ids = [id(f) for f in distinct]
        if not all(i in self._feats for i in ids):
            raise DataError("batch holds a matrix the backward worker was not forked with")
        self._rows = n = len(distinct)
        self.head[:2] = 0, n
        self.head[2 : n + 2] = ids
        self.w[...], self.u[...], self.b[...] = params.wb, params.ub, params.bb
        self._go.release()

    def finish_forward(self) -> np.ndarray:
        """Each row's final backward state, valid until the next batch."""
        self._wait()
        return self.final[: self._rows * self.b.size].reshape(self._rows, -1)

    def start_backward(self, d_final: np.ndarray) -> None:
        self.head[0] = 1
        self.d_final[: d_final.size].reshape(d_final.shape)[...] = d_final
        self._go.release()

    def finish_backward(self):
        """``(dwb, dub, dbb)`` of the batch."""
        self._wait()
        return self.dw.copy(), self.du.copy(), self.db.copy()


def backward_worker(dims: ModelDims, feats, max_rows: int):
    """A started ``BackwardWorker`` over ``feats`` where ``can_fork()``,
    else a null context (giving None, the in-process path)."""
    if not can_fork():
        return contextlib.nullcontext()
    return BackwardWorker(dims, feats, max_rows)


def _true_frames(frames: np.ndarray, true_length: int) -> np.ndarray:
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim == 0:
        raise DataError("frames has no frame axis")
    if isinstance(true_length, bool) or not isinstance(true_length, numbers.Integral):
        raise DataError(f"true_length must be an integer, got {reprlib.repr(true_length)}")
    if not 1 <= true_length <= frames.shape[0]:
        raise DataError(
            f"true_length {true_length} outside [1, {frames.shape[0]}]"
        )
    frames = frames[:true_length]  # the padding beyond is never read
    if not np.isfinite(frames).all():
        raise DataError("non-finite value in the frames")
    return frames


def rnn_forward(params: ModelParams, frames: np.ndarray, true_length: int) -> np.ndarray:
    """Hidden sequence h_t = [forward_t, backward_t] for t = 1..true_length.

    Frames beyond ``true_length`` are padding and never read.  Both
    recurrences start from zero state: the forward one before t=1, the
    backward one after t=true_length.
    """
    batch = [_true_frames(frames, true_length)]
    buf_f, buf_b = run_buffers(params.dims, batch, 1)
    hf = _direction(batch, params.wf, params.uf, params.bf, False, buf_f)[1][1]
    hb = _direction(batch, params.wb, params.ub, params.bb, True, buf_b)[1][1]
    # one row, so the states are in time order, the backward ones reversed
    return np.hstack([hf, hb[::-1]])


def embed_utterance(params: ModelParams, frames: np.ndarray, true_length: int) -> np.ndarray:
    """Infer-mode embedding of one utterance; every entry lies in (0, 1).

    A deterministic pure function of (params, input).
    """
    e, _ = _embed_forward(params, [_true_frames(frames, true_length)], training=False)
    return e[0]


def cosine_rows(a: np.ndarray, b: np.ndarray):
    """``(cos, norm_a, norm_b)`` of each row of ``a`` with the same row of
    ``b``, both ``(n, d)``: the package's one norm and one cosine."""
    na, nb = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
    return (a * b).sum(axis=1) / (na * nb), na, nb


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError(f"embedding shapes differ: {a.shape} vs {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DataError("cosine similarity of a non-finite vector")
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero norm raises below
        cos, na, nb = cosine_rows(a.reshape(1, -1), b.reshape(1, -1))
    if na[0] == 0.0 or nb[0] == 0.0:
        raise DataError("cosine similarity of a zero-norm vector")
    return float(cos[0])


def siamese_forward(
    params: ModelParams,
    left: tuple[np.ndarray, int],
    right: tuple[np.ndarray, int],
) -> float:
    """Infer-mode similarity score for an utterance pair through the tied-weight branches."""
    ea = embed_utterance(params, left[0], left[1])
    return cosine_similarity(ea, embed_utterance(params, right[0], right[1]))


# ---------------------------------------------------------------------------
# checkpoint format: magic ARTM, u32 version, 3 x u32 dims, then each tensor
# as (u32 name length, name bytes, u32 rank, u32 dims..., f64 LE payload) in
# the fixed ALL_TENSORS order.


def save_checkpoint(params: ModelParams, path: str) -> None:
    d = params.dims
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IIII", CHECKPOINT_VERSION, d.d_in, d.d_hidden, d.d_rep))
        for name in ALL_TENSORS:
            t = np.ascontiguousarray(getattr(params, name), dtype="<f8")
            nb = name.encode("ascii")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", t.ndim))
            fh.write(struct.pack(f"<{t.ndim}I", *t.shape))
            fh.write(t.tobytes())


def load_checkpoint(path: str) -> ModelParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic bytes in {path}")
    if len(blob) < 20:
        raise CheckpointError(f"truncated header in {path}")
    version, d_in, d_hidden, d_rep = struct.unpack("<IIII", blob[4:20])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    try:
        dims = ModelDims(d_in=d_in, d_hidden=d_hidden, d_rep=d_rep)
    except DataError as exc:
        raise CheckpointError(f"bad model dimensions in {path}: {exc}")
    shapes = _tensor_shapes(dims)
    off = 20
    tensors: dict[str, np.ndarray] = {}
    for expected in ALL_TENSORS:
        try:
            (nlen,) = struct.unpack_from("<I", blob, off)
            off += 4
            name = blob[off : off + nlen]
            off += nlen
            (rank,) = struct.unpack_from("<I", blob, off)
            off += 4
            shape = struct.unpack_from(f"<{rank}I", blob, off)
            off += 4 * rank
        except struct.error:
            raise CheckpointError(f"truncated tensor record in {path}")
        if name != expected.encode("ascii"):
            raise CheckpointError(f"unexpected tensor {name!r}, wanted {expected!r}")
        if shape != shapes[expected]:
            raise CheckpointError(
                f"tensor {expected!r} has shape {shape}, dims give {shapes[expected]}"
            )
        count = math.prod(shape)
        if off + 8 * count > len(blob):
            raise CheckpointError(f"truncated payload for tensor {expected!r} in {path}")
        t = np.frombuffer(blob, dtype="<f8", count=count, offset=off)
        off += 8 * count
        if not np.isfinite(t).all():
            raise CheckpointError(f"non-finite value in tensor {expected!r} in {path}")
        tensors[expected] = t.reshape(shape).astype(np.float64)
    if off != len(blob):
        raise CheckpointError(f"{len(blob) - off} trailing bytes in {path}")
    if (tensors["bn_var"] < 0).any():
        raise CheckpointError(f"negative batch-norm variance in {path}")
    return ModelParams(dims=dims, **tensors)
