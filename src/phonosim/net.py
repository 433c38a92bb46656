"""Siamese bi-directional RNN: the one forward/backward kernel, and checkpoints.

``_embed_forward``/``_embed_backward`` take a batch of variable-length
utterances through tied-weight forward/backward tanh recurrences read at
each utterance's true last frame, dropout and batch normalization, a tanh
feedforward layer and a sigmoid embedding layer.  The recurrences run
time-major over the rows sorted longest first, and step ``t`` computes only
the rows that still have a frame there, and a matrix object that fills
several slots of a batch runs through them once.
The public per-utterance functions wrap that kernel with a batch of one.

In training, a ``BackwardWorker`` process can run the backward direction
on buffers shared with the caller while the caller runs the forward one;
it calls the same kernel functions on the same values, bit-identically.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import signal
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, DataError, PhonosimError, usable_cpus

BN_EPS = 1e-5
BN_MOMENTUM = 0.99
INIT_STD = 0.05

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
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _pack(feats: list[np.ndarray], d_in: int, xrev_buffer: np.ndarray | None = None):
    """Time-major zero-padded batch, longest row first.

    Returns ``x`` and its per-row time-reversed twin ``xrev``, both
    ``(lmax, n, d_in)`` float64 so that ``x[t]`` is contiguous (``xrev`` is
    a view of the flat ``xrev_buffer`` when one is given; its padding is
    then left as it was, since the kernel never reads padding); ``order``,
    the caller's index of each sorted row (a stable sort, so ties keep the
    caller's order); and ``active``, the number of rows with a frame at step
    ``t``, which are rows ``:active[t]``, for ``t`` in ``0..lmax``
    (``active[lmax]`` is 0).
    """
    for f in feats:
        if f.ndim != 2 or f.shape[1] != d_in:
            raise DataError(
                f"feature matrix of shape {f.shape}, model expects (frames, {d_in})"
            )
    caller_lengths = np.array([f.shape[0] for f in feats], dtype=np.intp)
    if (caller_lengths < 1).any():
        raise DataError("utterance with zero frames")
    order = np.argsort(-caller_lengths, kind="stable")
    lengths = caller_lengths[order]
    n = len(feats)
    lmax = int(lengths[0])
    x = np.zeros((lmax, n, d_in))
    xrev = np.zeros_like(x) if xrev_buffer is None else xrev_buffer[: x.size].reshape(x.shape)
    for j, i in enumerate(order):
        f = feats[i]
        x[: len(f), j] = f
        xrev[: len(f), j] = f[::-1]
    active = n - np.cumsum(np.bincount(lengths, minlength=lmax + 1))
    return x, xrev, order, active.tolist()


def _run_direction(x, w, u, b, active, hseq):
    """One tanh recurrence over a ``_pack`` batch; returns each row's final state.

    Step ``t`` computes only the live rows ``:active[t]`` into
    ``hseq[t % len(hseq)]``, so a ``(lmax, n, dh)`` buffer keeps every state
    (BPTT needs them) and a ``(2, n, dh)`` one only the running state.  A
    row's final state is copied out at the step it ends, which for rows
    ``active[t + 1]:active[t]`` is ``t``; entries past a row's last frame are
    never written, and no caller reads them.
    """
    n = x.shape[1]
    steps = len(hseq)
    wt = np.ascontiguousarray(w.T)
    ut = np.ascontiguousarray(u.T)
    bias = np.tile(b, (n, 1))  # a same-shape add is cheaper than a broadcast one
    rec = np.empty((n, w.shape[0]))
    final = np.empty_like(rec)
    for t in range(len(x)):
        k = active[t]
        h = hseq[t % steps, :k]
        np.dot(x[t, :k], wt, out=h)
        if t > 0:  # h_{-1} = 0
            h += np.dot(hseq[(t - 1) % steps, :k], ut, out=rec[:k])
        h += bias[:k]
        np.tanh(h, out=h)
        ended = active[t + 1]
        if ended < k:
            final[ended:k] = h[ended:]
    return final


def _direction_backward(x, hseq, active, u, d_final):
    """BPTT of one direction over a ``_pack`` batch.

    ``d_final`` enters each row at its last frame: the rows ending at step
    ``t`` are ``active[t + 1]:active[t]``.  Only live rows are stepped, so
    padded steps add no gradient.
    """
    lmax, n, dh = hseq.shape
    dw = np.zeros((dh, x.shape[2]))
    du = np.zeros((dh, dh))
    db = np.zeros((n, dh))
    gw = np.empty_like(dw)
    gu = np.empty_like(du)
    dh_t = np.zeros((n, dh))
    da = np.empty((n, dh))
    for t in range(lmax - 1, -1, -1):
        k = active[t]
        ended = active[t + 1]
        if k > ended:
            # these rows were not live at t + 1, so their dh_t is still zero
            dh_t[ended:k] = d_final[ended:k]
        h = hseq[t, :k]
        d = da[:k]
        np.multiply(h, h, out=d)
        np.subtract(1.0, d, out=d)
        d *= dh_t[:k]
        dw += np.dot(d.T, x[t, :k], out=gw)
        if t > 0:  # h_{-1} = 0
            du += np.dot(d.T, hseq[t - 1, :k], out=gu)
        db[:k] += d
        np.dot(d, u, out=dh_t[:k])
    return dw, du, db.sum(axis=0)


def _embed_forward(params: ModelParams, feats, training: bool, dropout_masks=None, worker=None):
    """Embeddings for a batch of utterances; returns (e, cache).

    The recurrences run once per distinct matrix object in ``feats``: an
    object that fills several slots shares its recurrent states, since
    dropout acts only after them.  Batch-norm uses the batch statistics
    (cache ``mu``, ``var``) when ``training``, else the running ones.
    ``dropout_masks``: one row per slot.  Inference keeps only the running
    recurrent state.  A training batch's backward direction runs in
    ``worker`` (a ``BackwardWorker``) when one is given, which
    ``_embed_backward`` then uses too.  Raises ``DataError`` for a feature
    matrix that is not ``(frames, d_in)``.
    """
    first = {}  # id of each distinct matrix -> its index in `distinct`
    distinct = []
    for f in feats:
        if id(f) not in first:
            first[id(f)] = len(distinct)
            distinct.append(f)
    if worker is None:
        x, xrev, order, active = _pack(distinct, params.dims.d_in)
    else:
        x, xrev, order, active = _pack(distinct, params.dims.d_in, worker.xrev)
        worker.start_forward(params, xrev.shape, active)
    steps = len(x) if training else 2
    hf = np.empty((steps, len(distinct), params.dims.d_hidden))
    final_f = _run_direction(x, params.wf, params.uf, params.bf, active, hf)
    if worker is None:
        hb = np.empty_like(hf)
        final_b = _run_direction(xrev, params.wb, params.ub, params.bb, active, hb)
    else:
        hb = None
        final_b = worker.finish_forward()
    sorted_row = np.empty_like(order)
    sorted_row[order] = np.arange(len(order))
    rows = sorted_row[[first[id(f)] for f in feats]]  # each slot's sorted row
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
        x=x, xrev=xrev, rows=rows, active=active, hf=hf, hb=hb, worker=worker,
        dropout_masks=dropout_masks,
        mu=mu, var=var, istd=istd, xhat=xhat, z=z, y=y, e=e,
    )
    return e, cache


def _embed_backward(params: ModelParams, de, cache):
    """Gradients of all trainable tensors given d(loss)/d(embeddings), training mode."""
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
    # matrix add into its sorted row and it is back-propagated once
    d_final = np.zeros((cache["x"].shape[1], dhcat.shape[1]))
    np.add.at(d_final, cache["rows"], dhcat)

    dh = params.dims.d_hidden
    active, worker = cache["active"], cache["worker"]
    if worker is not None:
        worker.start_backward(d_final[:, dh:])
    dwf, duf, dbf = _direction_backward(
        cache["x"], cache["hf"], active, params.uf, d_final[:, :dh]
    )
    if worker is None:
        dwb, dub, dbb = _direction_backward(
            cache["xrev"], cache["hb"], active, params.ub, d_final[:, dh:]
        )
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


class BackwardWorker:
    """A forked process that runs the backward direction of training batches.

    Per batch, ``_embed_forward`` packs ``xrev`` into the shared buffer,
    calls ``start_forward``, runs the forward direction and then
    ``finish_forward``; ``_embed_backward`` does the same with
    ``start_backward`` and ``finish_backward``.  Batches hold up to
    ``max_rows`` distinct utterances of up to ``max_len`` frames.  The
    worker's recurrent states stay in one buffer for its whole life.
    Leaving the ``with`` block kills the process.
    """

    def __init__(self, context, dims: ModelDims, max_len: int, max_rows: int):
        dh, di = dims.d_hidden, dims.d_in
        # head: phase (0 forward, 1 backward), rows, steps, active[0..steps]
        layout = dict(
            head=(max_len + 4,), xrev=(max_len * max_rows * di,),
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
        self._hb_size = max_len * max_rows * dh
        self._go, self._done = context.Semaphore(0), context.Semaphore(0)
        self._proc = context.Process(target=self._serve, daemon=True)
        self._proc.start()

    def _serve(self):
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles Ctrl-C
        parent = os.getppid()
        hb = np.empty(self._hb_size)
        while _acquire(self._go, lambda: os.getppid() == parent):
            phase, n, lmax = self.head[:3].tolist()
            active = self.head[3 : lmax + 4].tolist()
            xrev = self.xrev[: lmax * n * self.w.shape[1]].reshape(lmax, n, -1)
            hseq = hb[: lmax * n * self.b.size].reshape(lmax, n, -1)
            if phase == 0:
                final = _run_direction(xrev, self.w, self.u, self.b, active, hseq)
                self.final[: final.size] = final.ravel()
            else:
                d_final = self.d_final[: n * self.b.size].reshape(n, -1)
                self.dw[...], self.du[...], self.db[...] = _direction_backward(
                    xrev, hseq, active, self.u, d_final
                )
            self._done.release()

    def _wait(self) -> None:
        if not _acquire(self._done, lambda: self._proc.exitcode is None):
            raise PhonosimError(
                f"backward-direction worker exited with code {self._proc.exitcode}"
            )

    def start_forward(self, params: ModelParams, shape, active) -> None:
        lmax, n, _ = shape
        self._rows = n
        self.head[:3] = 0, n, lmax
        self.head[3 : lmax + 4] = active
        self.w[...], self.u[...], self.b[...] = params.wb, params.ub, params.bb
        self._go.release()

    def finish_forward(self) -> np.ndarray:
        """Each sorted row's final backward state, valid until the next batch."""
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

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.kill()
        self._proc.join()


def backward_worker(dims: ModelDims, max_len: int, max_rows: int):
    """A started ``BackwardWorker``, or a null context (giving None, the
    in-process path) without a second usable CPU or the fork start method,
    or in a daemon process, which may not start children."""
    import multiprocessing  # here, so that importing phonosim stays cheap

    if (
        usable_cpus() < 2
        or "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
    ):
        return contextlib.nullcontext()
    return BackwardWorker(multiprocessing.get_context("fork"), dims, max_len, max_rows)


def _true_frames(frames: np.ndarray, true_length: int) -> np.ndarray:
    frames = np.asarray(frames, dtype=np.float64)
    if not 1 <= true_length <= frames.shape[0]:
        raise DataError(
            f"true_length {true_length} outside [1, {frames.shape[0]}]"
        )
    return frames[:true_length]


def rnn_forward(params: ModelParams, frames: np.ndarray, true_length: int) -> np.ndarray:
    """Hidden sequence h_t = [forward_t, backward_t] for t = 1..true_length.

    Frames beyond ``true_length`` are padding and never read.  Both
    recurrences start from zero state: the forward one before t=1, the
    backward one after t=true_length.
    """
    x, xrev, _, active = _pack([_true_frames(frames, true_length)], params.dims.d_in)
    hf = np.empty((len(x), 1, params.dims.d_hidden))
    hb = np.empty_like(hf)
    _run_direction(x, params.wf, params.uf, params.bf, active, hf)
    _run_direction(xrev, params.wb, params.ub, params.bb, active, hb)
    return np.hstack([hf[:, 0], hb[::-1, 0]])


def embed_utterance(params: ModelParams, frames: np.ndarray, true_length: int) -> np.ndarray:
    """Infer-mode embedding of one utterance; every entry lies in (0, 1).

    A deterministic pure function of (params, input).
    """
    e, _ = _embed_forward(params, [_true_frames(frames, true_length)], training=False)
    return e[0]


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError(f"embedding shapes differ: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise DataError("cosine similarity of a zero-norm vector")
    return float(a @ b / (na * nb))


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
