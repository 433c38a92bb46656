"""Network forward pass, invariants, and checkpoint format.

Frozen values:
  - cosine((1,2,3), (4,5,6)) = 32 / (sqrt(14) * sqrt(77)) = 0.9746318461970762
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from phonosim import net
from phonosim.errors import CheckpointError, DataError

from conftest import carried_frames


@pytest.fixture()
def small_params():
    return net.init_params(net.ModelDims(5, 4, 3), seed=0)


# ---------------------------------------------------------------------------
# parameters


def test_init_params_contract(small_params):
    p = small_params
    assert p.wf.shape == (4, 5) and p.uf.shape == (4, 4)
    assert p.wy.shape == (3, 8) and p.we.shape == (3, 3)
    np.testing.assert_array_equal(p.bf, 0.0)
    np.testing.assert_array_equal(p.be, 0.0)
    np.testing.assert_array_equal(p.bn_scale, 1.0)
    np.testing.assert_array_equal(p.bn_shift, 0.0)
    np.testing.assert_array_equal(p.bn_mean, 0.0)
    np.testing.assert_array_equal(p.bn_var, 1.0)
    again = net.init_params(net.ModelDims(5, 4, 3), seed=0)
    np.testing.assert_array_equal(p.wf, again.wf)
    other = net.init_params(net.ModelDims(5, 4, 3), seed=1)
    assert not np.array_equal(p.wf, other.wf)
    # weights are small: std 0.05
    assert abs(np.std(net.init_params(net.ModelDims(50, 50, 50), 0).wf) - 0.05) < 0.01


def test_model_dims_validation():
    with pytest.raises(DataError):
        net.ModelDims(0, 4, 3)


# ---------------------------------------------------------------------------
# recurrences


def test_rnn_forward_matches_manual_recurrence(small_params):
    """Independent oracle: the published recurrences computed step by step."""
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 5))
    h = net.rnn_forward(small_params, x, 6)
    assert h.shape == (6, 8)

    p = small_params
    hf = np.zeros(4)
    for t in range(6):
        hf = np.tanh(p.wf @ x[t] + p.uf @ hf + p.bf)
        np.testing.assert_allclose(h[t, :4], hf, atol=1e-14)
    hb = np.zeros(4)
    for t in range(5, -1, -1):
        hb = np.tanh(p.wb @ x[t] + p.ub @ hb + p.bb)
        np.testing.assert_allclose(h[t, 4:], hb, atol=1e-14)


def test_rnn_forward_masking_invariance_bit_exact(small_params):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 5))
    padded = np.vstack([x, rng.normal(size=(3, 5)) * 100.0])
    np.testing.assert_array_equal(
        net.rnn_forward(small_params, x, 5),
        net.rnn_forward(small_params, padded, 5),
    )


def test_rnn_forward_rejects_bad_length(small_params):
    x = np.zeros((4, 5))
    with pytest.raises(DataError):
        net.rnn_forward(small_params, x, 0)
    with pytest.raises(DataError):
        net.rnn_forward(small_params, x, 5)


def test_one_utterance_calls_reject_malformed_input(small_params):
    """A 0-d ``frames`` has no frame axis, and a ``true_length`` that is not
    an integer (a float or a bool) cannot slice it; both are ``DataError``s
    through every one-utterance entry point.  NumPy integers are integers."""
    x = np.random.default_rng(3).normal(size=(6, 5))
    calls = (
        lambda f, n: net.rnn_forward(small_params, f, n),
        lambda f, n: net.embed_utterance(small_params, f, n),
        lambda f, n: net.siamese_forward(small_params, (f, n), (x, 6)),
    )
    for call in calls:
        with pytest.raises(DataError, match="no frame axis"):
            call(np.float64(1.0), 1)
        for length in (5.0, True):
            with pytest.raises(DataError, match="true_length must be an integer"):
                call(x, length)
        call(x, np.int64(5))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_one_utterance_calls_reject_non_finite_frames(small_params, bad):
    """A NaN or infinite value among the first ``true_length`` frames is a
    ``DataError`` through every one-utterance entry point; one in the
    padding beyond is never read."""
    x = np.random.default_rng(4).normal(size=(6, 5))
    calls = (
        lambda f, n: net.rnn_forward(small_params, f, n),
        lambda f, n: net.embed_utterance(small_params, f, n),
        lambda f, n: net.siamese_forward(small_params, (f, n), (x, 6)),
    )
    for call in calls:
        y = x.copy()
        y[2, 1] = bad
        with pytest.raises(DataError, match="non-finite"):
            call(y, 6)
        y = x.copy()
        y[5, 0] = bad
        assert np.isfinite(call(y, 5)).all()


@pytest.mark.parametrize("reverse", [False, True])
def test_pack_layout(reverse):
    """On a batch given longest first, step t's live rows are
    x[off[t]:off[t] + active[t]], row j's frame t is x[off[t] + j], and
    last[j] is where row j's last frame sits; one-frame rows and ties
    included."""
    rng = np.random.default_rng(9)
    lengths = [7, 7, 5, 3, 3, 1, 1]
    feats = [rng.normal(size=(t, 4)).astype(np.float32) for t in lengths]
    buf = np.full(200, np.nan)
    x, active, off, last = net._pack(feats, 4, reverse, buf)
    assert active == [sum(t > s for t in lengths) for s in range(8)]
    assert off == [sum(active[:s]) for s in range(8)]
    assert x.shape == (sum(lengths), 4) and x.dtype == np.float64
    assert np.shares_memory(x, buf) and np.isnan(buf[x.size :]).all()
    for j, f in enumerate(feats):
        f = f[::-1] if reverse else f
        for t in range(len(f)):
            assert x[off[t] + j].tobytes() == f[t].astype(np.float64).tobytes()
        assert last[j] == off[len(f) - 1] + j


def test_kernel_rejects_wrong_feature_width(small_params):
    rng = np.random.default_rng(5)
    good = rng.normal(size=(6, 5))
    bads = (
        rng.normal(size=(4, 3)), rng.normal(size=5), rng.normal(size=(2, 4, 5)),
        np.array(1.0), np.zeros((0, 5)),
    )
    for bad in bads:
        with pytest.raises(DataError):
            net._embed_forward(small_params, [good, bad], training=False)
    with pytest.raises(DataError):
        net.embed_utterance(small_params, rng.normal(size=(6, 7)), 6)


# SHA-256 of (dW, dU, db) of both directions of the batch below, taken
# from full BPTT, which carried every row back to its first frame
SHORT_ROWS_BPTT_DIGEST = "04a33de2d7ad29b08b2252b72834fd5ca49811b88998627efc55011dc6550be6"


def test_bptt_with_no_row_to_drop_is_pinned(monkeypatch):
    """On rows of 2 to 24 frames no chained gradient falls to the floor,
    so BPTT carries every frame and its gradients are byte for byte those
    of full BPTT."""
    carried = carried_frames(monkeypatch)
    dims = net.ModelDims()
    p = net.init_params(dims, seed=11)
    rng = np.random.default_rng(12)
    lengths = sorted(rng.integers(1, 25, size=16).tolist(), reverse=True)
    feats = [rng.normal(size=(t, dims.d_in)) for t in lengths]
    d_final = rng.normal(size=(len(feats), dims.d_hidden))
    sha = hashlib.sha256()
    for w, u, b, reverse, buf in zip(
        (p.wf, p.wb), (p.uf, p.ub), (p.bf, p.bb), (False, True),
        net.run_buffers(dims, feats, len(feats)),
    ):
        _, (x, h, active, off, g) = net._direction(feats, w, u, b, reverse, buf)
        for grad in net._direction_backward(x, h, active, off, g, u, d_final):
            sha.update(grad.tobytes())
    assert carried == [(sum(lengths), sum(lengths))] * 2
    assert lengths[0] == 24 and lengths[-1] == 2
    assert sha.hexdigest() == SHORT_ROWS_BPTT_DIGEST


def test_bptt_leaves_the_forward_states_intact():
    """BPTT works in its scratch ``g``: after ``_embed_backward`` both
    directions' states in the cache are those the forward pass left."""
    dims = net.ModelDims()
    p = net.init_params(dims, seed=3)
    rng = np.random.default_rng(4)
    feats = [rng.normal(size=(t, dims.d_in)) for t in (300, 40, 40, 7, 1)]
    e, cache = net._embed_forward(p, feats, training=True)
    states = [run[1].copy() for run in cache["runs"]]
    net._embed_backward(p, rng.normal(size=e.shape), cache)
    for run, h in zip(cache["runs"], states, strict=True):
        np.testing.assert_array_equal(run[1], h)


# ---------------------------------------------------------------------------
# embedding and similarity


def test_embed_utterance_range_and_determinism(small_params):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(9, 5))
    e1 = net.embed_utterance(small_params, x, 9)
    e2 = net.embed_utterance(small_params, x, 9)
    assert e1.shape == (3,)
    assert ((e1 > 0.0) & (e1 < 1.0)).all()
    np.testing.assert_array_equal(e1, e2)


def _sigmoid_by_masks(z):
    """The reference sigmoid: exp of the non-positive argument, through
    boolean masks."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_bit_identical_to_masked_reference():
    """Each element gets the same exp argument, sum and quotient as the
    masked formula, so the bytes are equal, also at the extremes."""
    rng = np.random.default_rng(0)
    extremes = [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf]
    for z in (rng.normal(scale=10.0, size=500_000), np.array(extremes), rng.normal(size=(32, 50))):
        with np.errstate(over="raise", under="ignore"):
            assert net._sigmoid(z).tobytes() == _sigmoid_by_masks(z).tobytes()


def test_cosine_similarity_frozen_value():
    got = net.cosine_similarity([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert got == pytest.approx(0.9746318461970762, abs=1e-12)


def test_cosine_similarity_identity_and_orthogonal():
    v = np.array([0.3, 0.7, 0.1])
    assert abs(net.cosine_similarity(v, v) - 1.0) < 1e-12
    assert net.cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_cosine_similarity_errors():
    with pytest.raises(DataError):
        net.cosine_similarity([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(DataError):
        net.cosine_similarity([1.0], [1.0, 2.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cosine_similarity_rejects_non_finite(bad):
    with pytest.raises(DataError, match="non-finite"):
        net.cosine_similarity([1.0, bad], [1.0, 2.0])
    with pytest.raises(DataError, match="non-finite"):
        net.cosine_similarity([1.0, 2.0], [bad, 2.0])


def test_siamese_symmetry_bit_exact(small_params):
    rng = np.random.default_rng(6)
    a = (rng.normal(size=(6, 5)), 6)
    b = (rng.normal(size=(9, 5)), 9)
    assert net.siamese_forward(small_params, a, b) == net.siamese_forward(
        small_params, b, a
    )


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_bit_exact(small_params, tmp_path):
    p = small_params
    p.bn_mean[:] = np.arange(8) * 0.1  # non-trivial running stats
    path = str(tmp_path / "m.artm")
    net.save_checkpoint(p, path)
    q = net.load_checkpoint(path)
    assert q.dims == p.dims
    for name in net.ALL_TENSORS:
        np.testing.assert_array_equal(getattr(q, name), getattr(p, name))


def test_checkpoint_header_layout(small_params, tmp_path):
    path = str(tmp_path / "m.artm")
    net.save_checkpoint(small_params, path)
    blob = Path(path).read_bytes()
    assert blob[:4] == b"ARTM"
    version = int.from_bytes(blob[4:8], "little")
    d_in = int.from_bytes(blob[8:12], "little")
    assert version == 1 and d_in == 5
    # first tensor record is wf
    nlen = int.from_bytes(blob[20:24], "little")
    assert blob[24 : 24 + nlen] == b"wf"


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.artm"
    path.write_bytes(b"NOPE" + bytes(32))
    with pytest.raises(CheckpointError, match="magic"):
        net.load_checkpoint(str(path))


def test_checkpoint_truncated(small_params, tmp_path):
    path = str(tmp_path / "t.artm")
    net.save_checkpoint(small_params, path)
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError):
        net.load_checkpoint(path)


def test_checkpoint_wrong_version(small_params, tmp_path):
    path = str(tmp_path / "v.artm")
    net.save_checkpoint(small_params, path)
    blob = bytearray(Path(path).read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        net.load_checkpoint(path)


def test_checkpoint_zero_dimension_names_path(small_params, tmp_path):
    path = str(tmp_path / "d.artm")
    net.save_checkpoint(small_params, path)
    blob = bytearray(Path(path).read_bytes())
    blob[8:12] = (0).to_bytes(4, "little")  # d_in
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="d.artm"):
        net.load_checkpoint(path)


def test_checkpoint_rejects_inconsistent_contents(small_params, tmp_path):
    """An unsupported version, a truncated record or payload, a renamed
    tensor, shapes or ranks that the header dims do not give, NaN/inf,
    negative running variance, and trailing bytes are all rejected at load
    time, each with a message that names the file."""
    good = str(tmp_path / "good.artm")
    net.save_checkpoint(small_params, good)
    blob = Path(good).read_bytes()

    def rejects(data, match):
        path = tmp_path / "bad.artm"
        path.write_bytes(data)
        with pytest.raises(CheckpointError, match=match) as raised:
            net.load_checkpoint(str(path))
        assert str(path) in str(raised.value)

    rejects(blob[:4] + (2).to_bytes(4, "little") + blob[8:], "version")
    rejects(blob[:28], "truncated")
    rejects(blob[:100], "truncated payload")
    # wf (4, 5) renamed wx, at the same length
    rejects(blob[:24] + b"wx" + blob[26:], "name")
    # wf (4, 5) rewritten as a self-consistent (2, 2) record
    wf_end = 20 + 4 + 2 + 4 + 8 + 8 * 20
    wf_2x2 = (
        blob[20:30] + (2).to_bytes(4, "little") * 2 + np.zeros(4).tobytes()
    )
    rejects(blob[:20] + wf_2x2 + blob[wf_end:], "shape")
    # and as a self-consistent (20,) record of rank 1
    wf_flat = blob[20:26] + (1).to_bytes(4, "little") + (20).to_bytes(4, "little")
    rejects(blob[:20] + wf_flat + blob[38:], "shape")

    for name, value, match in (
        ("wf", np.nan, "non-finite"),
        ("be", np.inf, "non-finite"),
        ("bn_var", -1.0, "negative"),
    ):
        p = small_params.copy()
        getattr(p, name)[0] = value
        net.save_checkpoint(p, good)
        rejects(Path(good).read_bytes(), match)

    rejects(blob + b"\x00", "trailing")


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    FUZZ_DIMS = net.ModelDims(3, 2, 2)

    def _checkpoint_layout(dims):
        """Length of a checkpoint of ``dims``, and the offset of each of its
        u32 fields: version, dims, and each tensor record's name length,
        rank and shape."""
        fields, off = [4, 8, 12, 16], 20
        for name, shape in net._tensor_shapes(dims).items():
            fields.append(off)
            off += 4 + len(name)
            fields.extend(range(off, off + 4 * (len(shape) + 1), 4))
            off += 4 * (len(shape) + 1) + 8 * int(np.prod(shape))
        return off, fields

    FUZZ_LEN, FUZZ_FIELDS = _checkpoint_layout(FUZZ_DIMS)

    @pytest.fixture(scope="module")
    def checkpoint_blob(tmp_path_factory):
        path = tmp_path_factory.mktemp("artm") / "valid.artm"
        net.save_checkpoint(net.init_params(FUZZ_DIMS, seed=0), path)
        blob = path.read_bytes()
        assert len(blob) == FUZZ_LEN
        return blob

    @settings(max_examples=300, deadline=None)
    @given(
        cut=st.integers(0, FUZZ_LEN),
        flips=st.lists(
            st.tuples(st.integers(0, FUZZ_LEN - 1), st.integers(1, 255)), max_size=3
        ),
        fields=st.lists(
            st.tuples(st.sampled_from(FUZZ_FIELDS), st.integers(0, 2**32 - 1)),
            max_size=2,
        ),
    )
    def test_load_checkpoint_fuzz(tmp_path_factory, checkpoint_blob, cut, flips, fields):
        """A truncated, bit-flipped or re-headed checkpoint loads or raises
        CheckpointError."""
        blob = bytearray(checkpoint_blob)
        for offset, value in fields:
            blob[offset : offset + 4] = value.to_bytes(4, "little")
        for offset, mask in flips:
            blob[offset] ^= mask
        path = tmp_path_factory.getbasetemp() / "fuzz.artm"
        path.write_bytes(bytes(blob[:cut]))
        try:
            params = net.load_checkpoint(str(path))
        except CheckpointError:
            return
        assert isinstance(params, net.ModelParams)

except ImportError:  # pragma: no cover - hypothesis is an optional test extra

    def test_fuzz_without_hypothesis():
        pytest.skip("hypothesis is not installed, so the fuzz tests did not run")
