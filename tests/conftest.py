"""One BLAS thread, and shared fixtures: a tiny synthetic corpus with
in-memory features, the usable-CPU patch, a spy on the frames BPTT carried,
the deadline check for tests that fork, the no-child-left check after every
test, a WAV writer for files built by hand, and the hypothesis strategies
that fuzz the JSON input files."""

import contextlib
import json
import os
import signal
import struct

# BLAS runs one thread, as the CLI sets it: the SHA-256 pins hold the bytes
# of one thread's sums, so these are set, not defaulted, before NumPy loads
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np
import pytest

from phonosim import corpus, dsp, net


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """2 speakers, 6 sentences, 1 interactive + 1 imitation session."""
    root = tmp_path_factory.mktemp("tiny_corpus")
    cfg = corpus.SynthConfig(
        n_speakers=2, n_sentences=6, interactive_sessions=1
    )
    manifest = corpus.generate_synthetic_corpus(cfg, seed=11, out_dir=root)
    return manifest


@pytest.fixture(scope="session")
def tiny_features(tiny_corpus):
    """CMVN-normalized 39-dim features for every tiny-corpus utterance."""
    cfg = dsp.MfccConfig()
    return {
        u.key: dsp.extract_features(tiny_corpus.resolve(u.audio_path), cfg)
        for u in tiny_corpus.utterances
    }


def set_cpus(monkeypatch, n):
    """Make the package see ``n`` usable CPUs: with two or more, ``train``
    starts its backward worker and ``synth``/``features`` fork a child."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def carried_frames(monkeypatch):
    """Spy on ``net._direction_backward`` in this process: per call, the
    frames its loop carried and the frames in the batch.  A frame the loop
    did not reach still holds ``1 - h**2`` in the scratch ``g``."""
    counts = []
    bptt = net._direction_backward

    def spy(x, h, active, off, g, u, d_final):
        grads = bptt(x, h, active, off, g, u, d_final)
        d = g[: h.size].reshape(h.shape)
        counts.append((int((d != 1.0 - h * h).any(axis=1).sum()), len(h)))
        return grads

    monkeypatch.setattr(net, "_direction_backward", spy)
    return counts


@contextlib.contextmanager
def deadline(seconds):
    """Raise ``TimeoutError`` in the test, rather than hang, past ``seconds``."""

    def hung(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    """Every child of this process has ended and been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a forked child running or unreaped."""
    yield
    assert_no_child_left()


# the GUID of KSDATAFORMAT_SUBTYPE_PCM or _IEEE_FLOAT after its first two bytes
KSDATAFORMAT_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def wav_bytes(
    data, tag=1, width=2, channels=1, rate=16000, order="<", container=b"RIFF",
    extensible=None, before_data=b"", data_size=None,
):
    """A WAV file built by hand, so that a test can write what ``wave`` and
    SciPy refuse to: a ``fmt `` chunk (of WAVE_FORMAT_EXTENSIBLE with
    sub-format tag ``extensible``, if given), the chunks ``before_data``,
    then ``data`` under a size field of ``data_size`` (default: its length)."""
    block = channels * width
    fmt = struct.pack(order + "HHIIHH", tag, channels, rate, rate * block, block, 8 * width)
    if extensible is not None:
        fmt += struct.pack(order + "HHIH", 22, 8 * width, 4, extensible) + KSDATAFORMAT_TAIL
    size = struct.Struct(order + "I").pack
    chunks = b"fmt " + size(len(fmt)) + fmt + before_data
    chunks += b"data" + size(len(data) if data_size is None else data_size) + data
    return container + size(4 + len(chunks)) + b"WAVE" + chunks


def metadata_manifest(n_speakers, n_sentences, conditions=("solo",), sessions=(1,)):
    """Audio-free manifest: dyads are consecutive speaker pairs."""
    speakers = [f"P{i:03d}" for i in range(n_speakers)]
    dyads = [(speakers[i], speakers[i + 1]) for i in range(0, n_speakers, 2)]
    utterances = []
    for spk in speakers:
        for cond in conditions:
            for sess in sessions if cond != "solo" else (1,):
                for sent in range(1, n_sentences + 1):
                    utterances.append(
                        corpus.Utterance(
                            speaker_id=spk,
                            condition=cond,
                            session=sess,
                            sentence_index=sent,
                        )
                    )
    return corpus.Manifest(speakers=speakers, dyads=dyads, utterances=utterances)


try:
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is an optional test extra
    pass  # the test modules that import these report their fuzz tests skipped
else:
    any_json = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=8,
    )

    def valid_or_any(valid):
        return st.just(valid) | any_json

    def json_file_bytes(near_valid):
        """File contents a JSON loader must survive: arbitrary bytes, deep
        nesting, and near-valid or arbitrary documents, whole, truncated or
        encoded as UTF-16."""
        text = (near_valid | any_json).map(json.dumps)
        return st.one_of(
            st.binary(max_size=64),
            st.sampled_from([b"[" * 100_000, b'{"a": ' * 100_000, b"\xff\xfe{}"]),
            text.map(str.encode),
            st.tuples(text, st.integers(0, 100)).map(lambda t: t[0][: t[1]].encode()),
            text.map(lambda s: s.encode("utf-16")),
        )
