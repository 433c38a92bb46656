"""Shared fixtures: a tiny synthetic corpus with in-memory features, the
usable-CPU patch, and the hypothesis strategies that fuzz the JSON input
files."""

import json
import os

import numpy as np
import pytest

from phonosim import corpus, dsp


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """2 speakers, 6 sentences, 1 interactive + 1 imitation session."""
    root = tmp_path_factory.mktemp("tiny_corpus")
    cfg = corpus.SynthConfig(
        n_speakers=2, n_sentences=6, interactive_sessions=1, imitation_sessions=1
    )
    manifest = corpus.generate_synthetic_corpus(cfg, seed=11, out_dir=root)
    return manifest


@pytest.fixture(scope="session")
def tiny_features(tiny_corpus):
    """CMVN-normalized 39-dim features for every tiny-corpus utterance."""
    cfg = dsp.MfccConfig()
    store = {}
    for u in tiny_corpus.utterances:
        wav = dsp.load_audio(tiny_corpus.resolve(u.audio_path))
        feats = dsp.append_deltas(dsp.compute_mfcc(wav, cfg), cfg.delta_window)
        store[u.key] = dsp.cmvn(feats).frames
    return store


def set_cpus(monkeypatch, n):
    """Make the package see ``n`` usable CPUs: with two or more, ``train``
    starts its backward worker and ``synth``/``features`` fork a child."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def metadata_manifest(n_speakers, n_sentences, conditions=("solo",), sessions=(1,)):
    """Audio-free manifest: dyads are consecutive speaker pairs."""
    speakers = [corpus.Speaker(id=f"P{i:03d}") for i in range(n_speakers)]
    dyads = [(speakers[i].id, speakers[i + 1].id) for i in range(0, n_speakers, 2)]
    utterances = []
    for spk in speakers:
        for cond in conditions:
            for sess in sessions if cond != "solo" else (1,):
                for sent in range(1, n_sentences + 1):
                    utterances.append(
                        corpus.Utterance(
                            speaker_id=spk.id,
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
