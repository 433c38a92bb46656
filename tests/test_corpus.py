"""Manifest validation, pair construction, and the synthetic generator.

Pair-count oracles (closed form, per §-free accounting):
  - solo positives  = sum over speakers of C(n_s, 2)
  - solo negatives  = sum over dyads of n_a * n_b (equal sentence allowed)
  - condition positives = per (speaker, session): n - 1 consecutive pairs
  - condition negatives = per dyad and sentence: all cross-member session
    combinations of that sentence
"""

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from phonosim import corpus
from phonosim.errors import DataError, ManifestError

from conftest import deadline, metadata_manifest, set_cpus


# ---------------------------------------------------------------------------
# brute-force pair oracles


def solo_pairs_oracle(m, lo, hi):
    utts = [
        u
        for u in m.utterances
        if u.condition == "solo" and lo <= u.sentence_index <= hi
    ]
    pos = set()
    neg = set()
    dyad_members = {frozenset(d) for d in m.dyads}
    for a, b in itertools.combinations(utts, 2):
        if a.speaker_id == b.speaker_id:
            pos.add(frozenset({a.key, b.key}))
        elif frozenset({a.speaker_id, b.speaker_id}) in dyad_members:
            neg.add(frozenset({a.key, b.key}))
    return pos, neg


def test_solo_pairs_match_bruteforce_oracle():
    m = metadata_manifest(n_speakers=4, n_sentences=7)
    pairs = corpus.build_solo_pairs(m, 2, 6)
    pos = {frozenset({p.left, p.right}) for p in pairs if p.label == 1}
    neg = {frozenset({p.left, p.right}) for p in pairs if p.label == 0}
    o_pos, o_neg = solo_pairs_oracle(m, 2, 6)
    assert pos == o_pos and neg == o_neg
    assert all(p.condition == "solo" for p in pairs)


def test_solo_pair_counts_closed_form():
    m = metadata_manifest(n_speakers=6, n_sentences=10)
    pairs = corpus.build_solo_pairs(m, 1, 10)
    n_pos = sum(1 for p in pairs if p.label == 1)
    n_neg = sum(1 for p in pairs if p.label == 0)
    assert n_pos == 6 * (10 * 9 // 2)  # C(10, 2) per speaker
    assert n_neg == 3 * 10 * 10  # 10 x 10 per dyad, equal sentences included


def test_solo_pairs_empty_range_errors():
    m = metadata_manifest(n_speakers=2, n_sentences=3)
    with pytest.raises(DataError):
        corpus.build_solo_pairs(m, 5, 2)


def test_solo_pairs_range_without_utterances_errors():
    m = metadata_manifest(n_speakers=2, n_sentences=20)
    with pytest.raises(DataError, match="no solo pairs in sentence range 50:60"):
        corpus.build_solo_pairs(m, 50, 60)


def test_condition_pairs_name_every_missing_session():
    """A chosen session without utterances is an error even beside one
    that has them, and the message names each missing session."""
    m = metadata_manifest(
        n_speakers=2, n_sentences=3, conditions=("solo", "interactive"), sessions=(1, 2)
    )
    for sessions, missing in (([1, 5], "[5]"), ([7, 2, 5], "[5, 7]"), ([5], "[5]")):
        with pytest.raises(DataError) as raised:
            corpus.build_condition_pairs(m, "interactive", sessions)
        assert str(raised.value) == (
            f"no utterances for condition 'interactive' in sessions {missing}"
        )


def test_condition_pairs_match_bruteforce_oracle():
    m = metadata_manifest(
        n_speakers=4,
        n_sentences=5,
        conditions=("solo", "interactive"),
        sessions=(1, 2),
    )
    pairs = corpus.build_condition_pairs(m, "interactive", [1, 2])
    pos = {(p.left, p.right) for p in pairs if p.label == 1}
    neg = {frozenset({p.left, p.right}) for p in pairs if p.label == 0}

    utts = [u for u in m.utterances if u.condition == "interactive"]
    o_pos = set()
    for spk in {u.speaker_id for u in utts}:
        for sess in (1, 2):
            seq = sorted(
                (u for u in utts if u.speaker_id == spk and u.session == sess),
                key=lambda u: u.sentence_index,
            )
            for a, b in zip(seq, seq[1:]):
                o_pos.add((a.key, b.key))
    o_neg = set()
    dyad_members = {frozenset(d) for d in m.dyads}
    for a, b in itertools.combinations(utts, 2):
        same_dyad = frozenset({a.speaker_id, b.speaker_id}) in dyad_members
        if same_dyad and a.sentence_index == b.sentence_index:
            o_neg.add(frozenset({a.key, b.key}))
    assert pos == o_pos and neg == o_neg


def test_condition_pairs_require_known_condition_and_data():
    m = metadata_manifest(n_speakers=2, n_sentences=3)
    with pytest.raises(DataError):
        corpus.build_condition_pairs(m, "solo", [1])
    with pytest.raises(DataError):
        corpus.build_condition_pairs(m, "interactive", [1])


def test_cross_condition_pairs_structure():
    """Each pair joins a speaker's solo reading of a sentence in the range
    to their reading of it in the chosen sessions of the condition."""
    m_utts = [
        corpus.Utterance("A", "solo", 1, 1),
        corpus.Utterance("A", "solo", 1, 2),
        corpus.Utterance("B", "solo", 1, 1),
        corpus.Utterance("A", "interactive", 1, 1),
        corpus.Utterance("A", "interactive", 2, 2),
        corpus.Utterance("B", "imitation", 1, 1),
    ]
    m = corpus.Manifest(speakers=["A", "B"], dyads=[("A", "B")], utterances=m_utts)
    got = corpus.cross_condition_pairs(m, "interactive", [1, 2], 1, 80)
    assert len(got) == 2
    by_key = {u.key: u for u in m_utts}
    for p in got:
        assert p.label == 1 and p.condition == "interactive"
        left, right = by_key[p.left], by_key[p.right]
        assert left.condition == "solo" and right.condition == "interactive"
        assert left.speaker_id == right.speaker_id
        assert left.sentence_index == right.sentence_index
    assert corpus.cross_condition_pairs(m, "interactive", [1, 2], 2, 80) == got[1:]
    assert corpus.cross_condition_pairs(m, "interactive", [2], 1, 1) == []
    assert len(corpus.cross_condition_pairs(m, "imitation", [1], 1, 80)) == 1
    with pytest.raises(DataError):
        corpus.cross_condition_pairs(m, "solo", [1], 1, 80)


# ---------------------------------------------------------------------------
# manifest validation and round trip


def _valid_doc():
    return {
        "speakers": [{"id": "A"}, {"id": "B"}],
        "dyads": [["A", "B"]],
        "utterances": [
            {
                "speaker_id": "A",
                "condition": "solo",
                "session": 1,
                "sentence_index": 1,
                "audio_path": "audio/a.wav",
            }
        ],
    }


def test_manifest_json_roundtrip(tmp_path):
    doc = _valid_doc()
    doc["utterances"][0]["feature_path"] = "features/a.artf"  # an ignored legacy key
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    m = corpus.load_manifest(path)
    assert m.speakers == ["A", "B"]
    assert m.utterances[0].key == "A__solo__1__001"
    out = tmp_path / "again.json"
    corpus.save_manifest(m, out)
    m2 = corpus.load_manifest(out)
    assert m2.utterances == m.utterances
    assert m2.dyads == m.dyads


def test_manifest_ignores_legacy_dyad_id(tmp_path):
    """Dyad membership comes from ``dyads`` alone: an utterance's old
    ``dyad_id`` key is ignored, even when it names another dyad, and is not
    written back."""
    doc = _valid_doc()
    doc["utterances"][0]["dyad_id"] = "X+Y"
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    m = corpus.load_manifest(path)
    assert m.dyads == [("A", "B")]
    out = tmp_path / "again.json"
    corpus.save_manifest(m, out)
    saved = json.loads(out.read_text())
    assert "dyad_id" not in saved["utterances"][0]
    del doc["utterances"][0]["dyad_id"]
    assert saved == doc


def test_manifest_resolves_relative_paths(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(_valid_doc()))
    m = corpus.load_manifest(path)
    assert m.resolve("audio/a.wav") == str(tmp_path / "audio" / "a.wav")
    assert m.resolve("/abs/x.wav") == "/abs/x.wav"


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["speakers"].append({"id": "A"}), "duplicate speaker"),
        (lambda d: d["dyads"].append(["A", "B"]), "multiple dyads"),
        (lambda d: d["dyads"].__setitem__(0, ["A", "A"]), "distinct"),
        (lambda d: d["dyads"].__setitem__(0, ["A", "Z"]), "unknown speaker"),
        (lambda d: d["utterances"][0].__setitem__("condition", "karaoke"), "condition"),
        (lambda d: d["utterances"][0].__setitem__("sentence_index", 81), "script range"),
        (lambda d: d["utterances"][0].__setitem__("sentence_index", 0), "script range"),
        (lambda d: d["utterances"].append(dict(d["utterances"][0])), "duplicate utterance"),
        (lambda d: d["utterances"][0].__setitem__("speaker_id", "Z"), "unknown"),
    ],
)
def test_manifest_validation_errors(tmp_path, mutate, message):
    doc = _valid_doc()
    mutate(doc)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match=message):
        corpus.load_manifest(path)


def test_manifest_rejects_speaker_without_dyad(tmp_path):
    doc = _valid_doc()
    doc["speakers"].append({"id": "C"})
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="no dyad"):
        corpus.load_manifest(path)


def test_manifest_rejects_solo_across_sessions(tmp_path):
    doc = _valid_doc()
    second = dict(doc["utterances"][0])
    second["session"] = 2
    doc["utterances"].append(second)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="multiple sessions"):
        corpus.load_manifest(path)


def test_manifest_parse_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ManifestError, match="cannot parse"):
        corpus.load_manifest(path)
    path.write_text(json.dumps({"speakers": []}))
    with pytest.raises(ManifestError, match="malformed"):
        corpus.load_manifest(path)


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from conftest import any_json, json_file_bytes, valid_or_any

    # near-manifests: the right keys, each value valid or any JSON value
    _near_manifest = st.fixed_dictionaries({
        "speakers": st.lists(
            st.fixed_dictionaries({"id": valid_or_any("A")}) | any_json, max_size=3
        ) | any_json,
        "dyads": st.lists(
            st.lists(valid_or_any("A"), max_size=3) | any_json, max_size=2
        ) | any_json,
        "utterances": st.lists(
            st.fixed_dictionaries(
                {
                    "speaker_id": valid_or_any("A"),
                    "condition": valid_or_any("solo"),
                    "session": valid_or_any(1),
                    "sentence_index": valid_or_any(1),
                },
                optional={"audio_path": valid_or_any("a.wav")},
            ),
            max_size=3,
        ) | any_json,
    })

    @pytest.fixture(scope="module")
    def fuzz_dir(tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @settings(max_examples=300, deadline=None)
    @given(raw=json_file_bytes(_near_manifest))
    def test_load_manifest_fuzz(fuzz_dir, raw):
        """Any file loads as a Manifest or raises ManifestError."""
        path = fuzz_dir / "manifest.json"
        path.write_bytes(raw)
        try:
            assert isinstance(corpus.load_manifest(path), corpus.Manifest)
        except ManifestError:
            pass

except ImportError:  # pragma: no cover - hypothesis is an optional test extra

    def test_fuzz_without_hypothesis():
        pytest.skip("hypothesis is not installed, so the fuzz tests did not run")


# ---------------------------------------------------------------------------
# speaker traits and convergence interpolation


def test_speaker_vowels_within_formant_ranges():
    v = corpus.speaker_vowels(seed=5, speaker_idx=2)
    assert v.shape == (3, 3)
    for j, (lo, hi) in enumerate(((300, 900), (1100, 2200), (2500, 3600))):
        assert ((v[:, j] >= lo) & (v[:, j] <= hi)).all()


def test_speaker_traits_deterministic_and_contrasting():
    a = corpus.speaker_traits(seed=5, speaker_idx=0)
    a2 = corpus.speaker_traits(seed=5, speaker_idx=0)
    b = corpus.speaker_traits(seed=5, speaker_idx=1)
    np.testing.assert_array_equal(a.vowels, a2.vowels)
    assert a.mod_rate == a2.mod_rate and a.ramp == a2.ramp
    # dyad members must differ in both dynamic cues
    assert abs(a.mod_rate - b.mod_rate) > 1.0
    assert a.ramp * b.ramp < 0


def test_effective_traits_interpolation_endpoints():
    a = corpus.speaker_traits(seed=5, speaker_idx=0)
    b = corpus.speaker_traits(seed=5, speaker_idx=1)
    at0 = corpus.effective_traits(b, a, lam=0.0)
    at1 = corpus.effective_traits(b, a, lam=1.0)
    mid = corpus.effective_traits(b, a, lam=0.5)
    np.testing.assert_allclose(at0.vowels, b.vowels)
    np.testing.assert_allclose(at1.vowels, a.vowels)
    np.testing.assert_allclose(mid.vowels, (a.vowels + b.vowels) / 2)
    assert at1.mod_rate == pytest.approx(a.mod_rate)
    assert mid.ramp == pytest.approx((a.ramp + b.ramp) / 2)


def test_sentence_content_is_shared_and_balanced():
    order, durations = corpus._sentence_content(seed=3, sentence=4)
    order2, durations2 = corpus._sentence_content(seed=3, sentence=4)
    np.testing.assert_array_equal(order, order2)
    np.testing.assert_array_equal(durations, durations2)
    assert sorted(order[:3]) == [0, 1, 2] and sorted(order[3:]) == [0, 1, 2]
    assert ((durations >= 0.07) & (durations <= 0.09)).all()


# ---------------------------------------------------------------------------
# synthetic corpus generation


def test_generate_rejects_bad_configs(tmp_path):
    with pytest.raises(DataError, match="even"):
        corpus.generate_synthetic_corpus(
            corpus.SynthConfig(n_speakers=3), 0, tmp_path / "odd"
        )
    with pytest.raises(DataError, match="convergence"):
        corpus.generate_synthetic_corpus(
            corpus.SynthConfig(lam=1.5), 0, tmp_path / "lam"
        )


def test_generate_layout_and_manifest(tiny_corpus):
    m = tiny_corpus
    # 2 speakers x 6 sentences x (1 solo + 1 interactive + 1 imitation)
    assert len(m.utterances) == 2 * 6 * 3
    assert len(m.dyads) == 1
    for u in m.utterances:
        path = m.resolve(u.audio_path)
        assert path.endswith(".wav")
        assert __import__("os").path.exists(path)
    reloaded = corpus.load_manifest(
        __import__("os").path.join(m.root, "manifest.json")
    )
    assert reloaded.utterances == m.utterances


def test_generate_same_seed_byte_identical(tmp_path):
    cfg = corpus.SynthConfig(
        n_speakers=2, n_sentences=2, interactive_sessions=1
    )
    m1 = corpus.generate_synthetic_corpus(cfg, 9, tmp_path / "one")
    m2 = corpus.generate_synthetic_corpus(cfg, 9, tmp_path / "two")
    for u1, u2 in zip(m1.utterances, m2.utterances):
        b1 = Path(m1.resolve(u1.audio_path)).read_bytes()
        b2 = Path(m2.resolve(u2.audio_path)).read_bytes()
        assert b1 == b2


def _digests(root) -> dict[str, str]:
    """The SHA-256 of every file under ``root``, by its path relative to it."""
    root = Path(root)
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


# Recorded with the generator that synthesized one utterance at a time,
# before readings of a sentence were batched: batching changes no byte.
GOLDEN_DIGESTS = {
    "manifest.json": "9e37cbb2ecf75b91c00013e58710ae640a7e52ac8ca9156d080144bdc620b1b8",
    "audio/S01__imitation__1__001.wav": "06dc5e40e2194bad89524daeb303e51137df268d5117231bc6ac2d10dd1cdbf3",
    "audio/S01__imitation__1__002.wav": "5ed8b8ce2975f129713bedd228a44bcdaf641a1d52159c605172c975ac66e899",
    "audio/S01__imitation__1__003.wav": "bdedde46c49de21dfbefb9e5eb30c60fdd614b629fc161e4dd3c5d11f777c1c8",
    "audio/S01__interactive__1__001.wav": "b5e323d92b075969882cd24e97714e745673fec3d1886a79a05e2851f280b7d4",
    "audio/S01__interactive__1__002.wav": "a713b09bc381b80459c1993f0e0381cd98b059dcd8f0fb603c69eac3626c9961",
    "audio/S01__interactive__1__003.wav": "857ffaf15110dd6bbebed522d674a23a071decbf42e7cd0209b2600c2af5705f",
    "audio/S01__solo__1__001.wav": "1c732a91ea3cd641ad556ae0837ef395647a805880da73357a67f6c624def5a5",
    "audio/S01__solo__1__002.wav": "021c2085155cac88a5461b3961c5d98774f26d91423bca623831b6d90268c612",
    "audio/S01__solo__1__003.wav": "c6ebe194a0667be4166ea3c23fab65ec500ef7a4c3b0be04bace0aed57664c87",
    "audio/S02__imitation__1__001.wav": "5918e75d9a0f5d59d9947f35f134f398db1703c21f3631d39bd91d3b229d17a9",
    "audio/S02__imitation__1__002.wav": "1a9cc0490c42854727815f5481b90d744ac104c17d5fd46181e849a5b3ac0c38",
    "audio/S02__imitation__1__003.wav": "b9c9933950d1a277d1c3e405285655515adda0854f2c3bf88e916edda8ed4182",
    "audio/S02__interactive__1__001.wav": "96a61ef45bd3a33b30053dbeed5e9ecfb0f8dc09663fbf560f0fe49f2729278e",
    "audio/S02__interactive__1__002.wav": "7aec8a98d9afd5d8a525ede6e69c1f4a23f6cfd43fdc7f4e7f6e7bc3da8ccf38",
    "audio/S02__interactive__1__003.wav": "380a71c9ec8240e23fd7874369003b5ed2ee2b128d41c1f17145d2a9cd5e1b30",
    "audio/S02__solo__1__001.wav": "74839bef019dca5326359e872d6c85a4a91cd08484132b601d54453a447b20f8",
    "audio/S02__solo__1__002.wav": "d2babf17e5b7828fed7b09a5d5abc07fb0aa20970f9cbdd37be36c5ce78fd74c",
    "audio/S02__solo__1__003.wav": "1442c8bb0a50f3d0cbd4ba75567a4499332c00e840ec037f29cff89bdcc79bc2",
}


def test_generate_bytes_pinned(tmp_path):
    """Every WAV and the manifest of a small corpus, byte for byte: solo,
    the converging member (lam 0.5) and imitation."""
    cfg = corpus.SynthConfig(
        n_speakers=2, n_sentences=3, lam=0.5, interactive_sessions=1
    )
    corpus.generate_synthetic_corpus(cfg, 4, tmp_path)
    assert _digests(tmp_path) == GOLDEN_DIGESTS


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("rows", [1, 3])
def test_generate_bytes_independent_of_batching(tmp_path, monkeypatch, rows, cpus):
    """A sentence's 8 readings synthesized in batches of 1, or of 2, 3 and
    3, in one process or two, give the bytes of the default batching."""
    cfg = corpus.SynthConfig(n_speakers=2, n_sentences=3, lam=0.5)  # 2 x 4 sessions
    corpus.generate_synthetic_corpus(cfg, 4, tmp_path / "default")
    sizes = []
    synth = corpus._synth_sentence

    def recording(traits, *args):
        sizes.append(len(traits))
        return synth(traits, *args)

    monkeypatch.setattr(corpus, "_synth_sentence", recording)
    monkeypatch.setattr(corpus, "SYNTH_ROWS", rows)
    set_cpus(monkeypatch, cpus)
    with deadline(60):
        corpus.generate_synthetic_corpus(cfg, 4, tmp_path / "split")
    assert _digests(tmp_path / "split") == _digests(tmp_path / "default")
    batches = {1: [1] * 8, 3: [2, 3, 3]}[rows] * cfg.n_sentences
    assert sizes == (batches if cpus == 1 else batches[::2])  # a child's calls stay in it


def test_generate_different_seed_differs(tmp_path):
    cfg = corpus.SynthConfig(
        n_speakers=2, n_sentences=1, interactive_sessions=1
    )
    m1 = corpus.generate_synthetic_corpus(cfg, 1, tmp_path / "s1")
    m2 = corpus.generate_synthetic_corpus(cfg, 2, tmp_path / "s2")
    u1, u2 = m1.utterances[0], m2.utterances[0]
    assert (
        Path(m1.resolve(u1.audio_path)).read_bytes()
        != Path(m2.resolve(u2.audio_path)).read_bytes()
    )


def test_generate_lam_one_makes_converger_match_partner(tmp_path):
    """At lam=1 the second member's interactive audio uses the partner's traits."""
    cfg = corpus.SynthConfig(
        n_speakers=2, n_sentences=1, interactive_sessions=1, lam=1.0
    )
    m = corpus.generate_synthetic_corpus(cfg, 4, tmp_path / "conv")
    a = corpus.speaker_traits(4, 0)
    b = corpus.speaker_traits(4, 1)
    eff = corpus.effective_traits(b, a, 1.0)
    np.testing.assert_allclose(eff.vowels, a.vowels)
    assert eff.mod_rate == a.mod_rate and eff.ramp == a.ramp
