"""Manifest validation, pair construction, and the synthetic generator.

Pair-count oracles (closed form, per §-free accounting):
  - solo positives  = sum over speakers of C(n_s, 2)
  - solo negatives  = sum over dyads of n_a * n_b (equal sentence allowed)
  - condition positives = per (speaker, session): n - 1 consecutive pairs
  - condition negatives = per dyad and sentence: all cross-member session
    combinations of that sentence
"""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from phonosim import corpus
from phonosim.errors import DataError, ManifestError

from conftest import metadata_manifest


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


def test_split_by_sentence_fixed_ranges():
    import warnings

    m = metadata_manifest(n_speakers=2, n_sentences=80)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a full script must not warn
        ranges = corpus.split_by_sentence(m)
    assert ranges == ((1, 40), (41, 60), (61, 80))


def test_split_by_sentence_warns_on_missing_ranges():
    m = metadata_manifest(n_speakers=2, n_sentences=10)
    with pytest.warns(UserWarning) as record:
        corpus.split_by_sentence(m)
    assert [str(w.message) for w in record] == [
        "manifest has no solo sentences in the validation range 41-60",
        "manifest has no solo sentences in the test range 61-80",
    ]


# ---------------------------------------------------------------------------
# manifest validation and round trip


def _valid_doc():
    return {
        "speakers": [{"id": "A"}, {"id": "B"}],
        "dyads": [["A", "B"]],
        "utterances": [
            {
                "speaker_id": "A",
                "dyad_id": "A+B",
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
    assert [s.id for s in m.speakers] == ["A", "B"]
    assert m.utterances[0].key == "A__solo__1__001"
    out = tmp_path / "again.json"
    corpus.save_manifest(m, out)
    m2 = corpus.load_manifest(out)
    assert m2.utterances == m.utterances
    assert m2.dyads == m.dyads


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
        (lambda d: d["utterances"][0].__setitem__("dyad_id", "X+Y"), "does not match"),
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
                    "dyad_id": valid_or_any("A+B"),
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
    pass


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
    same = corpus.effective_traits(b, a, lam=0.7, converging=False)
    assert same is b
    at0 = corpus.effective_traits(b, a, lam=0.0, converging=True)
    at1 = corpus.effective_traits(b, a, lam=1.0, converging=True)
    mid = corpus.effective_traits(b, a, lam=0.5, converging=True)
    np.testing.assert_allclose(at0.vowels, b.vowels)
    np.testing.assert_allclose(at1.vowels, a.vowels)
    np.testing.assert_allclose(mid.vowels, (a.vowels + b.vowels) / 2)
    assert at1.mod_rate == pytest.approx(a.mod_rate)
    assert mid.ramp == pytest.approx((a.ramp + b.ramp) / 2)


def test_sentence_content_is_shared_and_balanced():
    order, durations = corpus._sentence_content(seed=3, sentence=4, n_vowels=3)
    order2, durations2 = corpus._sentence_content(seed=3, sentence=4, n_vowels=3)
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
        n_speakers=2, n_sentences=2, interactive_sessions=1, imitation_sessions=1
    )
    m1 = corpus.generate_synthetic_corpus(cfg, 9, tmp_path / "one")
    m2 = corpus.generate_synthetic_corpus(cfg, 9, tmp_path / "two")
    for u1, u2 in zip(m1.utterances, m2.utterances):
        b1 = Path(m1.resolve(u1.audio_path)).read_bytes()
        b2 = Path(m2.resolve(u2.audio_path)).read_bytes()
        assert b1 == b2


def test_generate_different_seed_differs(tmp_path):
    cfg = corpus.SynthConfig(
        n_speakers=2, n_sentences=1, interactive_sessions=1, imitation_sessions=0
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
        n_speakers=2, n_sentences=1, interactive_sessions=1, imitation_sessions=0, lam=1.0
    )
    m = corpus.generate_synthetic_corpus(cfg, 4, tmp_path / "conv")
    a = corpus.speaker_traits(4, 0)
    b = corpus.speaker_traits(4, 1)
    eff = corpus.effective_traits(b, a, 1.0, converging=True)
    np.testing.assert_allclose(eff.vowels, a.vowels)
    assert eff.mod_rate == a.mod_rate and eff.ramp == a.ramp
