"""Convergence analysis: filtering, summaries, scores, Pearson, reports.

Oracles:
  - scipy.stats.pearsonr for r and the two-tailed p-value
  - scipy.stats.t survival function for the constructed (r=0.51, n=43) case
  - hand-built ScoredPair sets with known means for the per-speaker scores
"""

import csv
import json

import numpy as np
import pytest
import scipy.stats

from phonosim import analysis, corpus, net
from phonosim.errors import DataError


def _utt(spk, cond="solo", sess=1, sent=1):
    return corpus.Utterance(
        speaker_id=spk,
        dyad_id="A+B" if spk in ("A", "B") else "C+D",
        condition=cond,
        session=sess,
        sentence_index=sent,
    )


def _scored(spk_l, spk_r, label, sim, cond="solo", correct=True):
    pair = corpus.PairExample(
        left=_utt(spk_l, cond), right=_utt(spk_r, cond), label=label, condition=cond
    )
    pred = label if correct else 1 - label
    return analysis.ScoredPair(
        pair=pair, similarity=sim, predicted_label=pred, correct=correct
    )


# ---------------------------------------------------------------------------
# Pearson


def test_pearson_exact_linear_relationships():
    x = np.arange(10.0)
    r, p = analysis.pearson(x, 3.0 * x + 2.0)
    assert r == 1.0 and p == 0.0
    r, p = analysis.pearson(x, -0.5 * x + 4.0)
    assert r == -1.0 and p == 0.0


def test_pearson_matches_scipy_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(3, 40))
        x = rng.normal(size=n)
        y = rng.normal(size=n) + 0.3 * x
        r, p = analysis.pearson(x, y)
        ref = scipy.stats.pearsonr(x, y)
        assert r == pytest.approx(ref.statistic, abs=1e-10)
        assert p == pytest.approx(ref.pvalue, abs=1e-10)


def test_pearson_paper_case_r051_n43():
    """p for r=0.51, n=43 against an independent t-CDF oracle (~0.0005)."""
    r, n = 0.51, 43
    # construct data with this exact sample correlation
    x = np.arange(n, dtype=np.float64)
    xz = (x - x.mean()) / x.std()
    rng = np.random.default_rng(1)
    e = rng.normal(size=n)
    e -= e.mean()
    e -= xz * (e @ xz) / n  # orthogonalize to x
    e /= e.std()
    y = r * xz + np.sqrt(1 - r * r) * e
    got_r, got_p = analysis.pearson(x, y)
    assert got_r == pytest.approx(r, abs=1e-12)
    t = r * np.sqrt((n - 2) / (1.0 - r * r))
    oracle_p = 2.0 * scipy.stats.t.sf(t, df=n - 2)
    assert got_p == pytest.approx(oracle_p, abs=1e-6)
    assert got_p == pytest.approx(0.0005, abs=1e-4)


def test_pearson_input_validation():
    with pytest.raises(DataError):
        analysis.pearson([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(DataError):
        analysis.pearson([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(DataError):
        analysis.pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# normalization and filtering


def test_min_max_normalize():
    assert analysis.min_max_normalize([2.0, 4.0, 3.0]) == [0.0, 1.0, 0.5]
    with pytest.raises(DataError):
        analysis.min_max_normalize([5.0])
    with pytest.raises(DataError):
        analysis.min_max_normalize([1.0, 1.0, 1.0])


def test_filter_drops_misclassified():
    good = [_scored("A", "A", 1, 0.9), _scored("A", "B", 0, 0.2)]
    bad = [_scored("A", "A", 1, 0.1, correct=False)]
    kept = analysis.filter_scores(good + bad)
    assert len(kept) == 2
    assert all(s.correct for s in kept)


def test_filter_drops_iqr_outliers():
    sims = [0.80, 0.81, 0.82, 0.83, 0.84, 0.85, 0.99]
    scored = [_scored("A", "A", 1, s) for s in sims]
    q1, q3 = np.percentile(sims, [25, 75])
    assert 0.99 > q3 + 1.5 * (q3 - q1)  # the constructed outlier is outside
    kept = analysis.filter_scores(scored)
    assert sorted(s.similarity for s in kept) == sims[:-1]


def test_filter_groups_by_condition_and_label():
    # an outlier in one group must not shadow a tight group elsewhere
    tight = [_scored("A", "B", 0, 0.2 + 0.001 * i) for i in range(5)]
    spread = [_scored("A", "A", 1, s) for s in (0.1, 0.5, 0.6, 0.7, 0.9)]
    kept = analysis.filter_scores(tight + spread)
    assert len([s for s in kept if s.label == 0]) == 5


# ---------------------------------------------------------------------------
# summaries and per-speaker scores


def test_condition_summary_population_stats():
    scored = [
        _scored("A", "A", 1, 0.8),
        _scored("A", "A", 1, 0.6),
        _scored("A", "B", 0, 0.3),
    ]
    mean, std, n = analysis.condition_summary(scored, "solo", "intra_speaker")
    assert (mean, n) == (pytest.approx(0.7), 2)
    assert std == pytest.approx(0.1)  # population std of {0.6, 0.8}
    mean, std, n = analysis.condition_summary(scored, "solo", "intra_dyad")
    assert (mean, std, n) == (pytest.approx(0.3), 0.0, 1)
    with pytest.raises(DataError):
        analysis.condition_summary(scored, "solo", "bogus")
    with pytest.raises(DataError):
        analysis.condition_summary(scored, "imitation", "intra_dyad")


def test_imitation_ability_and_convergence_degree():
    solo = [
        _scored("A", "A", 1, 0.95),
        _scored("A", "A", 1, 0.85),
        _scored("A", "B", 0, 0.30),
    ]
    imit = [_scored("A", "A", 1, 0.60, cond="imitation")]
    inter = [_scored("A", "B", 0, 0.70, cond="interactive")]
    # ability: mean solo intra-speaker 0.9 minus imitation 0.6
    assert analysis.imitation_ability(solo, imit, "A") == pytest.approx(0.3)
    # degree: interactive intra-dyad 0.7 minus solo intra-dyad 0.3
    assert analysis.convergence_degree(solo, inter, "A") == pytest.approx(0.4)
    with pytest.raises(DataError):
        analysis.imitation_ability(solo, imit, "C")


def test_cross_condition_pairs_structure():
    m_utts = [
        _utt("A", "solo", 1, 1),
        _utt("A", "solo", 1, 2),
        _utt("B", "solo", 1, 1),
        _utt("A", "interactive", 1, 1),
        _utt("A", "interactive", 2, 2),
        _utt("B", "imitation", 1, 1),
    ]
    m = corpus.Manifest(
        speakers=[corpus.Speaker("A"), corpus.Speaker("B")],
        dyads=[("A", "B")],
        utterances=m_utts,
    )
    got = analysis.cross_condition_pairs(m, "interactive", [1, 2])
    assert len(got) == 2
    for p in got:
        assert p.label == 1
        assert p.left.condition == "solo" and p.right.condition == "interactive"
        assert p.left.speaker_id == p.right.speaker_id
        assert p.left.sentence_index == p.right.sentence_index
    assert len(analysis.cross_condition_pairs(m, "imitation", [1])) == 1
    with pytest.raises(DataError):
        analysis.cross_condition_pairs(m, "solo", [1])


# ---------------------------------------------------------------------------
# end-to-end report on the tiny corpus


def test_build_and_emit_report(tiny_corpus, tiny_features, tmp_path):
    params = net.init_params(net.ModelDims(), seed=0)
    report = analysis.build_report(
        params,
        tiny_corpus,
        tiny_features,
        sessions=[1],
        filtered=False,
    )
    assert set(report.condition_stats) == {"solo", "interactive", "imitation"}
    for cond in ("interactive", "imitation"):
        assert "intra_speaker_vs_solo" in report.condition_stats[cond]
    for spk, scores in report.speaker_scores.items():
        assert "imitation_ability" in scores and "convergence_degree" in scores

    out = tmp_path / "report"
    analysis.emit_report(report, out)
    doc = json.loads((out / "report.json").read_text())
    assert doc["threshold"] == 0.5
    with open(out / "fig3_distributions.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["condition", "relation", "similarity"]
    assert len(rows) == 1 + len(report.distributions)
    with open(out / "fig4_scatter.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["speaker", "imitation_ability_norm", "convergence_degree_norm"]


def test_build_report_embeds_each_utterance_once(tiny_corpus, tiny_features, monkeypatch):
    from phonosim import train

    rows = []
    kernel = train._embed_forward

    def counting(params, feats, *args, **kwargs):
        rows.append(len(feats))
        return kernel(params, feats, *args, **kwargs)

    monkeypatch.setattr(train, "_embed_forward", counting)
    params = net.init_params(net.ModelDims(), seed=0)
    analysis.build_report(params, tiny_corpus, tiny_features, sessions=[1])

    solo = [u.sentence_index for u in tiny_corpus.utterances if u.condition == "solo"]
    pair_sets = [
        corpus.build_solo_pairs(tiny_corpus, min(solo), max(solo)),
        corpus.build_condition_pairs(tiny_corpus, "interactive", [1]),
        corpus.build_condition_pairs(tiny_corpus, "imitation", [1]),
        analysis.cross_condition_pairs(tiny_corpus, "interactive", [1]),
        analysis.cross_condition_pairs(tiny_corpus, "imitation", [1]),
    ]
    keys = {k for pairs in pair_sets for p in pairs for k in (p.left.key, p.right.key)}
    assert all(pair_sets) and len(rows) > 1
    assert sum(rows) == len(keys)


def test_score_pairs_marks_correctness(tiny_corpus, tiny_features):
    pairs = corpus.build_solo_pairs(tiny_corpus, 1, 2)
    params = net.init_params(net.ModelDims(), seed=0)
    scored = analysis.score_pairs(params, pairs, tiny_features, threshold=0.5)
    assert len(scored) == len(pairs)
    for s in scored:
        assert s.predicted_label == int(s.similarity >= 0.5)
        assert s.correct == (s.predicted_label == s.label)
    assert analysis.score_pairs(params, [], tiny_features) == []
