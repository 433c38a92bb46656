"""Convergence analysis: filtering, summaries, scores, Pearson, reports.

Oracles:
  - scipy.stats.pearsonr for r and the two-tailed p-value
  - scipy.stats.t survival function for the constructed (r=0.51, n=43) case
  - hand-built PairTables with known means for the per-speaker scores
  - a per-pair Python loop for the filter, the summaries and the
    per-speaker means over a random PairTable
"""

import csv
import json

import numpy as np
import pytest
import scipy.stats

from phonosim import analysis, corpus, net, train
from phonosim.errors import DataError


def _utt(spk, cond="solo", sess=1, sent=1):
    return corpus.Utterance(
        speaker_id=spk,
        dyad_id="A+B" if spk in ("A", "B") else "C+D",
        condition=cond,
        session=sess,
        sentence_index=sent,
    )


SPEAKERS = ["A", "B", "C", "D"]


def _table(*rows):
    """PairTable from (left speaker, right speaker, label, similarity) rows."""
    left, right, label, sim = zip(*rows)
    return analysis.PairTable(
        similarity=np.array(sim, dtype=np.float64),
        label=np.array(label, dtype=np.intp),
        left=np.array([SPEAKERS.index(s) for s in left], dtype=np.intp),
        right=np.array([SPEAKERS.index(s) for s in right], dtype=np.intp),
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
    # at threshold 0.5 the last pair, label 1 with similarity 0.1, is wrong
    table = _table(("A", "A", 1, 0.9), ("A", "B", 0, 0.2), ("A", "A", 1, 0.1))
    kept = analysis.filter_scores(table, 0.5)
    assert len(kept) == 2
    assert ((kept.similarity >= 0.5) == (kept.label == 1)).all()


def test_filter_drops_iqr_outliers():
    sims = [0.80, 0.81, 0.82, 0.83, 0.84, 0.85, 0.99]
    table = _table(*[("A", "A", 1, s) for s in sims])
    q1, q3 = np.percentile(sims, [25, 75])
    assert 0.99 > q3 + 1.5 * (q3 - q1)  # the constructed outlier is outside
    kept = analysis.filter_scores(table, 0.5)
    assert sorted(kept.similarity.tolist()) == sims[:-1]


def test_filter_groups_by_label():
    # an outlier in one group must not shadow a tight group elsewhere (the
    # label-1 pair at 0.1 is misclassified and dropped first)
    tight = [("A", "B", 0, 0.2 + 0.001 * i) for i in range(5)]
    spread = [("A", "A", 1, s) for s in (0.1, 0.5, 0.6, 0.7, 0.9)]
    kept = analysis.filter_scores(_table(*tight, *spread), 0.5)
    assert int((kept.label == 0).sum()) == 5


# ---------------------------------------------------------------------------
# summaries and per-speaker scores


def test_condition_summary_population_stats():
    table = _table(("A", "A", 1, 0.8), ("A", "A", 1, 0.6), ("A", "B", 0, 0.3))
    mean, std, n = analysis.condition_summary(table, "intra_speaker")
    assert (mean, n) == (pytest.approx(0.7), 2)
    assert std == pytest.approx(0.1)  # population std of {0.6, 0.8}
    mean, std, n = analysis.condition_summary(table, "intra_dyad")
    assert (mean, std, n) == (pytest.approx(0.3), 0.0, 1)
    with pytest.raises(DataError):
        analysis.condition_summary(table, "bogus")
    with pytest.raises(DataError):
        analysis.condition_summary(_table(("A", "A", 1, 0.8)), "intra_dyad")


def test_imitation_ability_and_convergence_degree():
    solo = _table(("A", "A", 1, 0.95), ("A", "A", 1, 0.85), ("A", "B", 0, 0.30))
    imit = _table(("A", "A", 1, 0.60))
    inter = _table(("A", "B", 0, 0.70))
    a, c = SPEAKERS.index("A"), SPEAKERS.index("C")
    # ability: mean solo intra-speaker 0.9 minus imitation 0.6
    assert analysis.imitation_ability(solo, imit, a) == pytest.approx(0.3)
    # degree: interactive intra-dyad 0.7 minus solo intra-dyad 0.3
    assert analysis.convergence_degree(solo, inter, a) == pytest.approx(0.4)
    with pytest.raises(DataError):
        analysis.imitation_ability(solo, imit, c)


def _random_table(seed, n=500, n_speakers=6):
    """Both labels, repeated similarities (ties) and far outliers."""
    rng = np.random.default_rng(seed)
    label = rng.integers(0, 2, size=n)
    left = rng.integers(0, n_speakers, size=n)
    partner = left ^ 1  # dyads (0, 1), (2, 3), (4, 5)
    right = np.where(label == 1, left, partner)
    sim = np.where(label == 1, rng.normal(0.8, 0.05, n), rng.normal(0.2, 0.05, n))
    sim[rng.random(n) < 0.1] = 0.75  # ties, also across labels
    outliers = rng.random(n) < 0.05
    sim[outliers] = np.where(label[outliers] == 1, 0.99, 0.01)
    sim[rng.random(n) < 0.05] = 0.5  # on the threshold
    return analysis.PairTable(
        similarity=sim, label=label, left=left, right=right
    ), n_speakers


def _loop_filter(table, threshold):
    rows = range(len(table))
    correct = [
        i for i in rows if int(table.similarity[i] >= threshold) == table.label[i]
    ]
    keep = set()
    for y in (0, 1):
        group = [i for i in correct if table.label[i] == y]
        if not group:
            continue
        q1, q3 = np.percentile([float(table.similarity[i]) for i in group], [25, 75])
        fence = 1.5 * (q3 - q1)
        keep |= {
            i for i in group if q1 - fence <= table.similarity[i] <= q3 + fence
        }
    return [i for i in correct if i in keep]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_columnar_analysis_matches_per_pair_loop(seed):
    table, n_speakers = _random_table(seed)
    rows = _loop_filter(table, 0.5)
    assert 0 < len(rows) < len(table)
    kept = analysis.filter_scores(table, 0.5)
    for column in ("similarity", "label", "left", "right"):
        assert getattr(kept, column).tolist() == getattr(table, column)[rows].tolist()

    for relation, y in (("intra_dyad", 0), ("intra_speaker", 1)):
        values = [
            float(kept.similarity[i]) for i in range(len(kept)) if kept.label[i] == y
        ]
        assert analysis.condition_summary(kept, relation) == (
            float(np.mean(values)), float(np.std(values)), len(values)
        )
    for spk in range(n_speakers):
        for y in (0, 1):
            values = [
                float(kept.similarity[i])
                for i in range(len(kept))
                if kept.label[i] == y and spk in (kept.left[i], kept.right[i])
            ]
            assert analysis._speaker_mean(kept, spk, y) == float(np.mean(values))


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
    speakers = [s.id for s in tiny_corpus.speakers]
    table = analysis.score_pairs(params, pairs, tiny_features, speakers)
    assert len(table) == len(pairs)
    assert table.label.tolist() == [p.label for p in pairs]
    assert [speakers[i] for i in table.left] == [p.left.speaker_id for p in pairs]
    assert [speakers[i] for i in table.right] == [p.right.speaker_id for p in pairs]
    np.testing.assert_array_equal(
        table.similarity, train.score_similarities(params, pairs, tiny_features)
    )
    kept = analysis.filter_scores(table, 0.5)
    assert ((kept.similarity >= 0.5) == (kept.label == 1)).all()
    assert len(analysis.score_pairs(params, [], tiny_features, speakers)) == 0
