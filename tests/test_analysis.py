"""Convergence analysis: filtering, summaries, scores, Pearson, reports.

Oracles:
  - scipy.stats.pearsonr for r and the two-tailed p-value
  - scipy.stats.t survival function for the constructed (r=0.51, n=43) case
    and for a sweep over n and r (the Cauchy one at 1 degree of freedom)
  - hand-built pair record arrays with known means for the per-speaker scores
  - a per-pair Python loop for the filter, the summaries and the
    per-speaker means over a random record array, and for the speaker scores
    of a whole report built from scripted similarities
  - SHA-256 of the files emit_report writes for scripted similarities
"""

import csv
import hashlib
import json

import numpy as np
import pytest
import scipy.stats

from conftest import metadata_manifest
from phonosim import analysis, corpus, net, train
from phonosim.errors import DataError


SPEAKERS = ["A", "B", "C", "D"]


def _table(*rows):
    """Pair records from (left speaker, right speaker, label, similarity) rows."""
    left, right, label, sim = zip(*rows)
    return np.rec.fromarrays(
        [
            np.array(sim, dtype=np.float64),
            np.array(label, dtype=np.intp),
            np.array([SPEAKERS.index(s) for s in left], dtype=np.intp),
            np.array([SPEAKERS.index(s) for s in right], dtype=np.intp),
        ],
        names=analysis.PAIR_FIELDS,
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


@pytest.mark.parametrize("n", [3, 4, 5, 10, 43, 58, 200, 1000])
def test_pearson_p_matches_t_distribution(n):
    """pearson's p is 2 * t.sf(|t|, n - 2) to 1e-12 absolute and 1e-9
    relative, from p = 1 to the far tail.  At 1 degree of freedom the oracle
    is the Cauchy distribution's: there SciPy's t.sf rounds 1 / (1 + t^2) to
    1 for |t| < 1e-8, so 2 * t.sf(1e-9, 1) is 1.0, not 1 - 6.4e-10."""
    rng = np.random.default_rng(n)
    x, e = rng.normal(size=(2, n))
    x = (x - x.mean()) / np.linalg.norm(x - x.mean())
    e -= e.mean() + x * (e @ x)  # centred, orthogonal to x
    e /= np.linalg.norm(e)
    df = n - 2
    for target in (0.0, 1e-9, 0.1, 0.51, 0.9, 0.999999):
        for r in (target, -target):
            got_r, got_p = analysis.pearson(x, r * x + np.sqrt(1.0 - r * r) * e)
            assert got_r == pytest.approx(r, abs=1e-14)
            t = abs(got_r) * np.sqrt(df / ((1.0 - abs(got_r)) * (1.0 + abs(got_r))))
            want = 2.0 * (scipy.stats.cauchy.sf(t) if df == 1 else scipy.stats.t.sf(t, df))
            assert abs(got_p - want) <= 1e-12 and abs(got_p - want) <= 1e-9 * want, (r, want)


def test_pearson_input_validation():
    with pytest.raises(DataError):
        analysis.pearson([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(DataError):
        analysis.pearson([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(DataError):
        analysis.pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pearson_rejects_non_finite_input(bad):
    with pytest.raises(DataError, match="finite"):
        analysis.pearson([1.0, bad, 3.0, 4.0], [1.0, 2.0, 4.0, 3.0])
    with pytest.raises(DataError, match="finite"):
        analysis.pearson([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, bad, 3.0])


# ---------------------------------------------------------------------------
# normalization and filtering


def test_filter_drops_misclassified():
    # at threshold 0.5 the last pair, label 1 with similarity 0.1, is wrong
    table = _table(("A", "A", 1, 0.9), ("A", "B", 0, 0.2), ("A", "A", 1, 0.1))
    kept = analysis.filter_scores(table)
    assert len(kept) == 2
    assert ((kept.similarity >= 0.5) == (kept.label == 1)).all()


def test_filter_drops_iqr_outliers():
    sims = [0.80, 0.81, 0.82, 0.83, 0.84, 0.85, 0.99]
    table = _table(*[("A", "A", 1, s) for s in sims])
    q1, q3 = np.percentile(sims, [25, 75])
    assert 0.99 > q3 + 1.5 * (q3 - q1)  # the constructed outlier is outside
    kept = analysis.filter_scores(table)
    assert sorted(kept.similarity.tolist()) == sims[:-1]


def test_filter_groups_by_label():
    # an outlier in one group must not shadow a tight group elsewhere (the
    # label-1 pair at 0.1 is misclassified and dropped first)
    tight = [("A", "B", 0, 0.2 + 0.001 * i) for i in range(5)]
    spread = [("A", "A", 1, s) for s in (0.1, 0.5, 0.6, 0.7, 0.9)]
    kept = analysis.filter_scores(_table(*tight, *spread))
    assert int((kept.label == 0).sum()) == 5


# ---------------------------------------------------------------------------
# summaries and per-speaker scores


def test_condition_summary_population_stats():
    table = _table(("A", "A", 1, 0.8), ("A", "A", 1, 0.6), ("A", "B", 0, 0.3))
    got = analysis._summary(table.similarity[table.label == 1])
    assert got["n"] == 2 and got["mean"] == pytest.approx(0.7)
    assert got["std"] == pytest.approx(0.1)  # population std of {0.6, 0.8}
    got = analysis._summary(table.similarity[table.label == 0])
    assert got == {"mean": pytest.approx(0.3), "std": 0.0, "n": 1}
    assert analysis._summary(np.array([])) is None


def test_imitation_ability_and_convergence_degree():
    solo = _table(("A", "A", 1, 0.95), ("A", "A", 1, 0.85), ("A", "B", 0, 0.30))
    imit = _table(("A", "A", 1, 0.60))
    inter = _table(("A", "B", 0, 0.70))
    n = len(SPEAKERS)
    a, c = SPEAKERS.index("A"), SPEAKERS.index("C")
    # ability: mean solo intra-speaker 0.9 minus imitation 0.6
    ability = analysis._speaker_means(solo, 1, n) - analysis._speaker_means(imit, 1, n)
    assert ability[a] == pytest.approx(0.3)
    # degree: interactive intra-dyad 0.7 minus solo intra-dyad 0.3
    degree = analysis._speaker_means(inter, 0, n) - analysis._speaker_means(solo, 0, n)
    assert degree[a] == pytest.approx(0.4)
    # C is in no pair
    assert np.isnan(ability[c]) and np.isnan(degree[c])


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
    table = np.rec.fromarrays([sim, label, left, right], names=analysis.PAIR_FIELDS)
    return table, n_speakers


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


def _loop_speaker_mean(table, spk, label):
    values = [
        float(table.similarity[i])
        for i in range(len(table))
        if table.label[i] == label and spk in (table.left[i], table.right[i])
    ]
    return float(np.mean(values))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_columnar_analysis_matches_per_pair_loop(seed):
    table, n_speakers = _random_table(seed)
    rows = _loop_filter(table, 0.5)
    assert 0 < len(rows) < len(table)
    kept = analysis.filter_scores(table)
    for column in ("similarity", "label", "left", "right"):
        assert getattr(kept, column).tolist() == getattr(table, column)[rows].tolist()

    for y in (0, 1):
        values = [
            float(kept.similarity[i]) for i in range(len(kept)) if kept.label[i] == y
        ]
        assert analysis._summary(kept.similarity[kept.label == y]) == {
            "mean": float(np.mean(values)), "std": float(np.std(values)), "n": len(values)
        }
        means = analysis._speaker_means(kept, y, n_speakers)
        for spk in range(n_speakers):
            assert means[spk] == _loop_speaker_mean(kept, spk, y)


# ---------------------------------------------------------------------------
# end-to-end report on the tiny corpus


def test_build_and_emit_report(tiny_corpus, tiny_features, tmp_path):
    params = net.init_params(net.ModelDims(), seed=0)
    report, dist = analysis.build_report(
        params,
        tiny_corpus,
        tiny_features,
        sessions=[1],
    )
    assert set(report["condition_stats"]) == {"solo", "interactive", "imitation"}
    for cond in ("interactive", "imitation"):
        assert "intra_speaker_vs_solo" in report["condition_stats"][cond]
    for spk, scores in report["speaker_scores"].items():
        assert "imitation_ability" in scores and "convergence_degree" in scores

    out = tmp_path / "report"
    analysis.emit_report(report, dist, out)
    doc = json.loads((out / "report.json").read_text())
    assert doc["threshold"] == 0.5
    with open(out / "fig3_distributions.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["condition", "relation", "similarity"]
    assert len(rows) == 1 + len(dist)
    with open(out / "fig4_scatter.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["speaker", "imitation_ability_norm", "convergence_degree_norm"]


def _scripted_report(monkeypatch, similarities, manifest=None):
    """``build_report`` on an audio-free corpus of 6 speakers in 3 dyads
    (or on ``manifest``), with ``similarities(labels)`` in place of the
    network's scores.

    Returns the manifest, the report, its distribution rows and the five
    filtered tables in the order ``build_report`` makes them: solo,
    interactive, imitation, interactive vs solo and imitation vs solo.
    """
    if manifest is None:
        manifest = metadata_manifest(6, 6, conditions=corpus.CONDITIONS, sessions=(1,))
    monkeypatch.setattr(
        analysis, "score_similarities",
        lambda params, pairs, store: similarities(np.array([p.label for p in pairs])),
    )
    tables = []
    filter_scores = analysis.filter_scores

    def recording(table):
        tables.append(filter_scores(table))
        return tables[-1]

    monkeypatch.setattr(analysis, "filter_scores", recording)
    report, dist = analysis.build_report(None, manifest, {}, sessions=[1])
    return manifest, report, dist, tables


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_build_report_scores_every_speaker(monkeypatch, tmp_path):
    # label-consistent similarities: every pair survives the threshold
    rng = np.random.default_rng(3)
    manifest, report, dist, tables = _scripted_report(
        monkeypatch,
        lambda labels: np.where(labels == 1, 0.6, 0.1) + 0.3 * rng.random(len(labels)),
    )
    solo, inter, _, _, imit_vs_solo = tables
    ids = sorted(manifest.speakers)
    assert list(report["speaker_scores"]) == ids
    index = {s: i for i, s in enumerate(manifest.speakers)}
    ability = [
        _loop_speaker_mean(solo, index[s], 1) - _loop_speaker_mean(imit_vs_solo, index[s], 1)
        for s in ids
    ]
    degree = [
        _loop_speaker_mean(inter, index[s], 0) - _loop_speaker_mean(solo, index[s], 0)
        for s in ids
    ]
    for spk, a, c in zip(ids, ability, degree):
        scores = report["speaker_scores"][spk]
        assert (scores["imitation_ability"], scores["convergence_degree"]) == (a, c)
        assert scores["imitation_ability_norm"] == pytest.approx(
            (a - min(ability)) / (max(ability) - min(ability)), abs=1e-12
        )
        assert scores["convergence_degree_norm"] == pytest.approx(
            (c - min(degree)) / (max(degree) - min(degree)), abs=1e-12
        )
    ref = scipy.stats.pearsonr(ability, degree)
    assert report["correlation"]["n"] == len(ids)
    assert report["correlation"]["r"] == pytest.approx(ref.statistic, abs=1e-12)
    assert report["correlation"]["p"] == pytest.approx(ref.pvalue, abs=1e-10)

    analysis.emit_report(report, dist, tmp_path)
    rows = _read_csv(tmp_path / "fig4_scatter.csv")
    assert rows[1:] == [
        [spk, repr(s["imitation_ability_norm"]), repr(s["convergence_degree_norm"])]
        for spk, s in report["speaker_scores"].items()
    ]
    # every number in both plot files is a plain float
    fig3 = _read_csv(tmp_path / "fig3_distributions.csv")
    assert len(fig3) == 1 + len(dist)
    for row in fig3[1:]:
        float(row[2])
    for row in rows[1:]:
        [float(v) for v in row[1:]]


def test_min_max_normalize(monkeypatch, tmp_path):
    """With every imitation ability equal, normalization and the Pearson r
    are left out, and the speakers are still scored."""
    rng = np.random.default_rng(4)
    # 0.75 is exact in binary, so every mean of it is 0.75 and every ability 0
    manifest, report, dist, _ = _scripted_report(
        monkeypatch,
        lambda labels: np.where(labels == 1, 0.75, 0.1 + 0.3 * rng.random(len(labels))),
    )
    assert len(report["speaker_scores"]) == len(manifest.speakers)
    degrees = set()
    for scores in report["speaker_scores"].values():
        assert set(scores) == {"imitation_ability", "convergence_degree"}
        assert scores["imitation_ability"] == 0.0
        degrees.add(scores["convergence_degree"])
    assert len(degrees) > 1
    assert report["correlation"] is None
    analysis.emit_report(report, dist, tmp_path)
    assert len(_read_csv(tmp_path / "fig4_scatter.csv")) == 1


def test_rounding_noise_is_no_spread(monkeypatch):
    """Equal similarities averaged over different pair counts differ by
    rounding alone (``np.full(3, 0.8).mean() - 0.8`` is 1.1e-16); such
    abilities have no spread, so normalization and the Pearson r are left out."""
    manifest = metadata_manifest(6, 6, conditions=corpus.CONDITIONS, sessions=(1,))
    manifest.utterances.remove(corpus.Utterance("P000", "solo", 1, 1))
    rng = np.random.default_rng(4)
    _, report, _, _ = _scripted_report(
        monkeypatch,
        lambda labels: np.where(labels == 1, 0.8, 0.1 + 0.3 * rng.random(len(labels))),
        manifest,
    )
    abilities = [s["imitation_ability"] for s in report["speaker_scores"].values()]
    assert len(abilities) == 6 and 0 < np.ptp(abilities) < 1e-12
    for scores in report["speaker_scores"].values():
        assert set(scores) == {"imitation_ability", "convergence_degree"}
    assert report["correlation"] is None


def test_report_without_imitation_sessions(monkeypatch):
    """A corpus with no imitation session has empty imitation pair sets:
    null imitation summaries, no imitation-vs-solo entry, and without an
    imitation ability no speaker is scored and no correlation taken."""
    manifest = metadata_manifest(6, 6, conditions=("solo", "interactive"), sessions=(1,))
    rng = np.random.default_rng(5)
    _, report, dist, tables = _scripted_report(
        monkeypatch,
        lambda labels: np.where(labels == 1, 0.6, 0.1) + 0.3 * rng.random(len(labels)),
        manifest,
    )
    assert len(tables) == 5 and len(tables[2]) == len(tables[4]) == 0
    stats = report["condition_stats"]
    assert stats["imitation"] == {"intra_dyad": None, "intra_speaker": None}
    assert "intra_speaker_vs_solo" in stats["interactive"]
    assert report["speaker_scores"] == {} and report["correlation"] is None
    assert {row[0] for row in dist} == {"solo", "interactive"}


# Recorded with the record-class report (ConvergenceReport.to_dict), before
# build_report built the document itself: the refactor changes no byte.
# report.json was recorded again when pearson's p-value moved from SciPy's
# betainc to analysis._betainc: its correlation.p went from 0.671969649819299
# to 0.6719696498192987 (exact: 0.67196964981929888, by 50-digit mpmath).
GOLDEN_REPORT_DIGESTS = {
    "report.json": "a50423995fab55b73b5e6b65a5ef6637cb2f41a3be790cc44ed7033e7c16d771",
    "fig3_distributions.csv": "995e0aaecfeae3ee2615fd13460d0533464debe9c5352c996cd08de7f6407929",
    "fig4_scatter.csv": "ef27076d63150e3dc26b41232725a18cc520634334b30c79ad4624dc9c9df6b3",
}


def test_emitted_report_bytes_are_pinned(monkeypatch, tmp_path):
    """The files ``emit_report`` writes for fixed scripted similarities,
    byte for byte.  The filter drops pairs on both sides of the threshold
    and every speaker is normalized, so each key of report.json shows; no
    network runs, so no BLAS sum enters the bytes."""

    def similarities(labels):
        rng = np.random.default_rng(3)
        return np.where(labels == 1, 0.45, 0.05) + 0.5 * rng.random(len(labels))

    _, report, dist, tables = _scripted_report(monkeypatch, similarities)
    assert [len(t) for t in tables] == [182, 44, 44, 31, 32]
    assert report["correlation"]["n"] == 6
    analysis.emit_report(report, dist, tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN_REPORT_DIGESTS
    }
    assert digests == GOLDEN_REPORT_DIGESTS


def test_build_report_needs_solo_pairs(tiny_corpus, tiny_features):
    params = net.init_params(net.ModelDims(), seed=0)
    with pytest.raises(DataError, match="no solo pairs in sentence range 70:80"):
        analysis.build_report(
            params, tiny_corpus, tiny_features, sessions=[1], solo_range=(70, 80)
        )


def test_solo_range_narrows_both_baselines(tiny_corpus, tiny_features, monkeypatch):
    """``solo_range`` picks the solo sentences of every pair that ``build_report``
    scores: the solo pairs and the pairs against the solo baseline, which
    feed imitation ability."""
    scored = []
    score = analysis.score_pairs

    def recording(params, pairs, *args):
        scored.extend(pairs)
        return score(params, pairs, *args)

    monkeypatch.setattr(analysis, "score_pairs", recording)
    params = net.init_params(net.ModelDims(), seed=0)
    analysis.build_report(params, tiny_corpus, tiny_features, sessions=[1], solo_range=(4, 6))
    utt = {u.key: u for u in tiny_corpus.utterances}
    vs_solo = [
        (utt[p.left], utt[p.right]) for p in scored
        if utt[p.left].condition == "solo" and utt[p.right].condition != "solo"
    ]
    # a solo reading, then the same speaker's reading of that sentence later
    for base, later in vs_solo:
        assert (base.speaker_id, base.sentence_index) == (later.speaker_id, later.sentence_index)
    assert {later.condition for _, later in vs_solo} == {"interactive", "imitation"}
    assert {base.sentence_index for base, _ in vs_solo} == {4, 5, 6}
    solo = {utt[k].sentence_index for p in scored for k in p[:2] if utt[k].condition == "solo"}
    assert solo == {4, 5, 6}


def test_build_report_embeds_each_utterance_once(tiny_corpus, tiny_features, monkeypatch):
    rows = []
    kernel = train._embed_forward

    def counting(params, feats, *args, **kwargs):
        rows.append(len(feats))
        return kernel(params, feats, *args, **kwargs)

    monkeypatch.setattr(train, "_embed_forward", counting)
    params = net.init_params(net.ModelDims(), seed=0)
    analysis.build_report(params, tiny_corpus, tiny_features, sessions=[1])

    pair_sets = [
        corpus.build_solo_pairs(tiny_corpus, 1, corpus.SCRIPT_SENTENCES),
        corpus.build_condition_pairs(tiny_corpus, "interactive", [1]),
        corpus.build_condition_pairs(tiny_corpus, "imitation", [1]),
        corpus.cross_condition_pairs(tiny_corpus, "interactive", [1], 1, corpus.SCRIPT_SENTENCES),
        corpus.cross_condition_pairs(tiny_corpus, "imitation", [1], 1, corpus.SCRIPT_SENTENCES),
    ]
    keys = {k for pairs in pair_sets for p in pairs for k in (p.left, p.right)}
    assert all(pair_sets) and len(rows) > 1
    assert sum(rows) == len(keys)


def test_score_pairs_marks_correctness(tiny_corpus, tiny_features):
    pairs = corpus.build_solo_pairs(tiny_corpus, 1, 2)
    params = net.init_params(net.ModelDims(), seed=0)
    table = analysis.score_pairs(params, pairs, tiny_features, tiny_corpus)
    assert isinstance(table, np.recarray) and len(table) == len(pairs)
    assert table.dtype.names == ("similarity", "label", "left", "right")
    assert table.label.tolist() == [p.label for p in pairs]
    speakers = tiny_corpus.speakers
    speaker_of = {u.key: u.speaker_id for u in tiny_corpus.utterances}
    assert [speakers[i] for i in table.left] == [speaker_of[p.left] for p in pairs]
    assert [speakers[i] for i in table.right] == [speaker_of[p.right] for p in pairs]
    np.testing.assert_array_equal(
        table.similarity, train.score_similarities(params, pairs, tiny_features)
    )
    kept = analysis.filter_scores(table)
    assert isinstance(kept, np.recarray)
    assert ((kept.similarity >= 0.5) == (kept.label == 1)).all()
    assert len(analysis.score_pairs(params, [], tiny_features, tiny_corpus)) == 0
