"""Convergence analysis over scored utterance pairs.

Turns pairwise similarity scores into per-condition intra-dyad and
intra-speaker summaries, per-speaker imitation-ability and
convergence-degree scores, and their Pearson correlation, then writes a
JSON report plus plot-ready CSV files.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from .corpus import SCRIPT_SENTENCES, Manifest
from .corpus import build_condition_pairs, build_solo_pairs, cross_condition_pairs
from .errors import DataError
from .train import THRESHOLD, score_similarities

# Scores are differences of means of cosines in [0, 1], so a mean's rounding
# error (~1e-16) can make equal scores differ; a smaller spread is no spread.
MIN_SPREAD = 1e-12
# the fields of a scored pair set, one record per pair; ``left`` and ``right``
# index the pair's two speakers in the speaker list (``manifest.speakers``)
PAIR_FIELDS = "similarity,label,left,right"


def score_pairs(params, pairs, store, manifest: Manifest) -> np.recarray:
    """Infer-mode similarity, label and speaker indices of each pair, as a
    record array with the fields ``PAIR_FIELDS``."""
    pairs = list(pairs)
    index = {s: i for i, s in enumerate(manifest.speakers)}
    speaker = {u.key: index[u.speaker_id] for u in manifest.utterances}
    similarity = score_similarities(params, pairs, store)
    label, left, right = np.array(
        [(p.label, speaker[p.left], speaker[p.right]) for p in pairs], dtype=np.intp
    ).reshape(-1, 3).T
    return np.rec.fromarrays([similarity, label, left, right], names=PAIR_FIELDS)


def filter_scores(table: np.recarray) -> np.recarray:
    """The records of ``table`` left after dropping the pairs misclassified at
    ``THRESHOLD``, then 1.5*IQR outliers per label.

    A table holds one condition's pairs, so the label groups are the
    (condition, label) groups of the whole analysis.
    """
    keep = (table.similarity >= THRESHOLD) == (table.label == 1)
    for label in (0, 1):
        group = keep & (table.label == label)
        if not group.any():
            continue
        values = table.similarity[group]
        q1, q3 = np.percentile(values, [25, 75])
        fence = 1.5 * (q3 - q1)
        keep[group] = (q1 - fence <= values) & (values <= q3 + fence)
    return table[keep]


def _summary(values: np.ndarray) -> dict | None:
    """Mean, population std and count of some similarities; None for none."""
    if len(values) == 0:
        return None
    return {"mean": float(values.mean()), "std": float(values.std()), "n": len(values)}


def _speaker_means(table: np.recarray, label: int, n_speakers: int) -> np.ndarray:
    """Each speaker's mean similarity over the label-``label`` pairs they are
    in; NaN for a speaker in none.  The label's rows are selected once, as
    contiguous copies, so the speaker loop reads no strided record field."""
    means = np.full(n_speakers, np.nan)
    of_label = table.label == label
    similarity, left, right = (
        table.similarity[of_label], table.left[of_label], table.right[of_label]
    )
    for i in range(n_speakers):
        values = similarity[(left == i) | (right == i)]
        if len(values):
            means[i] = values.mean()
    return means


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b), with ``y = 1 - x`` given apart so
    that neither loses digits near 0 or 1: the continued fraction of Press et
    al., *Numerical Recipes* (3rd ed., section 6.4), by Lentz's method."""
    swap = x > (a + 1.0) / (a + b + 2.0)  # there the fraction for 1 - x converges faster
    if swap:
        a, b, x, y = b, a, y, x
    f, c, d = 1.0, 1.0, 0.0
    for i in range(10_000):
        m = i // 2
        if i % 2:
            term = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            term = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)) if i else 1.0
        d = 1.0 / ((1.0 + term * d) or 1e-300)  # Lentz: never divide by zero
        c = (1.0 + term / c) or 1e-300
        f *= c * d
        if abs(1.0 - c * d) < 1e-15:
            break
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)) * x**a * y**b
    value = front * (f - 1.0) / a
    return 1.0 - value if swap else value


def pearson(x, y) -> tuple[float, float]:
    """Sample Pearson r with a two-tailed p-value from the t distribution
    with n - 2 degrees of freedom: I_{1 - r^2}((n - 2) / 2, 1 / 2).

    Raises ``DataError`` for a NaN or infinite input.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    if len(y) != n:
        raise DataError("input lengths differ")
    if n < 3:
        raise DataError("Pearson correlation needs n >= 3")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DataError("Pearson correlation needs finite inputs")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = np.sqrt((xc * xc).sum())
    sy = np.sqrt((yc * yc).sum())
    if sx == 0.0 or sy == 0.0:
        raise DataError("Pearson correlation of a constant input")
    r = float(np.clip((xc * yc).sum() / (sx * sy), -1.0, 1.0))
    return r, _betainc((n - 2) / 2.0, 0.5, (1.0 - abs(r)) * (1.0 + abs(r)), r * r)


def build_report(
    params,
    manifest: Manifest,
    store,
    sessions: list[int],
    solo_range: tuple[int, int] | None = None,
) -> tuple[dict, list[tuple[str, str, float]]]:
    """Score, filter, and summarize a corpus into the ``report.json`` document.

    ``sessions`` selects the interactive sessions to analyze; the imitation
    condition uses all of its sessions.  Intra-speaker similarity is
    reported both within each condition (adjacent same-speaker sentences)
    and against the solo baseline (same sentence across conditions); the
    baseline variant feeds the per-speaker scores.  ``solo_range`` picks
    the solo sentences of the solo pairs and of the baseline, all of them
    by default.  Raises ``DataError`` when it gives no solo pairs, or when
    a session in ``sessions`` has no interactive utterances.  Returns the
    document and the (condition, relation, similarity) rows of the
    distribution plot.

    Both members of a dyad get the same convergence degree, since every
    intra-dyad pair holds both of them.  The Pearson r is taken over
    speakers, so it counts each dyad twice, and its ``n`` and p-value
    overstate the evidence: the independent units are the dyads.
    """
    lo, hi = solo_range or (1, SCRIPT_SENTENCES)
    solo_pairs = build_solo_pairs(manifest, lo, hi)
    imit_sessions = sorted(
        {u.session for u in manifest.utterances if u.condition == "imitation"}
    )
    pair_sets = [
        solo_pairs,
        build_condition_pairs(manifest, "interactive", sessions),
        build_condition_pairs(manifest, "imitation", imit_sessions)
        if imit_sessions
        else [],
        cross_condition_pairs(manifest, "interactive", sessions, lo, hi),
        cross_condition_pairs(manifest, "imitation", imit_sessions, lo, hi),
    ]
    # one scoring call, so an utterance shared by several sets is embedded once
    table = score_pairs(params, [p for s in pair_sets for p in s], store, manifest)
    ends = np.cumsum([len(s) for s in pair_sets]).tolist()
    solo, inter, imit, inter_vs_solo, imit_vs_solo = (
        filter_scores(table[a:b]) for a, b in zip([0] + ends, ends)
    )

    condition_stats, speaker_scores, rows = {}, {}, []
    within = {"solo": solo, "interactive": inter, "imitation": imit}
    baseline = {"interactive": inter_vs_solo, "imitation": imit_vs_solo}
    for condition, part in within.items():
        stats = condition_stats[condition] = {}
        for relation, label in (("intra_dyad", 0), ("intra_speaker", 1)):
            values = part.similarity[part.label == label]
            stats[relation] = _summary(values)
            rows += [(condition, relation, v) for v in values.tolist()]
    for condition, part in baseline.items():
        if not len(part):
            continue
        # every pair against the solo baseline is a same-speaker pair
        condition_stats[condition]["intra_speaker_vs_solo"] = _summary(part.similarity)
        rows += [(condition, "intra_speaker_vs_solo", v) for v in part.similarity.tolist()]

    # imitation ability: the drop in a speaker's intra-speaker similarity from
    # solo to imitation; convergence degree: the rise in their intra-dyad
    # similarity from solo to interactive
    n = len(manifest.speakers)
    ability = _speaker_means(solo, 1, n) - _speaker_means(imit_vs_solo, 1, n)
    degree = _speaker_means(inter, 0, n) - _speaker_means(solo, 0, n)
    ids = manifest.speakers
    finite = np.flatnonzero(np.isfinite(ability) & np.isfinite(degree))
    scored = sorted(finite, key=ids.__getitem__)
    ability, degree = ability[scored], degree[scored]
    for i, a, c in zip(scored, ability.tolist(), degree.tolist()):
        speaker_scores[ids[i]] = {"imitation_ability": a, "convergence_degree": c}
    spread = len(scored) >= 2 and min(np.ptp(ability), np.ptp(degree)) > MIN_SPREAD
    if spread:
        ab_norm = (ability - ability.min()) / np.ptp(ability)
        cd_norm = (degree - degree.min()) / np.ptp(degree)
        for i, a, c in zip(scored, ab_norm.tolist(), cd_norm.tolist()):
            speaker_scores[ids[i]].update(
                imitation_ability_norm=a, convergence_degree_norm=c
            )
    correlation = None
    if spread and len(scored) >= 3:
        r, p = pearson(ability, degree)
        correlation = {"r": r, "p": p, "n": len(scored)}
    report = {
        "threshold": THRESHOLD,
        "condition_stats": condition_stats,
        "speaker_scores": speaker_scores,
        "correlation": correlation,
    }
    return report, rows


def emit_report(report: dict, rows, out_dir: str | os.PathLike) -> None:
    """Write report.json plus the two plot-ready CSV files; ``rows`` are the
    distribution plot's (condition, relation, similarity) rows."""
    out_dir = str(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    # every similarity is a Python float, which csv writes as its repr
    with open(os.path.join(out_dir, "fig3_distributions.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["condition", "relation", "similarity"])
        writer.writerows(rows)
    with open(os.path.join(out_dir, "fig4_scatter.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["speaker", "imitation_ability_norm", "convergence_degree_norm"])
        writer.writerows(
            [spk, s["imitation_ability_norm"], s["convergence_degree_norm"]]
            for spk, s in report["speaker_scores"].items()
            if "imitation_ability_norm" in s
        )
