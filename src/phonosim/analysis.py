"""Convergence analysis over scored utterance pairs.

Turns pairwise similarity scores into per-condition intra-dyad and
intra-speaker summaries, per-speaker imitation-ability and
convergence-degree scores, and their Pearson correlation, then writes a
JSON report plus plot-ready CSV files.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .corpus import Manifest, PairExample, build_condition_pairs, build_solo_pairs
from .errors import DataError
from .train import score_similarities


@dataclass(frozen=True)
class PairTable:
    """Scored pairs of one pair set, one row per pair.

    ``left`` and ``right`` are the indices of the pair's two speakers in the
    speaker list the pairs were scored against (``manifest.speakers``).
    """

    similarity: np.ndarray
    label: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def __len__(self) -> int:
        return len(self.similarity)

    def take(self, rows) -> PairTable:
        """The rows picked by an index array, boolean mask or slice."""
        return PairTable(
            self.similarity[rows], self.label[rows], self.left[rows], self.right[rows]
        )


def score_pairs(params, pairs, store, manifest: Manifest) -> PairTable:
    """Infer-mode similarity, label and speaker indices of each pair."""
    pairs = list(pairs)
    index = {s.id: i for i, s in enumerate(manifest.speakers)}
    speaker = {u.key: index[u.speaker_id] for u in manifest.utterances}
    return PairTable(
        similarity=score_similarities(params, pairs, store),
        label=np.array([p.label for p in pairs], dtype=np.intp),
        left=np.array([speaker[p.left] for p in pairs], dtype=np.intp),
        right=np.array([speaker[p.right] for p in pairs], dtype=np.intp),
    )


def filter_scores(table: PairTable, threshold: float) -> PairTable:
    """Drop misclassified pairs, then 1.5*IQR outliers per label.

    A table holds one condition's pairs, so the label groups are the
    (condition, label) groups of the whole analysis.
    """
    keep = (table.similarity >= threshold) == (table.label == 1)
    for label in (0, 1):
        group = keep & (table.label == label)
        if not group.any():
            continue
        values = table.similarity[group]
        q1, q3 = np.percentile(values, [25, 75])
        fence = 1.5 * (q3 - q1)
        keep[group] = (q1 - fence <= values) & (values <= q3 + fence)
    return table.take(keep)


def condition_summary(table: PairTable, relation: str) -> tuple[float, float, int]:
    """(mean, population std, n) of one condition's similarities for a relation.

    ``intra_dyad`` uses different-speaker (label 0) pairs, ``intra_speaker``
    same-speaker (label 1) pairs.
    """
    if relation not in ("intra_dyad", "intra_speaker"):
        raise DataError(f"unknown relation {relation!r}")
    want = 0 if relation == "intra_dyad" else 1
    values = table.similarity[table.label == want]
    if len(values) == 0:
        raise DataError(f"no surviving {relation} pairs")
    return float(values.mean()), float(values.std()), len(values)


def _speaker_mean(table: PairTable, speaker: int, label: int) -> float:
    mine = (table.label == label) & ((table.left == speaker) | (table.right == speaker))
    values = table.similarity[mine]
    if len(values) == 0:
        raise DataError(f"speaker {speaker} has no surviving label-{label} pairs")
    return float(values.mean())


def imitation_ability(solo: PairTable, imitation: PairTable, speaker: int) -> float:
    """Drop in a speaker's intra-speaker similarity from solo to imitation."""
    return _speaker_mean(solo, speaker, 1) - _speaker_mean(imitation, speaker, 1)


def convergence_degree(solo: PairTable, interactive: PairTable, speaker: int) -> float:
    """Rise in a speaker's intra-dyad similarity from solo to interactive."""
    return _speaker_mean(interactive, speaker, 0) - _speaker_mean(solo, speaker, 0)


def min_max_normalize(values) -> list[float]:
    values = np.asarray(values, dtype=np.float64)
    if len(values) < 2:
        raise DataError("min-max normalization needs at least two values")
    lo, hi = values.min(), values.max()
    if lo == hi:
        raise DataError("min-max normalization of all-equal values")
    return list((values - lo) / (hi - lo))


def pearson(x, y) -> tuple[float, float]:
    """Sample Pearson r with a two-tailed p-value from the t distribution."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    if len(y) != n:
        raise DataError("input lengths differ")
    if n < 3:
        raise DataError("Pearson correlation needs n >= 3")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = np.sqrt((xc * xc).sum())
    sy = np.sqrt((yc * yc).sum())
    if sx == 0.0 or sy == 0.0:
        raise DataError("Pearson correlation of a constant input")
    r = float(np.clip((xc * yc).sum() / (sx * sy), -1.0, 1.0))
    df = n - 2
    if abs(r) == 1.0:
        return r, 0.0
    # imported here so that only the analysis stage loads SciPy
    from scipy.special import betainc

    t2 = r * r * df / (1.0 - r * r)
    p = float(betainc(df / 2.0, 0.5, df / (df + t2)))
    return r, p


def cross_condition_pairs(
    m: Manifest, condition: str, sessions: list[int]
) -> list[PairExample]:
    """Same speaker, same sentence: solo baseline vs a later condition.

    These same-speaker pairs measure how far a speaker drifts from their own
    solo baseline; the pair carries the later condition's tag.
    """
    if condition not in ("interactive", "imitation"):
        raise DataError(f"condition must be interactive or imitation, got {condition!r}")
    solo = {
        (u.speaker_id, u.sentence_index): u
        for u in m.utterances
        if u.condition == "solo"
    }
    pairs = []
    for u in m.utterances:
        if u.condition != condition or u.session not in set(sessions):
            continue
        base = solo.get((u.speaker_id, u.sentence_index))
        if base is not None:
            pairs.append(PairExample(base.key, u.key, 1, condition))
    return pairs


@dataclass
class ConvergenceReport:
    threshold: float
    # condition -> relation -> {mean, std, n}
    condition_stats: dict = field(default_factory=dict)
    # speaker -> {imitation_ability, convergence_degree, + normalized}
    speaker_scores: dict = field(default_factory=dict)
    correlation: dict | None = None
    # rows (condition, relation, similarity) for the distribution plot
    distributions: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "condition_stats": self.condition_stats,
            "speaker_scores": self.speaker_scores,
            "correlation": self.correlation,
        }


def build_report(
    params,
    manifest: Manifest,
    store,
    sessions: list[int],
    threshold: float = 0.5,
    solo_range: tuple[int, int] | None = None,
) -> ConvergenceReport:
    """Score, filter, and summarize a corpus into a ConvergenceReport.

    ``sessions`` selects the interactive sessions to analyze; the imitation
    condition uses all of its sessions.  Intra-speaker similarity is
    reported both within each condition (adjacent same-speaker sentences)
    and against the solo baseline (same sentence across conditions); the
    baseline variant feeds the per-speaker scores.
    """
    if solo_range is None:
        sents = [
            u.sentence_index for u in manifest.utterances if u.condition == "solo"
        ]
        if not sents:
            raise DataError("manifest has no solo utterances")
        solo_range = (min(sents), max(sents))
    imit_sessions = sorted(
        {u.session for u in manifest.utterances if u.condition == "imitation"}
    )

    pair_sets = [
        build_solo_pairs(manifest, *solo_range),
        build_condition_pairs(manifest, "interactive", sessions),
        build_condition_pairs(manifest, "imitation", imit_sessions)
        if imit_sessions
        else [],
        cross_condition_pairs(manifest, "interactive", sessions),
        cross_condition_pairs(manifest, "imitation", imit_sessions)
        if imit_sessions
        else [],
    ]
    # one scoring call, so an utterance shared by several sets is embedded once
    table = score_pairs(params, [p for s in pair_sets for p in s], store, manifest)
    ends = np.cumsum([len(s) for s in pair_sets]).tolist()
    solo, inter, imit, inter_vs_solo, imit_vs_solo = (
        filter_scores(table.take(slice(a, b)), threshold) for a, b in zip([0] + ends, ends)
    )

    report = ConvergenceReport(threshold=threshold)
    within = {"solo": solo, "interactive": inter, "imitation": imit}
    baseline = {"interactive": inter_vs_solo, "imitation": imit_vs_solo}
    for condition, part in within.items():
        stats = {}
        for relation in ("intra_dyad", "intra_speaker"):
            try:
                mean, std, n = condition_summary(part, relation)
                stats[relation] = {"mean": mean, "std": std, "n": n}
            except DataError:
                stats[relation] = None
        for relation, label in (("intra_dyad", 0), ("intra_speaker", 1)):
            values = part.similarity[part.label == label].tolist()
            report.distributions += [(condition, relation, v) for v in values]
        report.condition_stats[condition] = stats
    for condition, part in baseline.items():
        if not part:
            continue
        # every pair against the solo baseline is a same-speaker pair
        mean, std, n = condition_summary(part, "intra_speaker")
        report.condition_stats[condition]["intra_speaker_vs_solo"] = {
            "mean": mean, "std": std, "n": n
        }
        report.distributions += [
            (condition, "intra_speaker_vs_solo", v) for v in part.similarity.tolist()
        ]

    abilities = {}
    degrees = {}
    for i, spk in enumerate(s.id for s in manifest.speakers):
        try:
            ability = imitation_ability(solo, imit_vs_solo, i)
            degree = convergence_degree(solo, inter, i)
        except DataError:
            continue
        abilities[spk] = ability
        degrees[spk] = degree
    speakers = sorted(abilities)
    for spk in speakers:
        report.speaker_scores[spk] = {
            "imitation_ability": abilities[spk],
            "convergence_degree": degrees[spk],
        }
    if len(speakers) >= 2:
        try:
            ab_norm = min_max_normalize([abilities[s] for s in speakers])
            cd_norm = min_max_normalize([degrees[s] for s in speakers])
            for spk, a, c in zip(speakers, ab_norm, cd_norm):
                report.speaker_scores[spk]["imitation_ability_norm"] = a
                report.speaker_scores[spk]["convergence_degree_norm"] = c
        except DataError:
            pass
    if len(speakers) >= 3:
        try:
            r, p = pearson(
                [abilities[s] for s in speakers], [degrees[s] for s in speakers]
            )
            report.correlation = {"r": r, "p": p, "n": len(speakers)}
        except DataError:
            report.correlation = None
    return report


def emit_report(report: ConvergenceReport, out_dir: str | os.PathLike) -> None:
    """Write report.json plus the two plot-ready CSV files."""
    out_dir = str(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report.to_dict(), fh, indent=1)
    with open(os.path.join(out_dir, "fig3_distributions.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["condition", "relation", "similarity"])
        for condition, relation, sim in report.distributions:
            writer.writerow([condition, relation, repr(sim)])
    with open(os.path.join(out_dir, "fig4_scatter.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["speaker", "imitation_ability_norm", "convergence_degree_norm"])
        for spk, scores in report.speaker_scores.items():
            if "imitation_ability_norm" in scores:
                writer.writerow(
                    [
                        spk,
                        repr(scores["imitation_ability_norm"]),
                        repr(scores["convergence_degree_norm"]),
                    ]
                )
