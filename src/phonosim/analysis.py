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

from .corpus import Manifest, PairExample
from .errors import DataError
from .train import score_similarities


@dataclass(frozen=True)
class ScoredPair:
    pair: PairExample
    similarity: float
    predicted_label: int
    correct: bool

    @property
    def label(self) -> int:
        return self.pair.label

    @property
    def condition(self) -> str:
        return self.pair.condition

    def speakers(self) -> tuple[str, str]:
        return (self.pair.left.speaker_id, self.pair.right.speaker_id)


def score_pairs(params, pairs, store, threshold: float = 0.5) -> list[ScoredPair]:
    """Infer-mode similarity and thresholded prediction for each pair."""
    pairs = list(pairs)
    if not pairs:
        return []
    sims = score_similarities(params, pairs, store)
    out = []
    for p, s in zip(pairs, sims):
        pred = int(s >= threshold)
        out.append(
            ScoredPair(
                pair=p, similarity=float(s), predicted_label=pred,
                correct=pred == p.label,
            )
        )
    return out


def filter_scores(scored: list[ScoredPair]) -> list[ScoredPair]:
    """Drop misclassified pairs, then 1.5*IQR outliers per (condition, label)."""
    correct = [s for s in scored if s.correct]
    groups: dict[tuple[str, int], list[ScoredPair]] = {}
    for s in correct:
        groups.setdefault((s.condition, s.label), []).append(s)
    keep = set()
    for members in groups.values():
        values = np.array([s.similarity for s in members])
        q1, q3 = np.percentile(values, [25, 75])
        fence = 1.5 * (q3 - q1)
        lo, hi = q1 - fence, q3 + fence
        for s in members:
            if lo <= s.similarity <= hi:
                keep.add(id(s))
    return [s for s in correct if id(s) in keep]


def condition_summary(
    scored: list[ScoredPair], condition: str, relation: str
) -> tuple[float, float, int]:
    """(mean, population std, n) of similarities for one condition/relation.

    ``intra_dyad`` uses different-speaker (label 0) pairs, ``intra_speaker``
    same-speaker (label 1) pairs.
    """
    if relation not in ("intra_dyad", "intra_speaker"):
        raise DataError(f"unknown relation {relation!r}")
    want = 0 if relation == "intra_dyad" else 1
    values = np.array(
        [s.similarity for s in scored if s.condition == condition and s.label == want]
    )
    if len(values) == 0:
        raise DataError(f"no surviving {relation} pairs for condition {condition!r}")
    return float(values.mean()), float(values.std()), len(values)


def _speaker_mean(scored: list[ScoredPair], speaker: str, label: int) -> float:
    values = [
        s.similarity for s in scored if s.label == label and speaker in s.speakers()
    ]
    if not values:
        raise DataError(f"speaker {speaker!r} has no surviving label-{label} pairs")
    return float(np.mean(values))


def imitation_ability(
    scored_solo: list[ScoredPair], scored_imitation: list[ScoredPair], speaker: str
) -> float:
    """Drop in a speaker's intra-speaker similarity from solo to imitation."""
    return _speaker_mean(scored_solo, speaker, 1) - _speaker_mean(
        scored_imitation, speaker, 1
    )


def convergence_degree(
    scored_solo: list[ScoredPair], scored_interactive: list[ScoredPair], speaker: str
) -> float:
    """Rise in a speaker's intra-dyad similarity from solo to interactive."""
    return _speaker_mean(scored_interactive, speaker, 0) - _speaker_mean(
        scored_solo, speaker, 0
    )


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
            pairs.append(PairExample(left=base, right=u, label=1, condition=condition))
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
    filtered: bool = True,
) -> ConvergenceReport:
    """Score, filter, and summarize a corpus into a ConvergenceReport.

    ``sessions`` selects the interactive sessions to analyze; the imitation
    condition uses all of its sessions.  Intra-speaker similarity is
    reported both within each condition (adjacent same-speaker sentences)
    and against the solo baseline (same sentence across conditions); the
    baseline variant feeds the per-speaker scores.
    """
    from .corpus import build_condition_pairs, build_solo_pairs

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
    scored = score_pairs(params, [p for s in pair_sets for p in s], store, threshold)
    ends = np.cumsum([len(s) for s in pair_sets]).tolist()
    parts = [scored[a:b] for a, b in zip([0] + ends, ends)]
    if filtered:
        parts = [filter_scores(part) for part in parts]
    solo, inter, imit, inter_vs_solo, imit_vs_solo = parts

    report = ConvergenceReport(threshold=threshold)
    within = {"solo": solo, "interactive": inter, "imitation": imit}
    baseline = {"interactive": inter_vs_solo, "imitation": imit_vs_solo}
    for condition, scored in within.items():
        stats = {}
        for relation in ("intra_dyad", "intra_speaker"):
            try:
                mean, std, n = condition_summary(scored, condition, relation)
                stats[relation] = {"mean": mean, "std": std, "n": n}
            except DataError:
                stats[relation] = None
        report.distributions += [
            (condition, "intra_dyad", s.similarity) for s in scored if s.label == 0
        ]
        report.distributions += [
            (condition, "intra_speaker", s.similarity) for s in scored if s.label == 1
        ]
        report.condition_stats[condition] = stats
    for condition, scored in baseline.items():
        if not scored:
            continue
        values = [s.similarity for s in scored]
        report.condition_stats[condition]["intra_speaker_vs_solo"] = {
            "mean": float(np.mean(values)),
            "std": float(np.std(values)),
            "n": len(values),
        }
        report.distributions += [
            (condition, "intra_speaker_vs_solo", v) for v in values
        ]

    abilities = {}
    degrees = {}
    for spk in [s.id for s in manifest.speakers]:
        try:
            ability = imitation_ability(solo, imit_vs_solo, spk)
            degree = convergence_degree(solo, inter, spk)
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
