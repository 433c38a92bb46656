"""Checks of phonosim's outputs made apart from phonosim.

Nothing here imports phonosim.  Feature and checkpoint files are parsed
from their documented byte layouts, the network is re-run as a plain
per-utterance NumPy loop in infer mode, AUC is taken by comparing every
positive with every negative, and the analysis report is recomputed from
its own CSV and from scipy.  Each check returns ``(ok, detail)``.
"""

from __future__ import annotations

import csv
import json
import math
import struct
import wave

import numpy as np
from scipy import stats

BN_EPS = 1e-5
TENSORS = (
    "wf", "uf", "bf", "wb", "ub", "bb", "wy", "by", "we", "be",
    "bn_scale", "bn_shift", "bn_mean", "bn_var",
)


def read_artf(path) -> np.ndarray:
    """``ARTF``, u32 rows, u32 cols, row-major little-endian float32."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"ARTF":
        raise ValueError(f"bad magic in {path}")
    rows, cols = struct.unpack_from("<II", blob, 4)
    if len(blob) != 12 + 4 * rows * cols:
        raise ValueError(f"bad size of {path}")
    return np.frombuffer(blob, "<f4", offset=12).reshape(rows, cols).astype(np.float64)


def read_artm(path) -> dict[str, np.ndarray]:
    """``ARTM``, u32 version, 3 x u32 dims, then named float64 tensors."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"ARTM":
        raise ValueError(f"bad magic in {path}")
    off = 20
    out = {}
    for _ in TENSORS:
        (nlen,) = struct.unpack_from("<I", blob, off)
        name = blob[off + 4 : off + 4 + nlen].decode("ascii")
        off += 4 + nlen
        (rank,) = struct.unpack_from("<I", blob, off)
        shape = struct.unpack_from(f"<{rank}I", blob, off + 4)
        off += 4 + 4 * rank
        count = math.prod(shape)
        out[name] = np.frombuffer(blob, "<f8", count, off).reshape(shape)
        off += 8 * count
    if sorted(out) != sorted(TENSORS) or off != len(blob):
        raise ValueError(f"unexpected tensors or trailing bytes in {path}")
    return out


def embed(p: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    """Infer-mode embedding: tanh bi-RNN, BN running stats, tanh FF, sigmoid."""
    hf = np.zeros(p["uf"].shape[0])
    for t in range(len(x)):
        hf = np.tanh(p["wf"] @ x[t] + p["uf"] @ hf + p["bf"])
    hb = np.zeros(p["ub"].shape[0])
    for t in range(len(x) - 1, -1, -1):
        hb = np.tanh(p["wb"] @ x[t] + p["ub"] @ hb + p["bb"])
    h = np.concatenate([hf, hb])
    z = p["bn_scale"] * (h - p["bn_mean"]) / np.sqrt(p["bn_var"] + BN_EPS) + p["bn_shift"]
    y = np.tanh(p["wy"] @ z + p["by"])
    return 1.0 / (1.0 + np.exp(-(p["we"] @ y + p["be"])))


def similarities(p, pairs, feature_dir) -> np.ndarray:
    """Cosine similarity of each (left, right, label) pair, one utterance at a time."""
    cache = {}

    def emb(key):
        if key not in cache:
            cache[key] = embed(p, read_artf(f"{feature_dir}/{key}.artf"))
        return cache[key]

    out = np.empty(len(pairs))
    for i, (left, right, _) in enumerate(pairs):
        a, b = emb(left), emb(right)
        out[i] = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
    return out


def pairwise_auc(scores, labels) -> float:
    """Share of (positive, negative) pairs ranked correctly, ties counted half."""
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = 0.0
    for chunk in range(0, len(pos), 256):
        d = pos[chunk : chunk + 256, None] - neg[None, :]
        wins += (d > 0).sum() + 0.5 * (d == 0).sum()
    return float(wins / (len(pos) * len(neg)))


def load_pairs(path) -> list[tuple[str, str, int]]:
    with open(path) as fh:
        return [(p["left"], p["right"], int(p["label"])) for p in json.load(fh)["pairs"]]


# ---------------------------------------------------------------------------
# checks


def check_features(manifest_path, feature_dir, window=400, hop=160):
    """39 columns, 1 + (n - 400) // 160 frames, CMVN mean 0 and sd 1 per column."""
    with open(manifest_path) as fh:
        doc = json.load(fh)
    root = manifest_path.rsplit("/", 1)[0]
    worst_mean = worst_sd = 0.0
    for u in doc["utterances"]:
        key = f"{u['speaker_id']}__{u['condition']}__{u['session']}__{u['sentence_index']:03d}"
        with wave.open(f"{root}/{u['audio_path']}", "rb") as fh:
            n = fh.getnframes()
        x = read_artf(f"{feature_dir}/{key}.artf")
        if x.shape != (1 + (n - window) // hop, 39):
            return False, f"{key}: shape {x.shape} for {n} samples"
        worst_mean = max(worst_mean, float(np.abs(x.mean(axis=0)).max()))
        worst_sd = max(worst_sd, float(np.abs(x.std(axis=0) - 1.0).max()))
    ok = worst_mean < 1e-5 and worst_sd < 1e-5
    return ok, f"{len(doc['utterances'])} files, |mean| <= {worst_mean:.1e}, |sd - 1| <= {worst_sd:.1e}"


def check_similarities(model_path, feature_dir, sample, program_sims):
    """The reference forward against the program's similarities on a sample."""
    ref = similarities(read_artm(model_path), sample, feature_dir)
    err = float(np.abs(ref - np.asarray(program_sims)).max())
    return err <= 1e-9, f"{len(sample)} pairs, max |diff| {err:.1e}"


def check_eval_report(model_path, feature_dir, pairs_path, report_path, threshold=0.5):
    """Accuracy and AUC of the eval report against the reference similarities."""
    pairs = load_pairs(pairs_path)
    sims = similarities(read_artm(model_path), pairs, feature_dir)
    labels = np.array([y for _, _, y in pairs])
    accuracy = float(np.mean((sims >= threshold) == (labels == 1)))
    auc = pairwise_auc(sims, labels)
    with open(report_path) as fh:
        report = json.load(fh)
    ok = report["accuracy"] == accuracy and abs(report["auc"] - auc) <= 1e-12
    detail = (
        f"accuracy {report['accuracy']:.4f} vs {accuracy:.4f}, "
        f"AUC {report['auc']:.6f} vs {auc:.6f}"
    )
    return ok, detail, report["accuracy"]


def check_condition_stats(analysis_dir):
    """report.json condition statistics recomputed from fig3_distributions.csv."""
    groups: dict[tuple[str, str], list[float]] = {}
    with open(f"{analysis_dir}/fig3_distributions.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            groups.setdefault((row["condition"], row["relation"]), []).append(
                float(row["similarity"])
            )
    with open(f"{analysis_dir}/report.json") as fh:
        report = json.load(fh)
    reported = {
        (cond, rel): s
        for cond, rels in report["condition_stats"].items()
        for rel, s in rels.items()
        if s is not None
    }
    if set(reported) != set(groups):
        return False, f"groups differ: {sorted(set(reported) ^ set(groups))}"
    for key, values in groups.items():
        s = reported[key]
        if s["n"] != len(values) or not (
            math.isclose(s["mean"], float(np.mean(values)), rel_tol=1e-12, abs_tol=1e-15)
            and math.isclose(s["std"], float(np.std(values)), rel_tol=1e-9, abs_tol=1e-15)
        ):
            return False, f"{key}: {s} vs n={len(values)}"
    return True, f"{len(groups)} condition/relation groups"


def check_pearson(analysis_dir, n_speakers=None):
    """Pearson r and p over speaker_scores against scipy.stats.pearsonr.

    With ``n_speakers`` every speaker must have been scored; without it the
    report may skip speakers whose pairs were all filtered out.
    """
    with open(f"{analysis_dir}/report.json") as fh:
        report = json.load(fh)
    scores = report["speaker_scores"]
    corr = report["correlation"]
    if n_speakers is not None and len(scores) != n_speakers:
        return False, f"{len(scores)} of {n_speakers} speakers scored"
    if len(scores) < 3:
        return corr is None, f"{len(scores)} speakers scored, correlation {corr}"
    if corr is None:
        return False, f"{len(scores)} speakers scored but no correlation"
    spk = sorted(scores)
    r, p = stats.pearsonr(
        [scores[s]["imitation_ability"] for s in spk],
        [scores[s]["convergence_degree"] for s in spk],
    )
    ok = (
        corr["n"] == len(spk)
        and math.isclose(corr["r"], r, rel_tol=1e-9, abs_tol=1e-12)
        and math.isclose(corr["p"], p, rel_tol=1e-6, abs_tol=1e-12)
    )
    return ok, f"r {corr['r']:.6f} vs {r:.6f}, p {corr['p']:.3e} vs {p:.3e}, n {corr['n']}"


def check_convergence_direction(analysis_dir):
    """Interactive dyads grow closer than solo ones; speakers drift from solo."""
    with open(f"{analysis_dir}/report.json") as fh:
        st = json.load(fh)["condition_stats"]
    try:
        pick = [
            st[c][rel]["mean"] for c, rel in (
                ("solo", "intra_dyad"), ("interactive", "intra_dyad"),
                ("solo", "intra_speaker"), ("interactive", "intra_speaker_vs_solo"),
            )
        ]
    except (KeyError, TypeError):
        return False, f"missing condition statistics: {st}"
    dyad_solo, dyad_inter, spk_solo, spk_inter = pick
    ok = dyad_inter > dyad_solo and spk_inter < spk_solo
    return ok, (
        f"intra-dyad solo {dyad_solo:.4f} < interactive {dyad_inter:.4f}; "
        f"intra-speaker solo {spk_solo:.4f} > interactive vs solo {spk_inter:.4f}"
    )
