"""Spans around phonosim's public functions, and the per-layer metrics they give.

The tracer replaces every public module-level function of the six phonosim
modules with a wrapper that records one span (name, start, end, parent,
phase) per call.  A name bound elsewhere with ``from ... import`` is a
separate binding (``analysis.score_similarities`` is not
``train.score_similarities``), so every binding of a wrapped function in
any of the six modules is replaced too.  Spans stay in memory until the run
ends.  A few wrappers also attach counts taken from the call's arguments or
result, so that ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time

LAYERS = ("corpus", "dsp", "net", "train", "analysis", "cli")


def _probe_load_audio(args, kwargs, result):
    return {"audio_s": len(result.samples) / result.sample_rate}


def _probe_compute_mfcc(args, kwargs, result):
    return {"frames": result.n_frames}


def _probe_pairs(args, kwargs, result):
    return {"pairs": len(result)}


def _probe_fwdbwd(args, kwargs, result):
    # _pack pads every row of the batch (both Siamese branches) to the
    # batch's longest utterance; both directions step over that length.
    lefts, rights = args[1], args[2]
    lengths = [f.shape[0] for f in lefts] + [f.shape[0] for f in rights]
    return {"frame_steps": len(lengths) * max(lengths), "true_frames": sum(lengths)}


def _probe_embed_all(args, kwargs, result):
    return {"keys": list(result)}


PROBES = {
    "dsp.load_audio": _probe_load_audio,
    "dsp.compute_mfcc": _probe_compute_mfcc,
    "corpus.build_solo_pairs": _probe_pairs,
    "corpus.build_condition_pairs": _probe_pairs,
    "analysis.score_pairs": _probe_pairs,
    "analysis.filter_scores": _probe_pairs,
    "train.pair_forward_backward": _probe_fwdbwd,
    "train.embed_all": _probe_embed_all,
}


class Tracer:
    """In-memory span recorder; ``phase`` tags spans with the run phase."""

    def __init__(self):
        self.spans: list[dict] = []
        self.phase = "setup"
        self._stack: list[int] = []

    def record(self, name: str, fn, args=(), kwargs=None, probe=None):
        kwargs = kwargs or {}
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = {"name": name, "index": index, "parent": parent, "phase": self.phase}
        self.spans.append(span)
        self._stack.append(index)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if probe is not None:
            span["counts"] = probe(args, kwargs, result)
        return result

    def _wrap(self, qualname: str, fn):
        probe = PROBES.get(qualname)
        if qualname == "cli.main":
            @functools.wraps(fn)
            def wrapper(argv):
                return self.record(f"cli.{argv[0]}", fn, (argv,))
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.record(qualname, fn, args, kwargs, probe)
        return wrapper

    def install(self, package) -> None:
        """Wrap the public functions of the six layers and every binding of them."""
        modules = {name: getattr(package, name) for name in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])


# ---------------------------------------------------------------------------
# per-layer metrics

PER_LAYER = (
    ("cli.import_s", "s"), ("cli.features_s", "s"), ("cli.pairs_s", "s"),
    ("cli.train_s", "s"), ("cli.eval_s", "s"), ("cli.analyze_s", "s"),
    ("corpus.synth_s", "s"), ("corpus.manifest_s", "s"), ("corpus.pairs_s", "s"),
    ("corpus.pairs_built", "count"),
    ("dsp.load_audio_s", "s"), ("dsp.mfcc_s", "s"), ("dsp.deltas_s", "s"),
    ("dsp.cmvn_s", "s"), ("dsp.write_s", "s"), ("dsp.read_s", "s"),
    ("dsp.utterances", "count"), ("dsp.frames", "count"), ("dsp.audio_s", "audio_s"),
    ("train.fwdbwd_s", "s"), ("train.adam_s", "s"), ("train.validate_s", "s"),
    ("train.batches", "count"), ("train.frame_steps", "count"),
    ("train.useful_frame_ratio", "ratio"),
    ("train.embed_s", "s"), ("train.embed_calls", "count"),
    ("train.embeddings", "count"), ("train.score_s", "s"), ("train.metrics_s", "s"),
    ("net.checkpoint_s", "s"),
    ("analysis.report_s", "s"), ("analysis.filter_s", "s"), ("analysis.emit_s", "s"),
    ("analysis.pairs_scored", "count"), ("analysis.pairs_kept", "count"),
    ("analysis.embed_reuse_ratio", "ratio"),
)


def _layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics over one list of spans (setup plus one round)."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def total(*names):
        return sum(dur(s) for n in names for s in by_name.get(n, ()))

    def count(name, key):
        return sum(s["counts"][key] for s in by_name.get(name, ()))

    def self_time(name):
        return sum(
            dur(s) - sum(dur(c) for c in children.get(s["index"], ()))
            for s in by_name.get(name, ())
        )

    index = {s["index"]: s for s in spans}
    fwdbwd = by_name.get("train.pair_forward_backward", ())
    frame_steps = sum(s["counts"]["frame_steps"] for s in fwdbwd)
    true_frames = sum(s["counts"]["true_frames"] for s in fwdbwd)
    embeds = by_name.get("train.embed_all", ())
    report_keys: dict[int, list[str]] = {}
    for e in embeds:
        report = _ancestor(e, index, "analysis.build_report")
        if report is not None:
            report_keys.setdefault(report["index"], []).extend(e["counts"]["keys"])
    unique = sum(len(set(keys)) for keys in report_keys.values())
    computed = sum(len(keys) for keys in report_keys.values())

    return {
        "cli.import_s": total("cli.import"),
        "cli.features_s": total("cli.features"),
        "cli.pairs_s": total("cli.pairs"),
        "cli.train_s": total("cli.train"),
        "cli.eval_s": total("cli.eval"),
        "cli.analyze_s": total("cli.analyze"),
        "corpus.synth_s": total("corpus.generate_synthetic_corpus"),
        "corpus.manifest_s": total("corpus.load_manifest", "corpus.save_manifest"),
        "corpus.pairs_s": total("corpus.build_solo_pairs", "corpus.build_condition_pairs"),
        "corpus.pairs_built": count("corpus.build_solo_pairs", "pairs")
        + count("corpus.build_condition_pairs", "pairs"),
        "dsp.load_audio_s": total("dsp.load_audio"),
        "dsp.mfcc_s": total("dsp.compute_mfcc"),
        "dsp.deltas_s": total("dsp.append_deltas"),
        "dsp.cmvn_s": total("dsp.cmvn"),
        "dsp.write_s": total("dsp.write_features"),
        "dsp.read_s": total("dsp.read_features"),
        "dsp.utterances": len(by_name.get("dsp.compute_mfcc", ())),
        "dsp.frames": count("dsp.compute_mfcc", "frames"),
        "dsp.audio_s": count("dsp.load_audio", "audio_s"),
        "train.fwdbwd_s": total("train.pair_forward_backward"),
        "train.adam_s": total("train.adam_step"),
        "train.validate_s": sum(
            dur(s) for s in by_name.get("train.evaluate", ())
            if _ancestor(s, index, "train.train") is not None
        ),
        "train.batches": len(fwdbwd),
        "train.frame_steps": frame_steps,
        "train.useful_frame_ratio": true_frames / frame_steps if frame_steps else 0.0,
        "train.embed_s": total("train.embed_all"),
        "train.embed_calls": len(embeds),
        "train.embeddings": sum(len(e["counts"]["keys"]) for e in embeds),
        "train.score_s": self_time("train.score_similarities"),
        "train.metrics_s": total("train.metrics_from_scores"),
        "net.checkpoint_s": total("net.save_checkpoint", "net.load_checkpoint"),
        "analysis.report_s": self_time("analysis.build_report"),
        "analysis.filter_s": total("analysis.filter_scores"),
        "analysis.emit_s": total("analysis.emit_report"),
        "analysis.pairs_scored": count("analysis.score_pairs", "pairs"),
        "analysis.pairs_kept": count("analysis.filter_scores", "pairs"),
        "analysis.embed_reuse_ratio": unique / computed if computed else 0.0,
    }


def _ancestor(span, index, name):
    """The nearest ancestor of ``span`` called ``name``."""
    while span["parent"] is not None:
        span = index[span["parent"]]
        if span["name"] == name:
            return span
    return None


def per_layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Setup spans plus each round's spans, as the median over rounds."""
    setup = [s for s in spans if s["phase"] == "setup"]
    rounds = sorted({s["phase"] for s in spans if isinstance(s["phase"], int)})
    per_round = [
        _layer_metrics(setup + [s for s in spans if s["phase"] == r]) for r in rounds
    ]
    return {
        name: statistics.median(m[name] for m in per_round) for name, _ in PER_LAYER
    }
