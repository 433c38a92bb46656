"""Corpus manifests, labeled pair construction, and synthetic corpora.

A manifest lists speakers, the dyads they interact in, and per-utterance
metadata.  Pairs for the speaker-verification task are built from it:
same-speaker pairs are positive, cross-speaker pairs within a dyad are
negative.  A deterministic synthetic-speech generator provides desk-scale
corpora with a controllable convergence parameter.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import os
import reprlib
import wave
from dataclasses import MISSING, dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .dsp import PIPELINE_RATE
from .errors import (
    DataError, ManifestError, check_name, check_numeric_fields, check_seed, read_json,
    run_split,
)

CONDITIONS = ("solo", "interactive", "imitation")

SCRIPT_SENTENCES = 80

# speaker ids and keys (speaker id + "__condition__session__NNN") become
# feature file names, so each must stay one short path component
MAX_ID_CHARS = 64
MAX_KEY_CHARS = 128


@dataclass(frozen=True)
class Utterance:
    speaker_id: str
    condition: str
    session: int
    sentence_index: int
    audio_path: str | None = None

    @functools.cached_property
    def key(self) -> str:
        """Formatted on first use and kept: pair building and scoring read it
        hundreds of thousands of times at paper scale."""
        return f"{self.speaker_id}__{self.condition}__{self.session}__{self.sentence_index:03d}"


class PairExample(NamedTuple):
    """One labelled pair of utterance keys: one entry of a pairs file."""

    left: str
    right: str
    label: int  # 1 = same speaker, 0 = different speakers (one dyad)
    condition: str


@dataclass
class Manifest:
    speakers: list[str]  # speaker ids
    dyads: list[tuple[str, str]]
    utterances: list[Utterance]
    root: str | None = None  # directory the relative paths hang off

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for s in self.speakers:  # "__" separates the fields of a key
            check_name(s, "speaker id", MAX_ID_CHARS, ManifestError, banned=("__",))
        known = set(self.speakers)
        if len(known) != len(self.speakers):
            raise ManifestError("duplicate speaker id")
        seen_in_dyad: set[str] = set()
        for a, b in self.dyads:
            if a == b:
                raise ManifestError(f"dyad members must be distinct: {reprlib.repr(a)}")
            for s in (a, b):
                if s not in known:
                    raise ManifestError(f"dyad references unknown speaker {reprlib.repr(s)}")
                if s in seen_in_dyad:
                    raise ManifestError(f"speaker in multiple dyads: {reprlib.repr(s)}")
                seen_in_dyad.add(s)
        missing = known - seen_in_dyad
        if missing:
            raise ManifestError(f"speaker in no dyad: {reprlib.repr(sorted(missing))}")

        keys = set()
        solo_sessions: dict[str, set[int]] = {}
        for u in self.utterances:
            if u.speaker_id not in known:
                raise ManifestError(f"utterance references unknown speaker {reprlib.repr(u.speaker_id)}")
            if u.condition not in CONDITIONS:
                raise ManifestError(f"unknown condition {reprlib.repr(u.condition)}")
            if not 1 <= u.sentence_index <= SCRIPT_SENTENCES:
                raise ManifestError(
                    f"sentence_index {reprlib.repr(u.sentence_index)} "
                    f"outside script range 1-{SCRIPT_SENTENCES}"
                )
            k = (u.speaker_id, u.condition, u.session, u.sentence_index)
            if k in keys:
                raise ManifestError(f"duplicate utterance: {reprlib.repr(k)}")
            keys.add(k)
            if u.condition == "solo":
                solo_sessions.setdefault(u.speaker_id, set()).add(u.session)
        for spk, sessions in solo_sessions.items():
            if len(sessions) != 1:
                raise ManifestError(f"solo utterances of {reprlib.repr(spk)} span multiple sessions")

    def resolve(self, path: str) -> str:
        if self.root is None or os.path.isabs(path):
            return path
        return os.path.join(self.root, path)


def _typed(value, kind: type, what: str):
    """``value`` if it is a ``kind``; a bool does not count as an int."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ManifestError(f"{what} must be of type {kind.__name__}, got {reprlib.repr(value)}")
    return value


def _record(cls, obj, what: str):
    """A ``cls`` from a JSON object whose fields hold their annotated types."""
    obj = _typed(obj, dict, what)
    return cls(**{
        f.name: _typed(obj[f.name], int if f.type == "int" else str, f"{what} {f.name}")
        for f in fields(cls)
        if obj.get(f.name) is not None or f.default is MISSING
    })


def load_manifest(path: str | os.PathLike) -> Manifest:
    """Load and validate a JSON manifest; paths stay relative to its directory."""
    doc = read_json(path, "manifest", ManifestError)
    try:
        doc = _typed(doc, dict, "manifest")
        speakers = [
            _typed(_typed(s, dict, "speaker")["id"], str, "speaker id")
            for s in _typed(doc["speakers"], list, "speakers")
        ]
        dyads = []
        for d in _typed(doc["dyads"], list, "dyads"):
            if len(_typed(d, list, "dyad")) != 2:
                raise ManifestError(f"dyad must list two speaker ids, got {reprlib.repr(d)}")
            dyads.append(tuple(_typed(s, str, "dyad member") for s in d))
        utterances = [
            _record(Utterance, u, "utterance")
            for u in _typed(doc["utterances"], list, "utterances")
        ]
        return Manifest(
            speakers=speakers,
            dyads=dyads,
            utterances=utterances,
            root=os.path.dirname(os.path.abspath(path)),
        )
    except KeyError as exc:
        raise ManifestError(f"malformed manifest {path}: missing field {exc}") from None
    except ManifestError as exc:
        raise ManifestError(f"malformed manifest {path}: {exc}") from None


def save_manifest(m: Manifest, path: str | os.PathLike) -> None:
    """Write ``m`` as JSON, each utterance as those of its ``fields`` that are set."""
    doc = {
        "speakers": [{"id": s} for s in m.speakers],
        "dyads": [list(d) for d in m.dyads],
        "utterances": [
            {f.name: v for f in fields(Utterance) if (v := getattr(u, f.name)) is not None}
            for u in m.utterances
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


# every pair builder reads its utterances in this order
_ORDER = operator.attrgetter("speaker_id", "session", "sentence_index")


def _select(m: Manifest, condition: str, sessions: list[int]) -> list[Utterance]:
    """The utterances of the interactive or imitation ``condition`` in
    ``sessions``, ordered by speaker, session and sentence."""
    if condition not in ("interactive", "imitation"):
        raise DataError(f"condition must be interactive or imitation, got {condition!r}")
    chosen = set(sessions)
    utts = [u for u in m.utterances if u.condition == condition and u.session in chosen]
    return sorted(utts, key=_ORDER)


def _solo(m: Manifest, lo: int, hi: int) -> list[Utterance]:
    """The solo utterances of sentences ``lo`` to ``hi``, in ``_select``'s order."""
    utts = [u for u in m.utterances if u.condition == "solo" and lo <= u.sentence_index <= hi]
    return sorted(utts, key=_ORDER)


def build_solo_pairs(m: Manifest, sentence_lo: int, sentence_hi: int) -> list[PairExample]:
    """Labeled pairs from the solo condition over a sentence range.

    Positives: all unordered distinct-sentence pairs per speaker.
    Negatives: all cross-speaker sentence combinations per dyad, including
    equal sentence indices.  Raises ``DataError`` when the range gives no
    pairs.
    """
    if sentence_lo > sentence_hi:
        raise DataError(f"empty sentence range {sentence_lo}:{sentence_hi}")
    solo = _solo(m, sentence_lo, sentence_hi)
    by_speaker = {spk: list(g) for spk, g in itertools.groupby(solo, key=lambda u: u.speaker_id)}
    pairs = [
        PairExample(a.key, b.key, 1, "solo")
        for utts in by_speaker.values()
        for a, b in itertools.combinations(utts, 2)
    ]
    for a, b in m.dyads:
        left, right = by_speaker.get(a, []), by_speaker.get(b, [])
        pairs += [PairExample(ua.key, ub.key, 0, "solo") for ua in left for ub in right]
    if not pairs:
        raise DataError(f"no solo pairs in sentence range {sentence_lo}:{sentence_hi}")
    return pairs


def build_condition_pairs(
    m: Manifest, condition: str, sessions: list[int]
) -> list[PairExample]:
    """Labeled pairs for the interactive or imitation condition.

    Positives: consecutive utterances by the same speaker within one session,
    ordered by sentence index.  Negatives: the same sentence index produced by
    both dyad members, within or across the chosen sessions.  Raises
    ``DataError`` naming every chosen session without utterances of
    ``condition``.
    """
    utts = _select(m, condition, sessions)
    missing = sorted(set(sessions) - {u.session for u in utts})
    if not utts or missing:
        raise DataError(f"no utterances for condition {condition!r} in sessions {missing}")

    pairs = [
        PairExample(a.key, b.key, 1, condition)
        for a, b in zip(utts, utts[1:])
        if (a.speaker_id, a.session) == (b.speaker_id, b.session)
    ]
    by_spk_sent: dict[tuple[str, int], list[Utterance]] = {}
    for u in utts:
        by_spk_sent.setdefault((u.speaker_id, u.sentence_index), []).append(u)
    for a, b in m.dyads:
        for s in range(1, SCRIPT_SENTENCES + 1):
            left, right = by_spk_sent.get((a, s), []), by_spk_sent.get((b, s), [])
            pairs += [PairExample(ua.key, ub.key, 0, condition) for ua in left for ub in right]
    return pairs


def cross_condition_pairs(
    m: Manifest, condition: str, sessions: list[int], sentence_lo: int, sentence_hi: int
) -> list[PairExample]:
    """Same speaker, same sentence: the solo baseline of sentences
    ``sentence_lo`` to ``sentence_hi`` against a later condition.

    These same-speaker pairs measure how far a speaker drifts from their own
    solo baseline; the pair carries the later condition's tag.
    """
    solo = {(u.speaker_id, u.sentence_index): u for u in _solo(m, sentence_lo, sentence_hi)}
    return [
        PairExample(base.key, u.key, 1, condition)
        for u in _select(m, condition, sessions)
        if (base := solo.get((u.speaker_id, u.sentence_index))) is not None
    ]


# ---------------------------------------------------------------------------
# synthetic corpus generation


@dataclass(frozen=True)
class SynthConfig:
    n_speakers: int = 4
    n_sentences: int = 20
    lam: float = 0.0  # convergence strength of the second dyad member
    interactive_sessions: int = 2

    def __post_init__(self):
        check_numeric_fields(self)
        if not 1 <= self.n_sentences <= SCRIPT_SENTENCES:
            raise DataError(
                f"sentence count must lie in 1-{SCRIPT_SENTENCES}, got {self.n_sentences}"
            )
        if self.interactive_sessions < 0:
            raise DataError("interactive session count must be >= 0")
        if self.n_speakers % 2 != 0 or self.n_speakers < 2:
            raise DataError(f"speaker count must be even and >= 2, got {self.n_speakers}")
        if not 0.0 <= self.lam <= 1.0:
            raise DataError(f"convergence parameter must lie in [0, 1], got {self.lam}")


# readings of one sentence synthesized together; larger batches raise peak
# memory for little speed
SYNTH_ROWS = 32

N_VOWELS = 3  # vowel qualities per speaker; each sentence reads every one twice
_FORMANT_RANGES = ((300.0, 900.0), (1100.0, 2200.0), (2500.0, 3600.0))
_FORMANT_GAINS = (1.0, 0.7, 0.5)
_FORMANT_BW = 70.0


def speaker_vowels(seed: int, speaker_idx: int) -> np.ndarray:
    """Per-speaker spectral signature: (N_VOWELS, 3) formant peak frequencies."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, speaker_idx]))
    cols = [rng.uniform(lo, hi, size=N_VOWELS) for lo, hi in _FORMANT_RANGES]
    return np.stack(cols, axis=1)


@dataclass(frozen=True)
class SpeakerTraits:
    """The acoustic habits that identify one synthetic speaker.

    ``vowels`` is the (N_VOWELS, 3) formant-peak matrix.  ``mod_rate`` is a
    syllable-like amplitude-modulation rate in Hz.  ``ramp`` is the
    within-segment loudness slope: positive speakers swell into each vowel,
    negative speakers decay out of it.  The dynamic traits matter because
    per-utterance feature normalization is affine per dimension: it erases
    any cue that is constant over the utterance, but leaves temporal shape
    (modulation frequency, sign of the energy slope) intact.
    """

    vowels: np.ndarray
    mod_rate: float
    ramp: float


def speaker_traits(seed: int, speaker_idx: int) -> SpeakerTraits:
    """Deterministic traits: dyad members get contrasting dynamics.

    First dyad members speak with slow modulation and a rising segment
    ramp, second members with fast modulation and a falling ramp, so both
    dynamic cues are well separated within every dyad.
    """
    pair = speaker_idx // 2
    if speaker_idx % 2 == 0:
        rate, ramp = 3.0 + 0.4 * (pair % 4), 0.8
    else:
        rate, ramp = 6.5 + 0.4 * (pair % 4), -0.8
    return SpeakerTraits(vowels=speaker_vowels(seed, speaker_idx), mod_rate=rate, ramp=ramp)


def effective_traits(own: SpeakerTraits, partner: SpeakerTraits, lam: float) -> SpeakerTraits:
    """Traits of a converging speaker in the interactive/imitation conditions.

    The envelope, modulation rate, and ramp are all pulled toward the
    partner: trait = (1 - lam) * own + lam * partner.
    """
    return SpeakerTraits(
        vowels=(1.0 - lam) * own.vowels + lam * partner.vowels,
        mod_rate=(1.0 - lam) * own.mod_rate + lam * partner.mod_rate,
        ramp=(1.0 - lam) * own.ramp + lam * partner.ramp,
    )


def _sentence_content(seed: int, sentence: int) -> tuple[np.ndarray, np.ndarray]:
    """Vowel order and segment durations of one script sentence.

    Content is a property of the sentence alone, shared by every speaker
    who reads it, the way a script line fixes the phone sequence; speaker
    identity enters only through the spectral envelopes.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5E17, sentence]))
    # balanced schedule: every vowel appears once per round, shuffled
    order = np.concatenate([rng.permutation(N_VOWELS) for _ in range(2)])
    durations = rng.uniform(0.07, 0.09, size=len(order))
    return order, durations


def _synth_sentence(
    traits: list[SpeakerTraits],
    rngs: list[np.random.Generator],
    order: np.ndarray,
    durations: np.ndarray,
) -> np.ndarray:
    """One script sentence read with each row's traits: (rows, samples).

    The rows share the sentence's segment lengths, so each segment is one
    2-D FFT.  Row r draws from ``rngs[r]`` alone, in the order of a lone
    utterance (per segment the peak jitters, then the noise; then the
    modulation phase), so its samples do not depend on its batch.
    """
    sr = PIPELINE_RATE
    vowels = np.stack([t.vowels for t in traits])  # (rows, N_VOWELS, 3)
    ramps = np.array([[t.ramp] for t in traits])
    rates = np.array([[t.mod_rate] for t in traits])
    x = np.empty((len(rngs), sum(int(dur * sr) for dur in durations)))
    start = 0
    for vi, dur in zip(order, durations):
        n = int(dur * sr)
        jitter = np.empty((len(rngs), vowels.shape[2]))
        seg = x[:, start : start + n]
        start += n
        for row, rng in enumerate(rngs):
            jitter[row] = rng.normal(0.0, 0.01, size=jitter.shape[1])
            seg[row] = rng.standard_normal(n)
        peaks = vowels[:, vi] * (1.0 + jitter)
        freqs = np.fft.rfftfreq(n, d=1.0 / sr)
        env = np.full((len(rngs), len(freqs)), 0.02)
        for k, gain in enumerate(_FORMANT_GAINS):
            env += gain * np.exp(-0.5 * ((freqs - peaks[:, k, None]) / _FORMANT_BW) ** 2)
        seg[...] = np.fft.irfft(np.fft.rfft(seg) * env, n)
        # speaker-signed loudness slope across the segment (swell vs decay)
        tau = np.arange(n) / max(n - 1, 1)
        seg *= 1.0 + ramps * (tau - 0.5)
        fade = min(int(0.005 * sr), n // 2)
        edge = np.linspace(0.0, 1.0, fade)
        seg[:, :fade] *= edge
        seg[:, -fade:] *= edge[::-1]
    # speaker-rate amplitude modulation spanning the whole utterance
    t = np.arange(x.shape[1]) / sr
    phases = np.array([[rng.uniform(0.0, 2.0 * np.pi)] for rng in rngs])
    mod = 2.0 * np.pi * rates * t + phases
    x *= 1.0 + 0.3 * np.sin(mod, out=mod)
    peak = np.max(np.abs(x), axis=1, keepdims=True)
    return np.divide(0.5 * x, peak, out=x, where=peak > 0)


def _write_wav(path: str, x: np.ndarray) -> None:
    pcm = np.clip(np.round(x * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(path, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(PIPELINE_RATE)
        fh.writeframes(pcm.tobytes())


def generate_synthetic_corpus(
    config: SynthConfig, seed: int, out_dir: str | os.PathLike
) -> Manifest:
    """Generate a deterministic pseudo-speech corpus plus its manifest.

    Each speaker is a fixed set of resonance-peak envelopes exciting filtered
    noise, delivered at a speaker-specific amplitude-modulation rate.  In the
    interactive and imitation conditions the second member of each dyad speaks
    with envelope and rate interpolated toward the partner by the convergence
    parameter ``lam``.  Identical (config, seed) gives byte-identical output:
    each WAV draws from its own seed sequence, so it does not matter which
    readings of its sentence share its batch, or which process ``run_split``
    gives that batch to.
    """
    check_seed(seed)
    out_dir = str(out_dir)
    audio_dir = os.path.join(out_dir, "audio")
    os.makedirs(audio_dir, exist_ok=True)

    speakers = [f"S{i + 1:02d}" for i in range(config.n_speakers)]
    dyads = [(speakers[i], speakers[i + 1]) for i in range(0, config.n_speakers, 2)]
    traits = [speaker_traits(seed, i) for i in range(config.n_speakers)]

    sessions = range(1, config.interactive_sessions + 1)
    schedule = [("solo", 1), *(("interactive", k) for k in sessions), ("imitation", 1)]

    utterances = []
    readings = [[] for _ in range(config.n_sentences)]  # (traits, seed entropy, WAV path)
    cond_index = {c: i for i, c in enumerate(CONDITIONS)}
    for si, spk in enumerate(speakers):
        for condition, session in schedule:
            spk_traits = traits[si]
            if condition != "solo" and si % 2 == 1:  # converges toward the first member
                spk_traits = effective_traits(spk_traits, traits[si - 1], config.lam)
            for sentence in range(1, config.n_sentences + 1):
                u = Utterance(spk, condition, session, sentence)
                u = replace(u, audio_path=os.path.join("audio", u.key + ".wav"))
                utterances.append(u)
                entropy = [seed, si, cond_index[condition], session, sentence]
                readings[sentence - 1].append(
                    (spk_traits, entropy, os.path.join(out_dir, u.audio_path))
                )

    # one task per batch of a sentence's readings; equal batches keep the
    # two processes of run_split equally loaded
    tasks = []
    for sentence, rows in enumerate(readings, start=1):
        k = -(-len(rows) // SYNTH_ROWS)
        bounds = [i * len(rows) // k for i in range(k + 1)]
        tasks += [(sentence, rows[a:b]) for a, b in zip(bounds, bounds[1:])]

    def write(task):
        sentence, rows = task
        spk_traits, entropies, paths = zip(*rows)
        rngs = [np.random.default_rng(np.random.SeedSequence(e)) for e in entropies]
        x = _synth_sentence(spk_traits, rngs, *_sentence_content(seed, sentence))
        for path, samples in zip(paths, x):
            _write_wav(path, samples)

    manifest = Manifest(
        speakers=speakers, dyads=dyads, utterances=utterances, root=out_dir
    )
    run_split(write, tasks)
    save_manifest(manifest, os.path.join(out_dir, "manifest.json"))
    return manifest
