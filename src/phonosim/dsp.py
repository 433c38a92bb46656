"""Audio ingestion and the 39-dimensional MFCC feature pipeline.

Audio goes in as PCM WAV, comes out as per-utterance feature matrices:
13 static MFCCs + 13 deltas + 13 delta-deltas, optionally CMVN-normalized,
persisted in a small binary format (magic ``ARTF``).
"""

from __future__ import annotations

import functools
import math
import os
import reprlib
import struct
import wave
from dataclasses import dataclass

import numpy as np

from .errors import AudioError, DataError, FeatureIOError, check_numeric_fields

PIPELINE_RATE = 16000

FEATURE_MAGIC = b"ARTF"


@dataclass(frozen=True)
class MfccConfig:
    sample_rate: int = PIPELINE_RATE
    window: float = 0.025
    hop: float = 0.010
    n_fft: int = 512
    n_mels: int = 40
    n_ceps: int = 13
    preemphasis: float = 0.97
    fmin: float = 0.0
    fmax: float = 8000.0
    log_floor: float = 1e-10
    delta_window: int = 4

    def __post_init__(self):
        # mel_filterbank and the DCT basis are cached by config, so a value
        # that cannot produce features must fail here, before it is cached
        check_numeric_fields(self)
        try:
            sizes = (
                self.sample_rate, self.n_fft, self.n_mels, self.n_ceps,
                self.window_samples, self.hop_samples, self.delta_window,
            )
        except OverflowError:
            raise DataError("MFCC window or hop is too long")
        if min(sizes) < 1:
            raise DataError(
                "MFCC sample_rate, n_fft, n_mels, n_ceps, window, hop and "
                "delta_window must each be at least one (sample)"
            )
        if self.n_ceps > self.n_mels:
            raise DataError(f"n_ceps {self.n_ceps} exceeds n_mels {self.n_mels}")
        if self.window_samples > self.n_fft:
            raise DataError(
                f"window of {self.window_samples} samples exceeds n_fft {self.n_fft}"
            )
        if not 0 <= self.fmin < self.fmax <= self.sample_rate / 2:
            raise DataError(
                f"need 0 <= fmin < fmax <= {self.sample_rate / 2:g} Hz (Nyquist), "
                f"got fmin {self.fmin}, fmax {self.fmax}"
            )
        if self.log_floor <= 0:
            raise DataError("log_floor must be > 0")

    @property
    def window_samples(self) -> int:
        return int(round(self.window * self.sample_rate))

    @property
    def hop_samples(self) -> int:
        return int(round(self.hop * self.sample_rate))


@dataclass(frozen=True)
class Waveform:
    samples: np.ndarray  # float64, mono, in [-1, 1]
    sample_rate: int


@dataclass(frozen=True)
class FeatureMatrix:
    frames: np.ndarray  # (T, d) float64; float32 as read from a feature file

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


def frame_count(n_samples: int, window_samples: int, hop_samples: int) -> int:
    """Number of analysis frames for a signal of ``n_samples``."""
    if n_samples < window_samples:
        raise AudioError(
            "audio shorter than one window "
            f"({n_samples} < {window_samples} samples)"
        )
    return 1 + (n_samples - window_samples) // hop_samples


def resample_linear(x: np.ndarray, rate_in: int, rate_out: int) -> np.ndarray:
    """Resample by linear interpolation over the original sample grid."""
    if rate_in == rate_out:
        return x
    n_in = len(x)
    n_out = (n_in - 1) * rate_out // rate_in + 1
    pos = np.arange(n_out) * (rate_in / rate_out)
    return np.interp(pos, np.arange(n_in), x)


def _read_pcm16(path: str | os.PathLike):
    """``(rate, data)`` of a 16-bit PCM WAV, shaped as ``scipy.io.wavfile``
    gives it, read with stdlib ``wave``; None for any other file."""
    try:
        with wave.open(os.fspath(path), "rb") as fh:
            if fh.getsampwidth() != 2:
                return None
            data = np.frombuffer(fh.readframes(fh.getnframes()), dtype="<i2")
            channels = fh.getnchannels()
            if channels > 1:
                data = data.reshape(-1, channels)
            return fh.getframerate(), data
    except (OSError, EOFError, ValueError, struct.error, wave.Error):
        return None


def load_audio(path: str | os.PathLike) -> Waveform:
    """Load a PCM WAV file as a mono waveform at the pipeline rate.

    Stereo channels are averaged; integer samples are scaled to [-1, 1];
    other sample rates are brought to 16 kHz by linear interpolation.
    """
    read = _read_pcm16(path)
    if read is None:
        # stdlib wave cannot read float or 24-bit WAVs; SciPy is imported
        # here so that reading 16-bit PCM does not load it
        from scipy.io import wavfile

        try:
            read = wavfile.read(path)
        except FileNotFoundError:
            raise
        except Exception as exc:
            raise AudioError(f"unsupported codec or corrupt WAV: {path}: {exc}")
    rate, data = read
    if data.size == 0:
        raise AudioError(f"zero-length audio: {path}")
    if data.dtype == np.int16:
        x = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        x = data.astype(np.float64) / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        x = data.astype(np.float64)
    elif data.dtype == np.uint8:
        x = (data.astype(np.float64) - 128.0) / 128.0
    else:
        raise AudioError(f"unsupported sample format {data.dtype}: {path}")
    if x.ndim == 2:
        x = x.mean(axis=1)
    x = resample_linear(x, rate, PIPELINE_RATE)
    np.clip(x, -1.0, 1.0, out=x)
    return Waveform(samples=x, sample_rate=PIPELINE_RATE)


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=8)
def mel_filterbank(cfg: MfccConfig) -> np.ndarray:
    """Triangular mel filterbank, shape (n_mels, n_fft // 2 + 1).

    Built once per config; every caller gets the same read-only array.
    """
    mel_pts = np.linspace(_hz_to_mel(cfg.fmin), _hz_to_mel(cfg.fmax), cfg.n_mels + 2)
    hz_pts = _mel_to_hz(mel_pts)
    bins = np.fft.rfftfreq(cfg.n_fft, d=1.0 / cfg.sample_rate)
    fb = np.zeros((cfg.n_mels, len(bins)))
    for i in range(cfg.n_mels):
        lo, mid, hi = hz_pts[i], hz_pts[i + 1], hz_pts[i + 2]
        rise = (bins - lo) / (mid - lo)
        fall = (hi - bins) / (hi - mid)
        fb[i] = np.maximum(0.0, np.minimum(rise, fall))
    fb.flags.writeable = False
    return fb


@functools.lru_cache(maxsize=8)
def _dct_basis(n: int, k: int) -> np.ndarray:
    """The first ``k`` orthonormal DCT-II vectors over ``n`` points, as columns."""
    j = np.arange(k)
    basis = np.cos(np.pi / n * np.outer(np.arange(n) + 0.5, j))
    basis *= np.where(j == 0, math.sqrt(1.0 / n), math.sqrt(2.0 / n))
    basis.flags.writeable = False
    return basis


def compute_mfcc(w: Waveform, cfg: MfccConfig | None = None) -> FeatureMatrix:
    """Static 13-coefficient MFCCs on a 25 ms window with a 10 ms hop.

    Pipeline: pre-emphasis, Hann window, magnitude FFT, mel filterbank,
    log (floored), DCT-II (ortho), keep coefficients 0-12.  Raises
    ``DataError`` when ``cfg.sample_rate`` is not the waveform's rate.
    """
    cfg = cfg or MfccConfig(sample_rate=w.sample_rate)
    if cfg.sample_rate != w.sample_rate:
        raise DataError(
            f"MFCC config is for {cfg.sample_rate} Hz audio, "
            f"waveform is {w.sample_rate} Hz"
        )
    win = cfg.window_samples
    hop = cfg.hop_samples
    n = frame_count(len(w.samples), win, hop)

    x = w.samples
    emph = np.concatenate(([x[0]], x[1:] - cfg.preemphasis * x[:-1]))
    idx = np.arange(win)[None, :] + hop * np.arange(n)[:, None]
    frames = emph[idx] * np.hanning(win)

    spec = np.abs(np.fft.rfft(frames, n=cfg.n_fft, axis=1))
    fb = mel_filterbank(cfg)
    energies = np.log(np.maximum(spec @ fb.T, cfg.log_floor))
    ceps = energies @ _dct_basis(cfg.n_mels, cfg.n_ceps)
    return FeatureMatrix(frames=ceps)


def _delta(c: np.ndarray, n: int) -> np.ndarray:
    # standard regression estimate over a +-n frame window, edges replicated
    t = c.shape[0]
    denom = 2.0 * sum(i * i for i in range(1, n + 1))
    padded = np.pad(c, ((n, n), (0, 0)), mode="edge")
    d = np.zeros_like(c)
    for i in range(1, n + 1):
        d += i * (padded[n + i : n + i + t] - padded[n - i : n - i + t])
    return d / denom


def append_deltas(f: FeatureMatrix, delta_window: int = 4) -> FeatureMatrix:
    """Append delta and delta-delta columns: [static | d | dd]."""
    c = f.frames
    d = _delta(c, delta_window)
    dd = _delta(d, delta_window)
    return FeatureMatrix(frames=np.hstack([c, d, dd]))


def cmvn(f: FeatureMatrix) -> FeatureMatrix:
    """Per-utterance, per-dimension zero mean / unit variance.

    Dimensions with stddev below 1e-10 are mean-subtracted only.
    """
    x = f.frames.astype(np.float64)
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    out = x - mu
    live = sd >= 1e-10
    out[:, live] /= sd[live]
    return FeatureMatrix(frames=out)


def write_features(f: FeatureMatrix | np.ndarray, path: str | os.PathLike) -> None:
    """Write a feature matrix: ``ARTF``, u32 rows, u32 cols, f32 row-major LE."""
    frames = f.frames if isinstance(f, FeatureMatrix) else np.asarray(f)
    rows, cols = frames.shape
    payload = np.ascontiguousarray(frames, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<II", rows, cols))
        fh.write(payload)


def read_features(path: str | os.PathLike) -> FeatureMatrix:
    """Read a feature matrix written by :func:`write_features` as read-only float32.

    Raises ``FeatureIOError`` for a malformed file or a NaN or infinite value.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != FEATURE_MAGIC:
        raise FeatureIOError(f"bad magic bytes in {path}")
    if len(blob) < 12:
        raise FeatureIOError(f"truncated header in {path}")
    rows, cols = struct.unpack("<II", blob[4:12])
    expected = 12 + 4 * rows * cols
    if len(blob) != expected:
        raise FeatureIOError(
            f"truncated payload in {path}: have {len(blob)} bytes, want {expected}"
        )
    frames = np.frombuffer(blob, dtype="<f4", offset=12).reshape(rows, cols)
    if not np.isfinite(frames).all():
        raise FeatureIOError(f"non-finite value in {path}")
    return FeatureMatrix(frames=frames)


class FeatureStore:
    """Lazy dictionary of utterance key -> its file's float32 feature frames."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = str(directory)
        self._cache: dict[str, np.ndarray] = {}

    def path_for(self, key: str) -> str:
        return os.path.join(self.directory, key + ".artf")

    def __getitem__(self, key: str) -> np.ndarray:
        if key not in self._cache:
            path = self.path_for(key)
            if not os.path.exists(path):
                raise FeatureIOError(f"missing feature file for utterance {reprlib.repr(key)}")
            self._cache[key] = read_features(path).frames
        return self._cache[key]

    def __contains__(self, key: str) -> bool:
        return key in self._cache or os.path.exists(self.path_for(key))
