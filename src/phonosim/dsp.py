"""Audio ingestion and the MFCC feature pipeline.

Audio goes in as PCM or IEEE-float WAV, comes out as per-utterance feature
matrices: ``N_CEPS`` (13) static MFCCs + as many deltas + as many
delta-deltas, 39 columns, CMVN-normalized, persisted in a small binary
format (magic ``ARTF``).  The front end has no settings.
"""

from __future__ import annotations

import functools
import math
import os
import reprlib
import struct
from dataclasses import dataclass

import numpy as np

from .errors import AudioError, DataError, FeatureIOError

PIPELINE_RATE = 16000
# lowest WAV rate read: resampling to PIPELINE_RATE then grows a file at most 16x
MIN_SAMPLE_RATE = 1000

FEATURE_MAGIC = b"ARTF"


# the front end is fixed: 25 ms Hann frames every 10 ms at PIPELINE_RATE,
# a 512-point FFT, 40 mel filters over 0-8 kHz, a floored log, the first
# 13 DCT-II coefficients, and regression deltas over +-DELTA_WINDOW frames
WINDOW_SAMPLES = 400
HOP_SAMPLES = 160
N_FFT = 512
N_MELS = 40
N_CEPS = 13
PREEMPHASIS = 0.97
FMIN = 0.0
FMAX = 8000.0
LOG_FLOOR = 1e-10
DELTA_WINDOW = 4


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


def resample_linear(x: np.ndarray, rate_in: int) -> np.ndarray:
    """Resample to ``PIPELINE_RATE`` by linear interpolation over the input's grid."""
    if rate_in == PIPELINE_RATE:
        return x
    n_in = len(x)
    n_out = (n_in - 1) * PIPELINE_RATE // rate_in + 1
    pos = np.arange(n_out) * (rate_in / PIPELINE_RATE)
    return np.interp(pos, np.arange(n_in), x)


# (format tag, bytes per sample) -> (dtype, offset, scale): a sample reads as
# (value - offset) / scale.  A 24-bit sample is widened to a left-justified
# 32-bit one, so it reads as its 24-bit value / 2**23.
_WAV_SAMPLES = {
    (1, 1): ("u1", 128.0, 128.0),
    (1, 2): ("i2", 0.0, 2.0**15),
    (1, 3): ("i4", 0.0, 2.0**31),
    (1, 4): ("i4", 0.0, 2.0**31),
    (3, 4): ("f4", 0.0, 1.0),
    (3, 8): ("f8", 0.0, 1.0),
}


def _read_wav(path: str | os.PathLike) -> tuple[int, int, np.ndarray]:
    """``(rate, channels, samples)`` of a RIFF or RIFX WAV: the whole frames
    of its data chunk, interleaved, as float64 scaled by ``_WAV_SAMPLES``.
    Chunks are walked up to the data chunk, whatever the RIFF size says."""
    with open(path, "rb") as fh:
        blob = fh.read()
    bad = f"unsupported codec or corrupt WAV: {path}"
    order = {b"RIFF": "<", b"RIFX": ">"}.get(blob[:4])
    if order is None or blob[8:12] != b"WAVE":
        raise AudioError(f"{bad}: {blob[:4]!r} container, not a RIFF or RIFX WAVE file")
    chunks, pos = {}, 12
    while pos + 8 <= len(blob) and b"data" not in chunks:
        (size,) = struct.unpack_from(order + "I", blob, pos + 4)
        chunks.setdefault(blob[pos : pos + 4], (pos + 8, size))
        pos += 8 + size + size % 2
    start, size = chunks.get(b"fmt ", (0, 0))
    fmt = blob[start : start + size]
    if len(fmt) < 16 or b"data" not in chunks:
        raise AudioError(f"{bad}: no 16-byte fmt chunk before a data chunk")
    tag, channels, rate, _, block_align, _ = struct.unpack_from(order + "HHIIHH", fmt)
    if tag == 0xFFFE and len(fmt) >= 26:  # WAVE_FORMAT_EXTENSIBLE: the sub-format's tag
        (tag,) = struct.unpack_from(order + "H", fmt, 24)
    width = block_align // channels if channels else 0
    if (tag, width) not in _WAV_SAMPLES or block_align != channels * width:
        raise AudioError(f"{bad}: tag {tag}, {channels} channels, block_align {block_align}")
    dtype, offset, scale = _WAV_SAMPLES[tag, width]
    start, size = chunks[b"data"]
    count = min(size, len(blob) - start) // block_align * channels
    if width == 3:
        wide = np.zeros((count, 4), np.uint8)
        low = int(order == "<")
        wide[:, low : low + 3] = np.frombuffer(blob, np.uint8, 3 * count, start).reshape(-1, 3)
        blob, start = wide.tobytes(), 0
    x = np.frombuffer(blob, order + dtype, count, start).astype(np.float64)
    if dtype[0] == "f" and not np.isfinite(x).all():
        raise AudioError(f"non-finite sample in float WAV: {path}")
    return rate, channels, (x - offset) / scale


def load_audio(path: str | os.PathLike) -> Waveform:
    """Load a WAV file as a mono waveform at the pipeline rate.

    Stereo channels are averaged; samples are scaled to [-1, 1]; other
    sample rates are brought to 16 kHz by linear interpolation.  A file
    ``_read_wav`` cannot read, a NaN or infinite float sample, or a rate
    below ``MIN_SAMPLE_RATE`` raises ``AudioError``.
    """
    rate, channels, x = _read_wav(path)
    if rate < MIN_SAMPLE_RATE:
        raise AudioError(
            f"sample rate {rate} Hz in WAV header, below {MIN_SAMPLE_RATE} Hz: {path}"
        )
    if x.size == 0:
        raise AudioError(f"zero-length audio: {path}")
    if channels > 1:
        x = x.reshape(-1, channels).mean(axis=1)
    x = resample_linear(x, rate)
    np.clip(x, -1.0, 1.0, out=x)
    return Waveform(samples=x, sample_rate=PIPELINE_RATE)


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.cache
def mel_filterbank() -> np.ndarray:
    """Triangular mel filterbank, shape (N_MELS, N_FFT // 2 + 1).

    Built once; every caller gets the same read-only array.
    """
    mel_pts = np.linspace(_hz_to_mel(FMIN), _hz_to_mel(FMAX), N_MELS + 2)
    hz_pts = _mel_to_hz(mel_pts)
    bins = np.fft.rfftfreq(N_FFT, d=1.0 / PIPELINE_RATE)
    fb = np.zeros((N_MELS, len(bins)))
    for i in range(N_MELS):
        lo, mid, hi = hz_pts[i], hz_pts[i + 1], hz_pts[i + 2]
        rise = (bins - lo) / (mid - lo)
        fall = (hi - bins) / (hi - mid)
        fb[i] = np.maximum(0.0, np.minimum(rise, fall))
    fb.flags.writeable = False
    return fb


@functools.cache
def _dct_basis() -> np.ndarray:
    """The first ``N_CEPS`` orthonormal DCT-II vectors over ``N_MELS`` points, as columns."""
    n = N_MELS
    j = np.arange(N_CEPS)
    basis = np.cos(np.pi / n * np.outer(np.arange(n) + 0.5, j))
    basis *= np.where(j == 0, math.sqrt(1.0 / n), math.sqrt(2.0 / n))
    basis.flags.writeable = False
    return basis


def compute_mfcc(w: Waveform) -> FeatureMatrix:
    """Static MFCCs: ``N_CEPS`` coefficients per ``WINDOW_SAMPLES`` frame
    (25 ms), one frame per ``HOP_SAMPLES`` (10 ms).

    Pipeline: pre-emphasis, Hann window, magnitude FFT, mel filterbank,
    log (floored), DCT-II (ortho), keep coefficients 0 to N_CEPS - 1.  Raises
    ``DataError`` for a waveform that is not at ``PIPELINE_RATE``.
    """
    if w.sample_rate != PIPELINE_RATE:
        raise DataError(
            f"MFCC needs {PIPELINE_RATE} Hz audio, waveform is {w.sample_rate} Hz"
        )
    n = frame_count(len(w.samples), WINDOW_SAMPLES, HOP_SAMPLES)

    x = w.samples
    emph = np.concatenate(([x[0]], x[1:] - PREEMPHASIS * x[:-1]))
    windows = np.lib.stride_tricks.sliding_window_view(emph, WINDOW_SAMPLES)
    frames = windows[::HOP_SAMPLES][:n] * np.hanning(WINDOW_SAMPLES)

    spec = np.abs(np.fft.rfft(frames, n=N_FFT, axis=1))
    energies = np.log(np.maximum(spec @ mel_filterbank().T, LOG_FLOOR))
    ceps = energies @ _dct_basis()
    return FeatureMatrix(frames=ceps)


def _delta(c: np.ndarray) -> np.ndarray:
    # standard regression estimate over a +-n frame window, edges replicated
    n = DELTA_WINDOW
    t = c.shape[0]
    denom = 2.0 * sum(i * i for i in range(1, n + 1))
    padded = np.pad(c, ((n, n), (0, 0)), mode="edge")
    d = np.zeros_like(c)
    for i in range(1, n + 1):
        d += i * (padded[n + i : n + i + t] - padded[n - i : n - i + t])
    return d / denom


def append_deltas(f: FeatureMatrix) -> FeatureMatrix:
    """Append delta and delta-delta columns, each over +-``DELTA_WINDOW``
    frames: [static | d | dd]."""
    c = f.frames
    d = _delta(c)
    dd = _delta(d)
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


def extract_features(path: str | os.PathLike) -> np.ndarray:
    """The ``(T, 3 * N_CEPS)`` features of a WAV file: :func:`load_audio`,
    then :func:`compute_mfcc`, :func:`append_deltas` and :func:`cmvn`."""
    return cmvn(append_deltas(compute_mfcc(load_audio(path)))).frames


def write_features(frames: np.ndarray, path: str | os.PathLike) -> None:
    """Write a feature matrix: ``ARTF``, u32 rows, u32 cols, f32 row-major LE."""
    payload = np.ascontiguousarray(frames, dtype="<f4")
    rows, cols = payload.shape
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<II", rows, cols))
        fh.write(payload.tobytes())


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
    """Utterance key -> its file's float32 feature frames, read at each lookup."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = str(directory)

    def path_for(self, key: str) -> str:
        return os.path.join(self.directory, key + ".artf")

    def __getitem__(self, key: str) -> np.ndarray:
        path = self.path_for(key)
        if not os.path.exists(path):
            raise FeatureIOError(f"missing feature file for utterance {reprlib.repr(key)}")
        return read_features(path).frames
