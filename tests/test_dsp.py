"""Feature pipeline tests with independent oracles.

Frozen values:
  - frame_count(16000, 400, 160) = 98 = 1 + (16000 - 400) // 160
  - frame_count(400, 400, 160) = 1
  - cmvn of column [1, 2, 3] -> [-sqrt(3/2), 0, +sqrt(3/2)]
    (population std of [1,2,3] is sqrt(2/3); sqrt(3/2) = 1.224744871391589)
  - resampling 8 kHz -> 16 kHz maps N samples to 2N - 1
"""

import dataclasses
import struct
import wave

import numpy as np
import pytest
from scipy.io import wavfile

from conftest import wav_bytes
from phonosim import dsp
from phonosim.errors import AudioError, DataError, FeatureIOError


# ---------------------------------------------------------------------------
# frame counting


def test_frame_count_one_second_16k():
    assert dsp.frame_count(16000, 400, 160) == 98


def test_frame_count_single_window_boundary():
    assert dsp.frame_count(400, 400, 160) == 1


def test_frame_count_below_one_window_errors():
    with pytest.raises(AudioError):
        dsp.frame_count(399, 400, 160)


def test_frame_count_matches_enumeration_oracle():
    # oracle: count window placements w + k*hop fitting inside n samples
    for n in (400, 401, 559, 560, 561, 1000, 16000):
        oracle = sum(1 for s in range(0, n, 160) if s + 400 <= n)
        assert dsp.frame_count(n, 400, 160) == oracle


def test_compute_mfcc_frame_count_and_dim():
    w = dsp.Waveform(samples=np.random.default_rng(0).normal(size=16000), sample_rate=16000)
    f = dsp.compute_mfcc(w, dsp.MfccConfig())
    assert f.frames.shape == (98, 13)


def test_compute_mfcc_rejects_other_rates():
    w = dsp.Waveform(samples=np.zeros(8000), sample_rate=8000)
    with pytest.raises(DataError, match="needs 16000 Hz audio, waveform is 8000 Hz"):
        dsp.compute_mfcc(w, dsp.MfccConfig())


# ---------------------------------------------------------------------------
# resampling and audio loading


def test_resample_doubles_sample_count():
    x = np.random.default_rng(1).normal(size=800)
    y = dsp.resample_linear(x, 8000)
    assert len(y) == 2 * len(x) - 1
    # original samples are preserved on the even grid
    np.testing.assert_allclose(y[::2], x, rtol=0, atol=1e-12)
    # interpolated samples are midpoints
    np.testing.assert_allclose(y[1::2], (x[:-1] + x[1:]) / 2, atol=1e-12)


def test_resample_identity_when_rates_match():
    x = np.arange(5.0)
    assert dsp.resample_linear(x, 16000) is x


def test_load_audio_int16_roundtrip(tmp_path):
    x = np.round(np.sin(np.linspace(0, 20, 800)) * 20000).astype(np.int16)
    path = tmp_path / "a.wav"
    wavfile.write(path, 16000, x)
    w = dsp.load_audio(path)
    assert w.sample_rate == 16000
    np.testing.assert_allclose(w.samples, x / 32768.0, atol=1e-12)


def test_load_audio_stereo_averaged(tmp_path):
    left = np.full(500, 8000, dtype=np.int16)
    right = np.full(500, -8000, dtype=np.int16)
    path = tmp_path / "st.wav"
    wavfile.write(path, 16000, np.stack([left, right], axis=1))
    w = dsp.load_audio(path)
    np.testing.assert_allclose(w.samples, 0.0, atol=1e-12)


def test_load_audio_resamples_8k(tmp_path):
    x = np.zeros(800, dtype=np.int16)
    path = tmp_path / "8k.wav"
    wavfile.write(path, 8000, x)
    w = dsp.load_audio(path)
    assert len(w.samples) == 2 * 800 - 1


def _load_with_scipy(path):
    """``load_audio``'s samples for ``path``, read with ``scipy.io.wavfile``
    and scaled by its dtype: the oracle of the chunk reader."""
    rate, data = wavfile.read(path)
    x = data.astype(np.float64)
    if data.dtype == np.uint8:
        x = (x - 128.0) / 128.0
    elif data.dtype.kind == "i":  # SciPy left-justifies 24-bit samples in int32
        x /= 2.0 ** (8 * data.dtype.itemsize - 1)
    if x.ndim == 2:
        x = x.mean(axis=1)
    return np.clip(dsp.resample_linear(x, rate), -1.0, 1.0)


@pytest.mark.parametrize("rate, channels", [(16000, 1), (16000, 2), (8000, 1)])
def test_load_audio_pcm16_matches_scipy_reader(tmp_path, rate, channels):
    """16-bit PCM read by the chunk reader gives SciPy's samples, bit for bit."""
    rng = np.random.default_rng(rate + channels)
    x = rng.integers(-32768, 32768, size=(701, channels)).astype(np.int16)
    path = tmp_path / "pcm16.wav"
    wavfile.write(path, rate, x[:, 0] if channels == 1 else x)
    got = dsp.load_audio(path)
    assert got.samples.tobytes() == _load_with_scipy(path).tobytes()


def _encode(x, kind):
    """``x`` in [-1, 1] as samples of ``kind``: the data, the sample width
    when stdlib ``wave`` must write it as bytes (None: SciPy writes the
    array), and the quantisation step of the format."""
    if kind == "float32":
        return x.astype(np.float32), None, 2.0**-24
    if kind == "int32":
        return np.round(x * 2**31).astype(np.int32), None, 2.0**-31
    if kind == "int24":
        v = np.round(x * 2**23).astype("<i4").view(np.uint8).reshape(-1, 4)
        return v[:, :3].tobytes(), 3, 2.0**-23
    return np.round(x * 128 + 128).astype(np.uint8), None, 2.0**-7


@pytest.mark.parametrize("kind", ["float32", "int32", "int24", "uint8"])
def test_load_audio_other_sample_formats(tmp_path, kind):
    """Other sample formats load as SciPy reads them, bit for bit, and as
    the 16-bit file does, within one quantisation step of the coarser
    format."""
    x = 0.9 * np.sin(np.linspace(0, 20, 800))
    wavfile.write(tmp_path / "16.wav", 16000, np.round(x * 32768).astype(np.int16))
    want = dsp.load_audio(tmp_path / "16.wav").samples
    data, width, step = _encode(x, kind)
    path = tmp_path / f"{kind}.wav"
    if width is None:
        wavfile.write(path, 16000, data)
    else:  # SciPy writes no 24-bit files
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(width)
            fh.setframerate(16000)
            fh.writeframes(data)
    got = dsp.load_audio(path)
    assert got.samples.tobytes() == _load_with_scipy(path).tobytes()
    assert got.sample_rate == 16000 and len(got.samples) == len(want)
    assert np.abs(got.samples - want).max() <= max(step, 2.0**-15)


def test_load_audio_missing_file():
    with pytest.raises(FileNotFoundError):
        dsp.load_audio("/nonexistent/file.wav")


def test_load_audio_empty_pcm16(tmp_path):
    path = tmp_path / "empty.wav"
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(16000)
    assert wavfile.read(path)[1].size == 0
    with pytest.raises(AudioError, match="zero-length audio"):
        dsp.load_audio(path)


def test_load_audio_corrupt_file(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"this is not audio")
    with pytest.raises(AudioError):
        dsp.load_audio(path)


# eight 16-bit samples, each exact in float32; every readable file below holds them
WAV_SAMPLES = np.array([0, 1, -1, 32767, -32768, 1234, -4321, 77], dtype=np.int16)
PCM16 = wav_bytes(WAV_SAMPLES.tobytes())
FLOAT32 = wav_bytes((WAV_SAMPLES / 32768.0).astype("<f4").tobytes(), tag=3, width=4)


@pytest.mark.parametrize(
    "blob, frames",
    [
        (wav_bytes(WAV_SAMPLES.tobytes(), tag=0xFFFE, extensible=1), 8),
        (wav_bytes((WAV_SAMPLES / 32768.0).astype("<f4").tobytes(), tag=0xFFFE, width=4,
                   extensible=3), 8),
        (wav_bytes((WAV_SAMPLES / 32768.0).astype("<f8").tobytes(), tag=3, width=8), 8),
        (wav_bytes(WAV_SAMPLES.astype(">i2").tobytes(), order=">", container=b"RIFX"), 8),
        (wav_bytes(WAV_SAMPLES.tobytes(), before_data=b"LIST" + struct.pack("<I", 3) + b"abc\0"),
         8),
        (PCM16[:-4], 6),
        (PCM16[:-3], 6),
        (wav_bytes(WAV_SAMPLES.tobytes(), data_size=1000), 8),
        (PCM16[:4] + struct.pack("<I", 4) + PCM16[8:], 8),
        (wav_bytes(WAV_SAMPLES.tobytes(), tag=2), "tag 2"),
        (wav_bytes(WAV_SAMPLES.tobytes(), channels=0), "0 channels"),
        (b"RF64" + PCM16[4:], "RF64"),
    ],
    ids=[
        "extensible-pcm16", "extensible-float32", "float64", "rifx-pcm16",
        "odd-list-chunk", "data-cut-even", "data-cut-odd", "data-size-past-eof",
        "riff-size-too-small", "adpcm", "no-channels", "rf64",
    ],
)
def test_load_audio_hand_built_files(tmp_path, blob, frames):
    """Each readable file gives the whole frames it holds of WAV_SAMPLES,
    bit for bit; the chunk walk ignores the RIFF size field, skips unknown
    chunks and their pad byte, and stops at the end of the file.  Each
    unreadable one raises AudioError naming the file and the reason."""
    path = tmp_path / "hand.wav"
    path.write_bytes(blob)
    if isinstance(frames, str):
        with pytest.raises(AudioError, match=f"unsupported codec or corrupt WAV: {path}: .*{frames}"):
            dsp.load_audio(path)
        return
    got = dsp.load_audio(path)
    assert got.samples.tobytes() == (WAV_SAMPLES[:frames] / 32768.0).tobytes()


# ---------------------------------------------------------------------------
# mel filterbank and MFCC internals


def test_mel_filterbank_shape_and_support():
    fb = dsp.mel_filterbank()
    assert fb.shape == (40, 257)
    assert (fb >= 0.0).all()
    assert (fb.max(axis=1) > 0.0).all()  # every filter has support


def test_mel_filterbank_triangle_peaks_at_centers():
    fb = dsp.mel_filterbank()
    # centers computed independently from the mel-spaced grid
    mel_lo = 2595.0 * np.log10(1.0 + dsp.FMIN / 700.0)
    mel_hi = 2595.0 * np.log10(1.0 + dsp.FMAX / 700.0)
    centers_hz = 700.0 * (10 ** (np.linspace(mel_lo, mel_hi, dsp.N_MELS + 2) / 2595.0) - 1)
    bins = np.fft.rfftfreq(dsp.N_FFT, d=1.0 / dsp.PIPELINE_RATE)
    for i in range(dsp.N_MELS):
        peak_bin = bins[np.argmax(fb[i])]
        assert abs(peak_bin - centers_hz[i + 1]) <= bins[1]  # within one bin


def test_mel_filterbank_built_once_and_read_only():
    fb = dsp.mel_filterbank()
    assert dsp.mel_filterbank() is fb
    with pytest.raises(ValueError):
        fb[0, 0] = 1.0


@pytest.mark.parametrize(
    "bad",
    [
        {"n_ceps": 0}, {"n_ceps": -1}, {"n_ceps": 41}, {"n_ceps": 2**63},
        {"n_ceps": 10**400}, {"n_ceps": 13.0}, {"n_ceps": np.float64(13)},
        {"n_ceps": True}, {"n_ceps": False}, {"n_ceps": "13"}, {"n_ceps": None},
        {"n_ceps": [13]}, {"n_ceps": float("nan")}, {"n_ceps": float("inf")},
        {"n_ceps": 1e305}, {"n_ceps": 12.5},
    ],
)
def test_mfcc_config_rejects_unusable_values(bad):
    with pytest.raises(DataError):
        dsp.MfccConfig(**bad)


def test_mfcc_config_holds_only_n_ceps():
    """The front end is fixed; n_ceps is the one MFCC setting."""
    assert [f.name for f in dataclasses.fields(dsp.MfccConfig)] == ["n_ceps"]
    assert dsp.MfccConfig(np.int64(40)).n_ceps == 40
    assert not hasattr(dsp.MfccConfig(), "delta_window")
    assert dsp.DELTA_WINDOW == 4


def _delta_oracle(c, n):
    t = c.shape[0]
    out = np.zeros_like(c)
    denom = 2.0 * sum(i * i for i in range(1, n + 1))
    for k in range(t):
        acc = np.zeros(c.shape[1])
        for i in range(1, n + 1):
            acc += i * (c[min(k + i, t - 1)] - c[max(k - i, 0)])
        out[k] = acc / denom
    return out


def test_delta_matches_bruteforce_oracle():
    rng = np.random.default_rng(3)
    c = rng.normal(size=(30, 13))
    f = dsp.FeatureMatrix(frames=c)
    full = dsp.append_deltas(f).frames
    n = dsp.DELTA_WINDOW
    np.testing.assert_allclose(full[:, 13:26], _delta_oracle(c, n), atol=1e-12)
    np.testing.assert_allclose(
        full[:, 26:], _delta_oracle(_delta_oracle(c, n), n), atol=1e-12
    )


def test_append_deltas_keeps_statics_and_width():
    rng = np.random.default_rng(4)
    c = rng.normal(size=(10, 13))
    out = dsp.append_deltas(dsp.FeatureMatrix(frames=c))
    assert out.frames.shape == (10, 39)
    np.testing.assert_array_equal(out.frames[:, :13], c)


def test_append_deltas_any_width():
    """n_ceps sets the width: 12 static columns give 36."""
    rng = np.random.default_rng(6)
    c = rng.normal(size=(10, 12))
    out = dsp.append_deltas(dsp.FeatureMatrix(frames=c)).frames
    assert out.shape == (10, 36)
    np.testing.assert_array_equal(out[:, :12], c)
    np.testing.assert_allclose(out[:, 12:24], _delta_oracle(c, dsp.DELTA_WINDOW), atol=1e-12)


def test_mfcc_matches_naive_per_frame_oracle():
    """Cross-check the vectorized pipeline against a per-frame loop."""
    from scipy.fft import dct

    rng = np.random.default_rng(5)
    x = rng.normal(size=4000) * 0.2
    got = dsp.compute_mfcc(dsp.Waveform(samples=x, sample_rate=16000), dsp.MfccConfig()).frames

    emph = np.concatenate(([x[0]], x[1:] - 0.97 * x[:-1]))
    fb = dsp.mel_filterbank()
    han = np.hanning(400)
    rows = []
    for start in range(0, len(x) - 400 + 1, 160):
        frame = emph[start : start + 400] * han
        spec = np.abs(np.fft.rfft(frame, n=512))
        logmel = np.log(np.maximum(fb @ spec, 1e-10))
        rows.append(dct(logmel, type=2, norm="ortho")[:13])
    np.testing.assert_allclose(got, np.array(rows), atol=1e-10)


def test_mfcc_matches_scipy_dct_on_random_waveforms():
    from scipy.fft import dct

    rng = np.random.default_rng(12)
    for cfg in (dsp.MfccConfig(), dsp.MfccConfig(n_ceps=12)):
        for n in (400, 4321, 16000):
            x = rng.normal(size=n) * rng.uniform(0.01, 0.5)
            got = dsp.compute_mfcc(dsp.Waveform(samples=x, sample_rate=16000), cfg).frames
            win, hop = dsp.WINDOW_SAMPLES, dsp.HOP_SAMPLES
            emph = np.concatenate(([x[0]], x[1:] - dsp.PREEMPHASIS * x[:-1]))
            idx = np.arange(win)[None, :] + hop * np.arange(1 + (n - win) // hop)[:, None]
            spec = np.abs(np.fft.rfft(emph[idx] * np.hanning(win), n=dsp.N_FFT, axis=1))
            energies = np.log(np.maximum(spec @ dsp.mel_filterbank().T, dsp.LOG_FLOOR))
            want = dct(energies, type=2, norm="ortho", axis=1)[:, : cfg.n_ceps]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# CMVN


def test_cmvn_frozen_three_point_column():
    f = dsp.FeatureMatrix(frames=np.array([[1.0], [2.0], [3.0]]))
    out = dsp.cmvn(f).frames[:, 0]
    root = 1.224744871391589  # sqrt(3/2)
    np.testing.assert_allclose(out, [-root, 0.0, root], atol=1e-12)


def test_cmvn_zero_mean_unit_population_std():
    rng = np.random.default_rng(6)
    out = dsp.cmvn(dsp.FeatureMatrix(frames=rng.normal(size=(50, 39)) * 7 + 3)).frames
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-10)


def test_cmvn_constant_column_mean_subtracted_only():
    frames = np.column_stack([np.full(10, 5.0), np.arange(10.0)])
    out = dsp.cmvn(dsp.FeatureMatrix(frames=frames)).frames
    np.testing.assert_allclose(out[:, 0], 0.0, atol=1e-12)
    assert np.isfinite(out).all()


@pytest.mark.parametrize("n_ceps", [13, 12])
def test_extract_features_is_the_front_end_chain(tiny_corpus, n_ceps):
    """load -> MFCC -> deltas -> CMVN, byte for byte, on every tiny-corpus WAV."""
    cfg = dsp.MfccConfig(n_ceps)
    for u in tiny_corpus.utterances:
        path = tiny_corpus.resolve(u.audio_path)
        want = dsp.cmvn(dsp.append_deltas(dsp.compute_mfcc(dsp.load_audio(path), cfg))).frames
        got = dsp.extract_features(path, cfg)
        assert got.shape == (want.shape[0], 3 * n_ceps)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# feature file format


def test_feature_file_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    frames = rng.normal(size=(17, 39)).astype(np.float32).astype(np.float64)
    path = tmp_path / "x.artf"
    dsp.write_features(frames, path)
    back = dsp.read_features(path)
    assert back.frames.shape == (17, 39)
    np.testing.assert_array_equal(back.frames, frames)


def test_feature_file_header_layout(tmp_path):
    path = tmp_path / "y.artf"
    dsp.write_features(np.zeros((2, 3)), path)
    blob = path.read_bytes()
    assert blob[:4] == b"ARTF"
    assert blob[4:12] == (2).to_bytes(4, "little") + (3).to_bytes(4, "little")
    assert len(blob) == 12 + 4 * 6


def test_feature_file_bad_magic(tmp_path):
    path = tmp_path / "bad.artf"
    path.write_bytes(b"NOPE" + bytes(8))
    with pytest.raises(FeatureIOError, match="magic"):
        dsp.read_features(path)


def test_feature_file_truncated_payload(tmp_path):
    path = tmp_path / "short.artf"
    dsp.write_features(np.zeros((4, 4)), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(FeatureIOError, match="truncated"):
        dsp.read_features(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_feature_file_rejects_non_finite(tmp_path, bad):
    frames = np.zeros((4, 3))
    frames[2, 1] = bad
    path = tmp_path / "bad.artf"
    dsp.write_features(frames, path)
    with pytest.raises(FeatureIOError, match="non-finite"):
        dsp.read_features(path)


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @pytest.fixture(scope="module")
    def feature_blob(tmp_path_factory):
        path = tmp_path_factory.mktemp("artf") / "valid.artf"
        dsp.write_features(np.arange(15.0).reshape(5, 3), path)
        return path.read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(
        cut=st.integers(0, 80),
        flips=st.lists(st.tuples(st.integers(0, 71), st.integers(1, 255)), max_size=3),
        header=st.lists(
            st.tuples(st.sampled_from([4, 8]), st.integers(0, 2**32 - 1)), max_size=2
        ),
    )
    def test_read_features_fuzz(tmp_path_factory, feature_blob, cut, flips, header):
        """A truncated, bit-flipped or re-headed feature file loads or raises
        FeatureIOError."""
        blob = bytearray(feature_blob)
        for offset, value in header:
            blob[offset : offset + 4] = value.to_bytes(4, "little")
        for offset, mask in flips:
            blob[offset] ^= mask
        path = tmp_path_factory.getbasetemp() / "fuzz.artf"
        path.write_bytes(bytes(blob[:cut]))
        try:
            frames = dsp.read_features(path).frames
        except FeatureIOError:
            return
        assert np.isfinite(frames).all()

    # (offset, width) of the RIFF size, format tag, channels, rate,
    # block_align, bits and data-size fields of PCM16 (60 bytes) and
    # FLOAT32 (76 bytes)
    WAV_FIELDS = [(4, 4), (20, 2), (22, 2), (24, 4), (32, 2), (34, 2), (40, 4)]

    @settings(max_examples=300, deadline=None)
    @given(
        blob=st.sampled_from([PCM16, FLOAT32]),
        cut=st.integers(0, 80),
        flips=st.lists(st.tuples(st.integers(0, 59), st.integers(1, 255)), max_size=3),
        fields=st.lists(
            st.tuples(
                st.sampled_from(WAV_FIELDS),
                st.integers(0, 40) | st.integers(0, 2**32 - 1),
            ),
            max_size=2,
        ),
    )
    def test_load_audio_fuzz(tmp_path_factory, blob, cut, flips, fields):
        """A truncated, bit-flipped or re-headed WAV loads as finite samples
        in [-1, 1] at the pipeline rate, or raises AudioError."""
        blob = bytearray(blob)
        for (offset, width), value in fields:
            blob[offset : offset + width] = (value % 2 ** (8 * width)).to_bytes(width, "little")
        for offset, mask in flips:
            blob[offset] ^= mask
        path = tmp_path_factory.getbasetemp() / "fuzz.wav"
        path.write_bytes(bytes(blob[:cut]))
        try:
            got = dsp.load_audio(path)
        except AudioError:
            return
        assert got.sample_rate == 16000
        assert np.isfinite(got.samples).all() and np.abs(got.samples).max() <= 1.0

except ImportError:  # pragma: no cover - hypothesis is an optional test extra

    def test_fuzz_without_hypothesis():
        pytest.skip("hypothesis is not installed, so the fuzz tests did not run")


def test_feature_store(tmp_path):
    frames = np.arange(12.0).reshape(3, 4)
    dsp.write_features(frames, tmp_path / "spk__solo__1__001.artf")
    store = dsp.FeatureStore(tmp_path)
    np.testing.assert_allclose(store["spk__solo__1__001"], frames, atol=1e-6)
    with pytest.raises(FeatureIOError, match="missing"):
        store["missing"]
