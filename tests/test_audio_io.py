"""WAV and spectrogram container round-trips."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from lungmix.audio_io import (
    ENCODE_BLOCK,
    read_spectrogram,
    read_wav,
    write_spectrogram,
    write_spectrogram_csv,
    write_wav,
)
from lungmix.errors import LungmixError, MissingAudio, NumericalError, ParseError
from lungmix.pipeline import Spectrogram, Waveform


def spec(values):
    return Spectrogram(values)


def test_wav_roundtrip_within_quantization(tmp_path, rng):
    w = Waveform(rng.uniform(-0.9, 0.9, 4000), 16000)
    path = tmp_path / "t.wav"
    write_wav(path, w)
    back = read_wav(path)
    assert back.sample_rate == 16000
    assert np.max(np.abs(back.samples - w.samples)) <= 0.5 / 32768

@pytest.mark.parametrize(
    "value",
    [1.0, -1.0, 1 + 1e-9, -1 - 1e-9, 0.5 / 32768, -0.5 / 32768, 1.5 / 32768, -1.5 / 32768,
     -0.0, 0.0, 1e308, -1e308],
)
def test_pcm_encoding_matches_clip_round_clip(tmp_path, value):
    """Scaling by 2**15 is exact, so clipping the scaled value gives the int16
    of clipping to [-1, 1], rounding half to even, then clipping again."""
    path = tmp_path / "t.wav"
    write_wav(path, Waveform(np.array([value, 0.25, value]), 16000))
    expected = np.clip(np.round(np.clip([value, 0.25, value], -1.0, 1.0) * 32768.0), -32768, 32767)
    written = wavfile.read(path)[1]
    assert written.dtype == np.int16
    assert written.tobytes() == expected.astype(np.int16).tobytes()


@pytest.mark.parametrize(
    "n", [1, ENCODE_BLOCK - 1, ENCODE_BLOCK, ENCODE_BLOCK + 1, 3 * ENCODE_BLOCK + 7]
)
def test_blocked_encode_matches_a_whole_array_encode(tmp_path, n):
    """Block by block, the encode gives the bytes of one multiply, `rint`,
    clip and cast over the whole array, for samples past +-1 and past
    2**1009 (which scale to inf) too."""
    x = np.random.default_rng(n).uniform(-1.5, 1.5, n)
    specials = [2.0**1010, -(2.0**1010), 1e308, -1e308, 1 + 1e-9, -1 - 1e-9, 0.0, -0.0,
                0.5 / 32768, -0.5 / 32768, 1.5 / 32768, -1.5 / 32768]
    x[:: max(n // len(specials), 1)][: len(specials)] = specials[: n]
    write_wav(tmp_path / "t.wav", Waveform(x, 16000))
    with np.errstate(over="ignore"):
        expected = np.clip(np.rint(x * 32768.0), -32768, 32767).astype(np.int16)
    assert wavfile.read(tmp_path / "t.wav")[1].tobytes() == expected.tobytes()


def test_write_wav_peak_memory(tmp_path):
    """Encoding a 9 s record allocates less than its float64 samples: the
    int16 output and one block. A whole-array encode peaked at twice them."""
    w = Waveform(np.random.default_rng(3).uniform(-1.2, 1.2, 9 * 16000), 16000)
    write_wav(tmp_path / "warm.wav", w)
    tracemalloc.start()
    try:
        write_wav(tmp_path / "t.wav", w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < w.samples.nbytes


def test_reads_float32_wav(tmp_path):
    data = np.linspace(-0.5, 0.5, 100, dtype=np.float32)
    wavfile.write(tmp_path / "f.wav", 8000, data)
    w = read_wav(tmp_path / "f.wav")
    assert w.sample_rate == 8000
    assert np.allclose(w.samples, data, atol=1e-7)

def test_rejects_stereo(tmp_path):
    data = np.zeros((100, 2), dtype=np.int16)
    wavfile.write(tmp_path / "s.wav", 8000, data)
    with pytest.raises(ParseError) as exc:
        read_wav(tmp_path / "s.wav")
    assert exc.value.category == "data"

def test_rejects_unsupported_sample_format_as_data(tmp_path):
    wavfile.write(tmp_path / "d.wav", 8000, np.zeros(100, dtype=np.float64))
    with pytest.raises(ParseError) as exc:
        read_wav(tmp_path / "d.wav")
    assert exc.value.category == "data"

def test_zero_rate_header_is_a_parse_error_naming_the_file(tmp_path):
    """A header whose sample-rate and byte-rate fields are zeroed reads as
    0 Hz: a malformed WAV, not a config fault."""
    path = tmp_path / "z.wav"
    wavfile.write(path, 8000, np.zeros(100, dtype=np.int16))
    raw = bytearray(path.read_bytes())
    raw[24:32] = bytes(8)
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError, match="0 Hz") as exc:
        read_wav(path)
    assert str(path) in str(exc.value)

def test_missing_wav_raises(tmp_path):
    with pytest.raises(MissingAudio):
        read_wav(tmp_path / "absent.wav")

def test_spectrogram_binary_roundtrip(tmp_path, rng):
    s = spec(rng.standard_normal((128, 1024)))
    path = tmp_path / "s.spec"
    write_spectrogram(path, s)
    back = read_spectrogram(path)
    assert back.shape == (128, 1024)
    assert np.allclose(back, s.bins, atol=1e-6)

def test_spectrogram_header_layout(tmp_path):
    s = spec(np.zeros((3, 5)))
    path = tmp_path / "s.spec"
    write_spectrogram(path, s)
    raw = path.read_bytes()
    assert struct.unpack("<II", raw[:8]) == (3, 5)
    assert len(raw) == 8 + 4 * 3 * 5

def test_float32_and_float64_bins_write_the_same_bytes(tmp_path, rng):
    narrow = rng.standard_normal((16, 48)).astype(np.float32)
    write_spectrogram(tmp_path / "narrow.spec", spec(narrow))
    write_spectrogram(tmp_path / "wide.spec", spec(narrow.astype(np.float64)))
    assert (tmp_path / "narrow.spec").read_bytes() == (tmp_path / "wide.spec").read_bytes()
    assert np.array_equal(read_spectrogram(tmp_path / "narrow.spec"), narrow)

def test_truncated_spectrogram_raises(tmp_path):
    path = tmp_path / "bad.spec"
    path.write_bytes(struct.pack("<II", 4, 4) + b"\x00" * 7)
    with pytest.raises(ParseError):
        read_spectrogram(path)

@pytest.mark.parametrize(("mel_bins", "frames"), [(0, 0), (0, 5), (3, 0)])
def test_empty_spectrogram_header_raises(tmp_path, mel_bins, frames):
    path = tmp_path / "empty.spec"
    path.write_bytes(struct.pack("<II", mel_bins, frames))
    with pytest.raises(ParseError):
        read_spectrogram(path)


def test_non_finite_spectrogram_is_numerical_error(tmp_path):
    path = tmp_path / "nan.spec"
    path.write_bytes(struct.pack("<II", 1, 2) + np.array([0.5, np.nan], "<f4").tobytes())
    with pytest.raises(NumericalError):
        read_spectrogram(path)


def read_or_category_error(path):
    """read_spectrogram's bins, after checking they are finite and shaped as
    the header says, or None when it raised a LungmixError."""
    try:
        bins = read_spectrogram(path)
    except LungmixError:
        return None
    assert bins.dtype == np.float64 and np.isfinite(bins).all()
    assert bins.shape == struct.unpack("<II", path.read_bytes()[:8])
    return bins


# header sizes: empty, small, and far beyond any file
DIMS = st.integers(0, 4) | st.sampled_from([2**16, 2**31, 2**32 - 1])


@st.composite
def spec_files(draw):
    """(header, values, bytes cut from the end): values fill the header's
    shape when it is small, else they are a few floats."""
    mel_bins, frames = draw(DIMS), draw(DIMS)
    n = mel_bins * frames if mel_bins * frames <= 16 else draw(st.integers(0, 4))
    values = draw(st.lists(st.floats(width=32), min_size=n, max_size=n))
    return (mel_bins, frames), values, draw(st.integers(0, 12) | st.just(0))


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=st.binary(max_size=80))
def test_random_bytes_read_or_raise_a_category_error(tmp_path, raw):
    path = tmp_path / "s.spec"
    path.write_bytes(raw)
    read_or_category_error(path)


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=spec_files())
def test_headers_and_truncations_read_or_raise_a_category_error(tmp_path, case):
    (mel_bins, frames), values, cut = case
    raw = struct.pack("<II", mel_bins, frames) + np.array(values, "<f4").tobytes()
    path = tmp_path / "s.spec"
    path.write_bytes(raw[: len(raw) - cut])
    bins = read_or_category_error(path)
    readable = cut == 0 and mel_bins * frames == len(values) > 0 and np.isfinite(values).all()
    assert (bins is not None) == readable
    if readable:
        assert np.array_equal(bins.ravel(), np.array(values, "<f4"))


def test_spectrogram_csv(tmp_path):
    s = spec(np.arange(6.0).reshape(2, 3))
    path = tmp_path / "s.csv"
    write_spectrogram_csv(path, s)
    rows = path.read_text().strip().splitlines()
    assert len(rows) == 2
    assert [float(v) for v in rows[0].split(",")] == [0.0, 1.0, 2.0]
