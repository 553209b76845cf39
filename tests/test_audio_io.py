"""WAV and spectrogram container round-trips."""

import struct

import numpy as np
import pytest
from scipy.io import wavfile

from lungmix.audio_io import (
    read_spectrogram,
    read_wav,
    write_spectrogram,
    write_spectrogram_csv,
    write_wav,
)
from lungmix.errors import MissingAudio, ParseError
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

def test_truncated_spectrogram_raises(tmp_path):
    path = tmp_path / "bad.spec"
    path.write_bytes(struct.pack("<II", 4, 4) + b"\x00" * 7)
    with pytest.raises(ParseError):
        read_spectrogram(path)

def test_spectrogram_csv(tmp_path):
    s = spec(np.arange(6.0).reshape(2, 3))
    path = tmp_path / "s.csv"
    write_spectrogram_csv(path, s)
    rows = path.read_text().strip().splitlines()
    assert len(rows) == 2
    assert [float(v) for v in rows[0].split(",")] == [0.0, 1.0, 2.0]
