"""File formats: mono WAV in/out and the flat binary spectrogram container.

WAV input accepts 16-bit PCM or 32-bit float; output is always 16-bit PCM.
Spectrograms serialize as an 8-byte header (two uint32 LE: mel_bins, frames)
followed by row-major float32 LE values, or as CSV on request.
"""

import struct
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from .errors import EmptyAudio, MissingAudio, NumericalError, ParseError
from .pipeline import Spectrogram, Waveform

# samples per block of the WAV encode, however long the waveform
ENCODE_BLOCK = 1 << 14


def read_wav(path) -> Waveform:
    path = Path(path)
    if not path.exists():
        raise MissingAudio(f"audio file not found: {path}")
    try:
        rate, data = wavfile.read(path)
    except OSError:
        raise
    except Exception as exc:  # a malformed header can raise anything from inside scipy
        raise ParseError(f"cannot read WAV {path}: {exc!r}") from exc
    if rate <= 0:
        raise ParseError(f"WAV header of {path} gives a sample rate of {rate} Hz")
    if data.ndim != 1:
        raise ParseError(f"expected mono WAV, got {data.ndim} channels: {path}")
    if data.size == 0:
        raise EmptyAudio(f"WAV contains no samples: {path}")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
    else:
        raise ParseError(f"unsupported WAV sample format {data.dtype}: {path}")
    return Waveform(samples, rate)


def write_wav(path, w: Waveform) -> None:
    """Write 16-bit PCM: samples are scaled by 2**15, rounded half to even and
    clipped to [-32768, 32767], so values beyond [-1, 1] saturate. They are
    encoded `ENCODE_BLOCK` at a time straight into the int16 array."""
    x = w.samples
    pcm = np.empty(x.size, np.int16)
    buf = np.empty(min(ENCODE_BLOCK, x.size))
    for start in range(0, x.size, ENCODE_BLOCK):
        b = buf[: x.size - start]
        # scaling by a power of two is exact, so this matches clip -> round -> clip;
        # a sample past 2**1009 scales to inf, which clips like any other
        with np.errstate(over="ignore"):
            np.multiply(x[start : start + b.size], 32768.0, out=b)
        np.rint(b, out=b)
        np.clip(b, -32768, 32767, out=b)
        pcm[start : start + b.size] = b
    wavfile.write(Path(path), w.sample_rate, pcm)


def write_spectrogram(path, s: Spectrogram) -> None:
    mel_bins, frames = s.bins.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", mel_bins, frames))
        # float32 bins are written as they are, others through one cast copy
        fh.write(np.ascontiguousarray(s.bins, "<f4"))


def read_spectrogram(path) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise MissingAudio(f"spectrogram file not found: {path}")
    raw = path.read_bytes()
    if len(raw) < 8:
        raise ParseError(f"spectrogram file too short: {path}")
    mel_bins, frames = struct.unpack("<II", raw[:8])
    if not (mel_bins and frames):
        raise ParseError(f"spectrogram header of {path} gives {mel_bins} rows x {frames} columns")
    expected = 8 + 4 * mel_bins * frames
    if len(raw) != expected:
        raise ParseError(
            f"spectrogram size mismatch in {path}: expected {expected} bytes, got {len(raw)}"
        )
    bins = np.frombuffer(raw, dtype="<f4", offset=8).reshape(mel_bins, frames).astype(np.float64)
    if not np.isfinite(bins).all():
        raise NumericalError(f"spectrogram {path} holds NaN or Inf")
    return bins


def write_spectrogram_csv(path, s: Spectrogram) -> None:
    """One CSV row per mel bin, frames as columns."""
    np.savetxt(path, s.bins, delimiter=",", fmt="%.8g")
