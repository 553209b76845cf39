"""Deterministic audio preprocessing: resample, bandpass, length fit, log-mel.

All operations are pure functions over `Waveform`; randomness (noise padding)
comes from an explicitly passed generator, never global state. There is one
configuration of each step: padding is uniform noise in [-PAD_EPS, PAD_EPS]
and the mel scale is HTK.
"""

import sys
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import butter, firwin, resample_poly, sosfiltfilt
from scipy.sparse import csr_array

from .errors import EmptyAudio, InvalidConfig, NumericalError, check_fields

# log-power floor: a zero-energy mel frame evaluates to log(POWER_FLOOR)
POWER_FLOOR = 1e-10

# half-width of the uniform noise that pads a waveform to length
PAD_EPS = 1e-4

# log-mel statistics commonly used to normalize inputs of spectrogram
# transformers pretrained on large-scale audio corpora; config defaults only,
# override per run if the downstream model expects different statistics.
DEFAULT_NORM_MEAN = -4.2677393
DEFAULT_NORM_STD = 4.5689974


@dataclass(frozen=True, eq=False)
class Waveform:
    """Mono PCM samples (float64, nominally in [-1, 1]) at a fixed rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise InvalidConfig(f"waveform must be 1-D, got shape {arr.shape}")
        if arr.size and not np.isfinite(arr).all():
            raise NumericalError("waveform contains NaN or Inf")
        if int(self.sample_rate) <= 0:
            raise InvalidConfig(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    def __len__(self):
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass(frozen=True, eq=False)
class Spectrogram:
    """Log-mel bins with shape (mel_bins, frames)."""

    bins: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.bins, dtype=np.float64)
        if arr.ndim != 2:
            raise InvalidConfig(f"spectrogram must be 2-D, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise NumericalError("spectrogram contains NaN or Inf")
        object.__setattr__(self, "bins", arr)


def sample_count(seconds: float, rate: int, name: str) -> int:
    """round(seconds * rate): the length of a configured span; a config error
    when no array could hold that many samples."""
    if not seconds * rate < sys.maxsize:
        raise InvalidConfig(f"{name} spans more samples at {rate} Hz than an array holds")
    return round(seconds * rate)


@dataclass(frozen=True)
class PipelineConfig:
    target_rate: int = 16000
    band_low: float = 50.0
    band_high: float = 1500.0
    clip_seconds: float = 9.0
    window_ms: float = 25.0
    hop_ms: float = 10.0
    mel_bins: int = 128
    frames: int = 1024
    norm_mean: float = DEFAULT_NORM_MEAN
    norm_std: float = DEFAULT_NORM_STD

    def __post_init__(self):
        check_fields(self)
        if self.target_rate <= 0:
            raise InvalidConfig("target_rate must be positive")
        if not (0 < self.band_low < self.band_high < self.target_rate / 2):
            raise InvalidConfig(
                f"band edges must satisfy 0 < low < high < rate/2, got "
                f"({self.band_low}, {self.band_high}) at {self.target_rate} Hz"
            )
        for name in ("clip_seconds", "mel_bins", "frames", "norm_std"):
            if getattr(self, name) <= 0:
                raise InvalidConfig(f"{name} must be positive, got {getattr(self, name)}")
        sample_count(self.clip_seconds, self.target_rate, "clip_seconds")
        for name in ("window_ms", "hop_ms"):
            if sample_count(getattr(self, name) / 1000.0, self.target_rate, name) < 1:
                raise InvalidConfig(f"{name} must span at least one sample at {self.target_rate} Hz")


@lru_cache(maxsize=None)
def _resample_filter(up: int, down: int) -> np.ndarray:
    """`resample_poly`'s default filter for `up`/`down`, built once; it scales a copy."""
    rate = max(up, down)
    h = firwin(20 * rate + 1, 1.0 / rate, window=("kaiser", 5.0))
    h.flags.writeable = False
    return h


def resample(w: Waveform, target_rate: int) -> Waveform:
    """Polyphase windowed-sinc resampling to `target_rate`.

    Identical rates return `w` itself: a `Waveform` is never written in place.
    """
    if len(w) == 0:
        raise EmptyAudio("cannot resample empty waveform")
    if target_rate <= 0:
        raise InvalidConfig(f"target_rate must be positive, got {target_rate}")
    if target_rate == w.sample_rate:
        return w
    g = gcd(target_rate, w.sample_rate)
    up, down = target_rate // g, w.sample_rate // g
    out = resample_poly(w.samples, up, down, window=_resample_filter(up, down))
    return Waveform(out, target_rate)


@lru_cache(maxsize=None)
def _bandpass_sos(low: float, high: float, sample_rate: int) -> np.ndarray:
    # left writable: scipy's filter kernel rejects read-only coefficients
    return butter(4, [low, high], btype="bandpass", fs=sample_rate, output="sos")


def bandpass(w: Waveform, low: float, high: float) -> Waveform:
    """4th-order Butterworth bandpass, applied forward-backward (zero phase)."""
    if not (0 < low < high < w.sample_rate / 2):
        raise InvalidConfig(
            f"band edges must satisfy 0 < low < high < rate/2, got ({low}, {high})"
        )
    if len(w) == 0:
        raise EmptyAudio("cannot filter empty waveform")
    sos = _bandpass_sos(low, high, w.sample_rate)
    # sosfiltfilt needs padlen < signal length; shrink it for short inputs
    default_padlen = 3 * (2 * sos.shape[0] + 1)
    padlen = min(default_padlen, len(w) - 1)
    out = sosfiltfilt(sos, w.samples, padlen=padlen)
    return Waveform(out, w.sample_rate)


def pad_to_length(
    w: Waveform, length: int, rng: np.random.Generator | None = None
) -> Waveform:
    """Truncate to `length` keeping the head, or pad the tail with uniform
    noise in [-PAD_EPS, PAD_EPS] drawn from `rng`.

    Truncation returns a view of `w`'s samples: a `Waveform` is never written
    in place, so `rng` is needed only when padding.
    """
    if length < 0:
        raise InvalidConfig("target length must be non-negative")
    n = len(w)
    if n >= length:
        return Waveform(w.samples[:length], w.sample_rate)
    if rng is None:
        raise InvalidConfig("noise padding requires an explicit rng")
    tail = rng.uniform(-PAD_EPS, PAD_EPS, length - n)
    return Waveform(np.concatenate([w.samples, tail]), w.sample_rate)


def fit_length(
    w: Waveform, clip_seconds: float, rng: np.random.Generator | None = None
) -> Waveform:
    """Cut or pad the waveform to exactly round(clip_seconds * rate) samples."""
    if clip_seconds <= 0:
        raise InvalidConfig("clip_seconds must be positive")
    return pad_to_length(w, int(round(clip_seconds * w.sample_rate)), rng)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """Triangular HTK-mel filterbank, (n_mels, n_fft // 2 + 1), spanning 0..Nyquist."""
    mel_pts = np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), n_mels + 2)
    hz_pts = mel_to_hz(mel_pts)
    fft_freqs = np.arange(n_fft // 2 + 1) * sample_rate / n_fft
    lo, center, hi = hz_pts[:-2, None], hz_pts[1:-1, None], hz_pts[2:, None]
    rising = (fft_freqs - lo) / np.maximum(center - lo, 1e-12)
    falling = (hi - fft_freqs) / np.maximum(hi - center, 1e-12)
    return np.clip(np.minimum(rising, falling), 0.0, 1.0)


@lru_cache(maxsize=None)
def _cached_filterbank(n_mels: int, n_fft: int, sample_rate: int) -> csr_array:
    """`mel_filterbank` as a canonical sparse matrix: a product with it sums
    each filter's non-zero bins in bin order, whatever the BLAS."""
    fb = csr_array(mel_filterbank(n_mels, n_fft, sample_rate))
    fb.data.flags.writeable = False
    return fb


# frames windowed and transformed together by `_log_mel`
FFT_BLOCK_ROWS = 64


def _framing(cfg: PipelineConfig) -> tuple[int, int, int]:
    """Window, hop and FFT length in samples at `cfg.target_rate`."""
    win = int(round(cfg.window_ms / 1000.0 * cfg.target_rate))
    hop = int(round(cfg.hop_ms / 1000.0 * cfg.target_rate))
    n_fft = 1
    while n_fft < win:
        n_fft *= 2
    return win, hop, n_fft


def _frame_count(n_samples: int, cfg: PipelineConfig) -> int:
    """Frames of `cfg` that lie wholly inside `n_samples`, at most `cfg.frames`."""
    win, hop, _ = _framing(cfg)
    return 0 if n_samples < win else min((n_samples - win) // hop + 1, cfg.frames)


def _log_mel(x: np.ndarray, cfg: PipelineConfig, start: int, stop: int) -> np.ndarray:
    """Log-mel columns of frames [start, stop) of `x`, (cfg.mel_bins, stop - start)."""
    if stop <= start:
        return np.empty((cfg.mel_bins, 0))
    win, hop, n_fft = _framing(cfg)
    # a strided view of the frames, windowed and transformed a block of rows
    # at a time: each row's FFT is independent of the others, and temporaries
    # this small are reused from the heap instead of being mapped afresh
    frames = sliding_window_view(x, win)[hop * start : hop * (stop - 1) + 1 : hop]
    window = np.hanning(win)
    # C order, one column per frame: the sparse product reads it as it is
    power = np.empty((n_fft // 2 + 1, stop - start))
    for i in range(0, stop - start, FFT_BLOCK_ROWS):
        spectrum = np.fft.rfft(frames[i : i + FFT_BLOCK_ROWS] * window, n=n_fft, axis=1).T
        block = np.square(spectrum.real, out=power[:, i : i + FFT_BLOCK_ROWS])
        block += np.square(spectrum.imag)
    mel_power = _cached_filterbank(cfg.mel_bins, n_fft, cfg.target_rate) @ power
    np.maximum(mel_power, POWER_FLOOR, out=mel_power)
    return np.log(mel_power, out=mel_power)


def mel_spectrogram(
    w: Waveform, cfg: PipelineConfig, head: np.ndarray | None = None
) -> Spectrogram:
    """Log-mel spectrogram with exactly (cfg.mel_bins, cfg.frames) bins.

    Frames past the end of the signal are filled with log(POWER_FLOOR), the
    value a zero-energy frame produces, so padding is indistinguishable from
    silence. `head`, from `mel_head` on the unpadded waveform, supplies the
    leading columns as they are; only the frames after it are computed.
    """
    if w.sample_rate != cfg.target_rate:
        raise InvalidConfig(
            f"expected {cfg.target_rate} Hz input, got {w.sample_rate} Hz"
        )
    bins = np.full((cfg.mel_bins, cfg.frames), np.log(POWER_FLOOR))
    start = 0
    if head is not None:
        start = head.shape[1]
        bins[:, :start] = head
    stop = _frame_count(len(w), cfg)
    bins[:, start:stop] = _log_mel(w.samples, cfg, start, stop)
    return Spectrogram(bins)


def mel_head(w: Waveform, cfg: PipelineConfig) -> np.ndarray:
    """The log-mel columns of `w` that padding it to the clip length cannot
    change, for `mel_spectrogram`'s `head`: those of the frames wholly inside
    `w`, none when `w` is shorter than one window. Each column depends on its
    own frame alone, so a stitch has the bytes of the whole spectrogram."""
    return _log_mel(w.samples, cfg, 0, _frame_count(len(w), cfg))


def normalize_spectrogram(s: Spectrogram, mean: float, std: float) -> Spectrogram:
    """Elementwise (x - mean) / std."""
    if std <= 0:
        raise InvalidConfig(f"std must be positive, got {std}")
    out = s.bins - mean
    out /= std
    return Spectrogram(out)


def condition(w: Waveform, cfg: PipelineConfig) -> Waveform:
    """The deterministic head of `preprocess`: resample, then bandpass."""
    return bandpass(resample(w, cfg.target_rate), cfg.band_low, cfg.band_high)


def needs_padding(w: Waveform, cfg: PipelineConfig) -> bool:
    """Whether `featurize` pads `w` up to the clip length; noise padding is
    the pipeline's only random draw."""
    return len(w) < int(round(cfg.clip_seconds * w.sample_rate))


def featurize(
    w: Waveform,
    cfg: PipelineConfig,
    rng: np.random.Generator | None = None,
    head: np.ndarray | None = None,
) -> tuple[Waveform, Spectrogram]:
    """The tail of `preprocess` on a conditioned waveform: fit length ->
    log-mel -> normalize. `head` is `mel_head(w, cfg)`, if already known."""
    out = fit_length(w, cfg.clip_seconds, rng)
    spec = mel_spectrogram(out, cfg, head)
    return out, normalize_spectrogram(spec, cfg.norm_mean, cfg.norm_std)


def preprocess(
    w: Waveform, cfg: PipelineConfig, rng: np.random.Generator | None = None
) -> tuple[Waveform, Spectrogram]:
    """Full pipeline: resample -> bandpass -> fit length -> log-mel -> normalize.

    Returns the preprocessed waveform together with its normalized spectrogram.
    """
    return featurize(condition(w, cfg), cfg, rng)
