"""Deterministic audio preprocessing: resample, bandpass, length fit, log-mel.

All operations are pure functions over `Waveform`; randomness (noise padding)
comes from an explicitly passed generator, never global state. There is one
configuration of each step: padding is uniform noise in [-PAD_EPS, PAD_EPS]
and the mel scale is HTK.
"""

import sys
import threading
from dataclasses import dataclass
from functools import lru_cache, wraps
from math import gcd

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import butter, firwin, resample_poly, sosfilt, sosfilt_zi
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
    """Log-mel bins with shape (mel_bins, frames): float32 bins are held as
    they are, any other values as float64."""

    bins: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.bins)
        if arr.dtype != np.float32:
            arr = arr.astype(np.float64, copy=False)
        if arr.ndim != 2:
            raise InvalidConfig(f"spectrogram must be 2-D, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise NumericalError("spectrogram contains NaN or Inf")
        object.__setattr__(self, "bins", arr)


def sample_count(seconds: float, rate: int, name: str) -> int:
    """round(seconds * rate): the length of a configured span; a config error
    when no array could hold that many samples."""
    # the rate first: an int rate may be too large to convert to a float
    if not (rate < sys.maxsize and seconds * rate < sys.maxsize):
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


def _built_once(build):
    """`lru_cache(maxsize=None)` over `build`, with its lookups taken under
    one lock, so threads that miss together build the value once."""
    cached = lru_cache(maxsize=None)(build)
    lock = threading.Lock()

    @wraps(build)
    def get(*args):
        with lock:
            return cached(*args)

    get.cache_clear = cached.cache_clear
    return get


@_built_once
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


@_built_once
def _bandpass_design(low: float, high: float, sample_rate: int) -> tuple[np.ndarray, np.ndarray]:
    """The 4th-order Butterworth bandpass as second-order sections, and the
    state `sosfilt_zi` solves for a unit step through them, built once."""
    # the sections are left writable: scipy's filter kernel rejects
    # read-only coefficients
    sos = butter(4, [low, high], btype="bandpass", fs=sample_rate, output="sos")
    zi = sosfilt_zi(sos)
    zi.flags.writeable = False
    return sos, zi


def bandpass(w: Waveform, low: float, high: float) -> Waveform:
    """4th-order Butterworth bandpass, applied forward-backward (zero phase).

    The steps of `scipy.signal.sosfiltfilt` with its default odd extension,
    shortened to `len(w) - 1` samples for short inputs, and the same bytes.
    """
    if not (0 < low < high < w.sample_rate / 2):
        raise InvalidConfig(
            f"band edges must satisfy 0 < low < high < rate/2, got ({low}, {high})"
        )
    if len(w) == 0:
        raise EmptyAudio("cannot filter empty waveform")
    sos, zi = _bandpass_design(low, high, w.sample_rate)
    x = w.samples
    edge = min(3 * (2 * sos.shape[0] + 1), x.size - 1)
    # each end of `x` reflected through its end sample
    ext = np.concatenate((2 * x[0] - x[edge:0:-1], x, 2 * x[-1] - x[-2 : -edge - 2 : -1]))
    y, _ = sosfilt(sos, ext, zi=zi * ext[:1])
    del ext  # freed before the backward pass, which filters a copy of `y`
    y, _ = sosfilt(sos, y[::-1], zi=zi * y[-1:])
    return Waveform(y[::-1][edge : edge + x.size], w.sample_rate)


def padding(size: int, n: int, rng: np.random.Generator | None) -> np.ndarray | None:
    """The samples `placed` follows a source of `size` samples with up to
    length `n`: uniform noise in [-PAD_EPS, PAD_EPS] from `rng`, drawn only
    when the source is shorter, or None, which stands for zeros."""
    return None if rng is None or size >= n else rng.uniform(-PAD_EPS, PAD_EPS, n - size)


def placed_span(
    x: np.ndarray, pad: np.ndarray | None, offset: int, start: int, buf: np.ndarray
) -> np.ndarray:
    """Samples `start : start + buf.size` of `np.roll(x, offset)` followed by
    `pad` (zeros when None): a view of `x` or `pad` when one piece of them
    covers the span, otherwise written into `buf`, which is returned."""
    stop = start + buf.size
    pieces = ((0, x[x.size - offset :]), (offset, x[: x.size - offset]), (x.size, pad))
    for lo, piece in pieces:
        if piece is not None and lo <= start and stop <= lo + piece.size:
            return piece[start - lo : stop - lo]
    for lo, piece in pieces:
        begin, end = max(lo, start), stop if piece is None else min(lo + piece.size, stop)
        if begin < end:
            buf[begin - start : end - start] = 0 if piece is None else piece[begin - lo : end - lo]
    return buf


def placed(
    x: np.ndarray, n: int, rng: np.random.Generator | None = None, offset: int = 0
) -> np.ndarray:
    """`np.roll(x, offset)` followed up to length `n` (at least `x.size`) by
    `padding`; written once, `x` itself if unchanged."""
    if offset == 0 and x.size == n:
        return x
    return placed_span(x, padding(x.size, n, rng), offset, 0, np.empty(n, x.dtype))


def fit_length(
    w: Waveform, clip_seconds: float, rng: np.random.Generator | None = None
) -> Waveform:
    """Cut the waveform to `sample_count(clip_seconds, rate)` samples, keeping
    the head as a view, or pad its tail with `placed`'s noise from `rng`."""
    if clip_seconds <= 0:
        raise InvalidConfig("clip_seconds must be positive")
    n = sample_count(clip_seconds, w.sample_rate, "clip_seconds")
    if len(w) < n and rng is None:
        raise InvalidConfig("noise padding requires an explicit rng")
    return Waveform(placed(w.samples[:n], n, rng), w.sample_rate)


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


@_built_once
def _cached_filterbank(n_mels: int, n_fft: int, sample_rate: int) -> csr_array:
    """`mel_filterbank` as a canonical sparse matrix: a product with it sums
    each filter's non-zero bins in bin order, whatever the BLAS."""
    fb = csr_array(mel_filterbank(n_mels, n_fft, sample_rate))
    fb.data.flags.writeable = False
    return fb


# frames windowed, transformed and reduced to mel bands together by `_log_mel`
FFT_BLOCK_ROWS = 64


def _framing(cfg: PipelineConfig) -> tuple[int, int, int]:
    """Window, hop and FFT length in samples at `cfg.target_rate`."""
    win = sample_count(cfg.window_ms / 1000.0, cfg.target_rate, "window_ms")
    hop = sample_count(cfg.hop_ms / 1000.0, cfg.target_rate, "hop_ms")
    n_fft = 1
    while n_fft < win:
        n_fft *= 2
    return win, hop, n_fft


def _frame_count(n_samples: int, cfg: PipelineConfig) -> int:
    """Frames of `cfg` that lie wholly inside `n_samples`, at most `cfg.frames`."""
    win, hop, _ = _framing(cfg)
    return 0 if n_samples < win else min((n_samples - win) // hop + 1, cfg.frames)


def _log_mel(x: np.ndarray, cfg: PipelineConfig, count: int) -> np.ndarray:
    """Log-mel columns of the first `count` frames of `x`, (cfg.mel_bins, count)."""
    if count <= 0:
        return np.empty((cfg.mel_bins, 0))
    win, hop, n_fft = _framing(cfg)
    frames = sliding_window_view(x, win)[: hop * (count - 1) + 1 : hop]
    window = np.hanning(win)
    fb = _cached_filterbank(cfg.mel_bins, n_fft, cfg.target_rate)
    # a block of frames is windowed into the head of zero-padded FFT rows,
    # transformed, and reduced to its mel bands while its power is still in
    # cache; each column depends on its own frame alone, so the bytes do not
    # depend on the block size
    rows = min(FFT_BLOCK_ROWS, len(frames))
    padded = np.zeros((rows, n_fft))
    # C order, one column per frame: the sparse product reads it as it is
    power = np.empty((n_fft // 2 + 1, rows))
    # a column for each frame `x` holds, so none is left unwritten
    mel = np.empty((cfg.mel_bins, len(frames)))
    for i in range(0, len(frames), rows):
        block = frames[i : i + rows]
        np.multiply(block, window, out=padded[: len(block), :win])
        spectrum = np.fft.rfft(padded[: len(block)], axis=1).T
        block_power = np.square(spectrum.real, out=power[:, : len(block)])
        block_power += np.square(spectrum.imag)
        mel[:, i : i + len(block)] = fb @ block_power
    np.maximum(mel, POWER_FLOOR, out=mel)
    return np.log(mel, out=mel)


def mel_spectrogram(w: Waveform, cfg: PipelineConfig) -> Spectrogram:
    """Log-mel spectrogram with exactly (cfg.mel_bins, cfg.frames) bins.

    Frames past the end of the signal are filled with log(POWER_FLOOR), the
    value a zero-energy frame produces, so padding is indistinguishable from
    silence.
    """
    if w.sample_rate != cfg.target_rate:
        raise InvalidConfig(
            f"expected {cfg.target_rate} Hz input, got {w.sample_rate} Hz"
        )
    bins = np.full((cfg.mel_bins, cfg.frames), np.log(POWER_FLOOR))
    stop = _frame_count(len(w), cfg)
    bins[:, :stop] = _log_mel(w.samples, cfg, stop)
    return Spectrogram(bins)


def padding_split(w: Waveform, cfg: PipelineConfig) -> tuple[Spectrogram, np.ndarray, int]:
    """What `featurize` keeps of `w` whatever noise pads it, for
    `padded_spectrogram`. Of the first `sample_count(clip_seconds, target_rate)`
    samples of `w`: the log-mel columns of the frames wholly inside them,
    normalised in float64 and held as float32 (none when they are shorter
    than one window); a copy of them from the first frame after those
    columns on, fewer than one window (none when the columns fill every
    frame); and their count. Each column depends on its own frame alone, so
    a stitch has the bytes of the whole spectrogram."""
    if w.sample_rate != cfg.target_rate:
        raise InvalidConfig(f"expected {cfg.target_rate} Hz input, got {w.sample_rate} Hz")
    x = w.samples[: sample_count(cfg.clip_seconds, cfg.target_rate, "clip_seconds")]
    start = _frame_count(x.size, cfg)
    head = _log_mel(x, cfg, start)
    head -= cfg.norm_mean
    head /= cfg.norm_std
    rest = x[start * _framing(cfg)[1] :] if start < cfg.frames else x[:0]
    return Spectrogram(head.astype(np.float32)), rest.copy(), x.size


def padded_spectrogram(
    head: Spectrogram, rest: np.ndarray, length: int, cfg: PipelineConfig, rng: np.random.Generator
) -> Spectrogram:
    """`featurize`'s normalised spectrogram, as float32, of a record that
    `padding_split` split into `head`, `rest` and `length`, padded with
    `rng`'s noise: only the frames the noise overlaps are computed, none when
    the record fills the clip."""
    n = sample_count(cfg.clip_seconds, cfg.target_rate, "clip_seconds")
    start, stop = head.bins.shape[1], _frame_count(n, cfg)
    # the first frame after the head begins `start * hop` samples into the
    # clip, past the record's end when the hop exceeds the window
    skip = max(start * _framing(cfg)[1] - length, 0)
    x = placed(rest, rest.size + n - length, rng)[skip:]
    mel = _log_mel(x, cfg, stop - start)
    # `normalize_spectrogram`'s float64 arithmetic, in place
    mel -= cfg.norm_mean
    mel /= cfg.norm_std
    bins = np.empty((cfg.mel_bins, cfg.frames), np.float32)
    bins[:, :start] = head.bins
    bins[:, start:stop] = mel
    bins[:, stop:] = (np.log(POWER_FLOOR) - cfg.norm_mean) / cfg.norm_std
    return Spectrogram(bins)


def normalize_spectrogram(s: Spectrogram, mean: float, std: float) -> Spectrogram:
    """Elementwise (x - mean) / std, computed in float64 whatever the bins' dtype."""
    if std <= 0:
        raise InvalidConfig(f"std must be positive, got {std}")
    out = np.subtract(s.bins, mean, dtype=np.float64)
    out /= std
    return Spectrogram(out)


def condition(w: Waveform, cfg: PipelineConfig) -> Waveform:
    """The deterministic head of `preprocess`: resample, then bandpass."""
    return bandpass(resample(w, cfg.target_rate), cfg.band_low, cfg.band_high)


def featurize(
    w: Waveform, cfg: PipelineConfig, rng: np.random.Generator | None = None
) -> tuple[Waveform, Spectrogram]:
    """The tail of `preprocess` on a conditioned waveform: fit length ->
    log-mel -> normalize."""
    out = fit_length(w, cfg.clip_seconds, rng)
    spec = mel_spectrogram(out, cfg)
    return out, normalize_spectrogram(spec, cfg.norm_mean, cfg.norm_std)


def preprocess(
    w: Waveform, cfg: PipelineConfig, rng: np.random.Generator | None = None
) -> tuple[Waveform, Spectrogram]:
    """Full pipeline: resample -> bandpass -> fit length -> log-mel -> normalize.

    Returns the preprocessed waveform together with its normalized spectrogram.
    """
    return featurize(condition(w, cfg), cfg, rng)
