"""Preprocessing contracts, checked against FFT and RMS oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.signal import resample_poly

from lungmix import pipeline
from lungmix.errors import EmptyAudio, InvalidConfig, NumericalError
from lungmix.pipeline import (
    PipelineConfig,
    Spectrogram,
    Waveform,
    bandpass,
    condition,
    featurize,
    fit_length,
    mel_head,
    mel_spectrogram,
    normalize_spectrogram,
    pad_to_length,
    preprocess,
    resample,
)


def tone(freq_hz, duration_s=1.0, rate=16000, amp=0.5):
    t = np.arange(int(round(duration_s * rate))) / rate
    return Waveform(amp * np.sin(2.0 * np.pi * freq_hz * t), rate)


def fft_peak_hz(w: Waveform) -> float:
    """Independent frequency oracle: location of the largest rFFT magnitude."""
    spectrum = np.abs(np.fft.rfft(w.samples))
    return float(np.argmax(spectrum) * w.sample_rate / len(w))


def rms(x) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


class TestResample:
    def test_tone_keeps_frequency(self):
        out = resample(tone(440.0, 1.0, rate=44100), 16000)
        assert out.sample_rate == 16000
        assert abs(out.duration - 1.0) <= 1.0 / 16000
        assert abs(fft_peak_hz(out) - 440.0) <= 4.4  # within 1%

    def test_same_rate_passthrough(self):
        w = tone(300.0, 0.5)
        out = resample(w, 16000)
        assert np.array_equal(out.samples, w.samples)

    def test_nine_seconds_at_4khz_gives_144000(self):
        w = Waveform(np.zeros(9 * 4000), 4000)
        assert len(resample(w, 16000)) == 9 * 16000

    def test_idempotent_within_tolerance(self, rng):
        w = Waveform(rng.standard_normal(22050) * 0.1, 22050)
        once = resample(w, 16000)
        twice = resample(once, 16000)
        assert rms(once.samples - twice.samples) < 1e-6

    def test_empty_input_raises(self):
        with pytest.raises(EmptyAudio):
            resample(Waveform(np.array([]), 16000), 8000)

    def test_bad_rate_raises(self):
        with pytest.raises(InvalidConfig):
            resample(tone(100.0), 0)

    def test_same_rate_returns_input(self):
        w = tone(100.0)
        assert resample(w, 16000) is w

    @pytest.mark.parametrize(
        ("rate", "target"), [(44100, 16000), (22050, 16000), (8000, 16000), (4000, 16000), (16000, 8000)]
    )
    def test_cached_filter_gives_scipys_default_bytes(self, rng, rate, target):
        x = rng.standard_normal(rate // 3) * 0.1
        g = math.gcd(rate, target)
        expected = resample_poly(x, target // g, rate // g)
        for _ in range(2):  # designs the filter, then reuses it
            assert resample(Waveform(x, rate), target).samples.tobytes() == expected.tobytes()


class TestWaveform:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_are_numerical_data_errors(self, bad):
        with pytest.raises(NumericalError) as exc:
            Waveform(np.array([0.0, bad]), 16000)
        assert exc.value.category == "data"


class TestBandpass:
    def test_passband_tone_barely_attenuated(self):
        w = tone(400.0, 2.0)
        out = bandpass(w, 50.0, 1500.0)
        ratio = rms(out.samples) / rms(w.samples)
        assert ratio >= 0.71  # < 3 dB

    def test_stopband_tone_heavily_attenuated(self):
        w = tone(25.0, 2.0)
        out = bandpass(w, 50.0, 1500.0)
        ratio = rms(out.samples) / rms(w.samples)
        assert ratio <= 0.1  # >= 20 dB

    def test_high_stopband(self):
        w = tone(3000.0, 2.0)
        out = bandpass(w, 50.0, 1500.0)
        assert rms(out.samples) / rms(w.samples) <= 0.1

    def test_zero_in_zero_out(self):
        w = Waveform(np.zeros(4000), 16000)
        out = bandpass(w, 50.0, 1500.0)
        assert np.array_equal(out.samples, np.zeros(4000))

    def test_linearity(self, rng):
        x = rng.standard_normal(8000) * 0.2
        y = rng.standard_normal(8000) * 0.2
        a, b = 0.7, -1.3
        left = bandpass(Waveform(a * x + b * y, 16000), 50.0, 1500.0).samples
        right = a * bandpass(Waveform(x, 16000), 50.0, 1500.0).samples + b * bandpass(
            Waveform(y, 16000), 50.0, 1500.0
        ).samples
        assert rms(left - right) < 1e-6

    def test_preserves_length_and_rate(self, rng):
        w = Waveform(rng.standard_normal(12345) * 0.1, 16000)
        out = bandpass(w, 50.0, 1500.0)
        assert len(out) == 12345 and out.sample_rate == 16000

    def test_invalid_edges_raise(self):
        w = tone(100.0)
        with pytest.raises(InvalidConfig):
            bandpass(w, 1500.0, 50.0)
        with pytest.raises(InvalidConfig):
            bandpass(w, 50.0, 9000.0)


class TestFitLength:
    def test_truncation_keeps_leading_segment(self):
        w = Waveform(np.arange(12 * 16000, dtype=float) / 1e6, 16000)
        out = fit_length(w, 9.0)
        assert len(out) == 144000
        assert np.array_equal(out.samples, w.samples[:144000])

    def test_exact_length_unchanged(self):
        w = Waveform(np.ones(144000) * 0.1, 16000)
        out = fit_length(w, 9.0)
        assert np.array_equal(out.samples, w.samples)

    def test_noise_padding_bounded_and_seeded(self):
        w = Waveform(np.ones(1000) * 0.1, 16000)
        eps = 1e-4
        out1 = fit_length(w, 0.5, rng=np.random.default_rng(9))
        out2 = fit_length(w, 0.5, rng=np.random.default_rng(9))
        tail = out1.samples[1000:]
        assert np.max(np.abs(tail)) <= eps
        assert np.array_equal(out1.samples, out2.samples)

    def test_noise_padding_without_rng_raises(self):
        w = Waveform(np.zeros(10), 16000)
        with pytest.raises(InvalidConfig):
            fit_length(w, 1.0)

    def test_no_padding_returns_a_view(self):
        w = Waveform(np.ones(1000) * 0.1, 16000)
        for length in (1000, 600):
            out = pad_to_length(w, length)
            assert len(out) == length
            assert np.shares_memory(out.samples, w.samples)

    def test_length_exact_for_1000_random_pairs(self):
        rng = np.random.default_rng(42)
        pad_rng = np.random.default_rng(43)  # apart, so the same 1000 cases are drawn
        for _ in range(1000):
            n = int(rng.integers(1, 5000))
            rate = int(rng.integers(100, 48000))
            clip = float(rng.uniform(0.001, 2.0))
            w = Waveform(np.zeros(n), rate)
            assert len(fit_length(w, clip, pad_rng)) == int(round(clip * rate))

    @given(st.integers(min_value=1, max_value=3000), st.integers(min_value=0, max_value=3000))
    def test_pad_to_length_exact(self, n, target):
        w = Waveform(np.zeros(n), 16000)
        assert len(pad_to_length(w, target, np.random.default_rng(0))) == target


class TestMelSpectrogram:
    CFG = PipelineConfig()

    def test_shape_is_128_by_1024(self, rng):
        w = Waveform(rng.standard_normal(144000) * 0.1, 16000)
        assert mel_spectrogram(w, self.CFG).bins.shape == (128, 1024)

    def test_short_input_still_full_shape(self):
        w = Waveform(np.ones(16000) * 0.1, 16000)
        assert mel_spectrogram(w, self.CFG).bins.shape == (128, 1024)

    def test_zero_waveform_gives_constant(self):
        w = Waveform(np.zeros(144000), 16000)
        bins = mel_spectrogram(w, self.CFG).bins
        assert np.unique(bins).size == 1

    def test_deterministic(self, rng):
        x = rng.standard_normal(144000) * 0.1
        s1 = mel_spectrogram(Waveform(x.copy(), 16000), self.CFG)
        s2 = mel_spectrogram(Waveform(x.copy(), 16000), self.CFG)
        assert np.array_equal(s1.bins, s2.bins)

    def test_shorter_than_one_window_is_all_floor(self):
        w = Waveform(np.full(100, 0.5), 16000)
        bins = mel_spectrogram(w, self.CFG).bins
        assert bins.shape == (128, 1024)
        assert (bins == np.log(pipeline.POWER_FLOOR)).all()

    @pytest.mark.parametrize("block", [1, 7, 10_000])
    def test_fft_block_size_does_not_change_bytes(self, rng, monkeypatch, block):
        w = Waveform(rng.standard_normal(144000) * 0.1, 16000)
        default = mel_spectrogram(w, self.CFG).bins
        monkeypatch.setattr(pipeline, "FFT_BLOCK_ROWS", block)
        assert mel_spectrogram(w, self.CFG).bins.tobytes() == default.tobytes()

    def test_peak_allocation_of_a_nine_second_record(self, rng):
        # blocked strided framing keeps it near 4 MB; transforming all frames
        # at once took 7.6 MB, and an index matrix plus a gathered copy of the
        # frames 12.3 MB
        w = Waveform(rng.standard_normal(144000) * 0.1, 16000)
        mel_spectrogram(w, self.CFG)  # builds the cached filterbank
        tracemalloc.start()
        try:
            mel_spectrogram(w, self.CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6e6

    def test_wrong_rate_raises(self):
        w = Waveform(np.zeros(8000), 8000)
        with pytest.raises(InvalidConfig):
            mel_spectrogram(w, self.CFG)

    def test_filterbank_built_once_per_setting(self, rng, monkeypatch):
        built = []
        real = pipeline.mel_filterbank

        def counting(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(pipeline, "mel_filterbank", counting)
        pipeline._cached_filterbank.cache_clear()
        cfg = PipelineConfig(mel_bins=64)
        w = Waveform(rng.standard_normal(16000) * 0.1, 16000)
        first = mel_spectrogram(w, cfg)
        assert np.array_equal(mel_spectrogram(w, cfg).bins, first.bins)
        assert len(built) == 1

    @pytest.mark.parametrize("mel_bins", [128, 64, 32])
    def test_log_mel_sums_each_filter_in_bin_order(self, rng, mel_bins):
        """`_log_mel` equals a plain loop that adds `fb[m, k] * power[k]` over
        each filter's non-zero bins in bin order: no BLAS kernel picks the
        rounding."""
        cfg = PipelineConfig(mel_bins=mel_bins)
        x = rng.standard_normal(16000) * 0.1
        win, hop, n_fft = 400, 160, 512
        n = (len(x) - win) // hop + 1
        frames = np.stack([x[f * hop : f * hop + win] for f in range(n)])
        spectrum = np.fft.rfft(frames * np.hanning(win), n=n_fft, axis=1)
        power = spectrum.real**2 + spectrum.imag**2
        fb = pipeline.mel_filterbank(mel_bins, n_fft, 16000)
        mel = np.zeros((mel_bins, n))
        for m in range(mel_bins):
            for k in np.flatnonzero(fb[m]):
                mel[m] += fb[m, k] * power[:, k]
        expected = np.log(np.maximum(mel, pipeline.POWER_FLOOR))
        assert np.array_equal(pipeline._log_mel(x, cfg, 0, n), expected)


class TestMelHead:
    """`mel_head` columns stitched to the frames after them, as `featurize`
    does for a padded source, equal the spectrogram computed whole."""

    @pytest.mark.parametrize("mel_bins", [128, 64, 32])
    def test_stitch_equals_whole_at_every_split_taken(self, rng, mel_bins):
        cfg = PipelineConfig(mel_bins=mel_bins, clip_seconds=3.0)
        win, hop = 400, 160
        clip = Waveform(rng.standard_normal(48000) * 0.1, 16000)
        whole = mel_spectrogram(clip, cfg).bins
        n = (len(clip) - win) // hop + 1
        # a record of k frames, padded by the rest of `clip`, at every k
        for k in range(n + 1):
            record = Waveform(clip.samples[: max(hop * (k - 1) + win, win - 1)], 16000)
            head = mel_head(record, cfg)
            assert head.shape == (mel_bins, k)
            assert np.array_equal(mel_spectrogram(clip, cfg, head).bins, whole)

    def test_no_head_when_the_clip_has_too_few_frames(self, rng):
        """A record shorter than one window has a head of no columns."""
        head = mel_head(Waveform(rng.standard_normal(399) * 0.1, 16000), PipelineConfig())
        assert head.shape == (128, 0)

    def test_head_keeps_no_whole_spectrogram_alive(self, rng):
        """A prepared source holds its head for a run: its memory is the
        head's own, not that of a (mel_bins, frames) array it was cut from."""
        cfg = PipelineConfig()
        head = mel_head(Waveform(rng.standard_normal(6 * 16000) * 0.1, 16000), cfg)
        assert head.shape == (cfg.mel_bins, 598)
        assert (head if head.base is None else head.base).nbytes == head.nbytes


class TestNormalizeSpectrogram:
    def _spec(self, values):
        return Spectrogram(values)

    def test_centering(self):
        s = self._spec(np.full((4, 6), 2.5))
        out = normalize_spectrogram(s, mean=2.5, std=3.0)
        assert np.all(out.bins == 0.0)

    def test_identity(self):
        s = self._spec(np.arange(12.0).reshape(3, 4))
        out = normalize_spectrogram(s, mean=0.0, std=1.0)
        assert np.array_equal(out.bins, s.bins)

    def test_arithmetic(self):
        s = self._spec(np.full((2, 2), 6.0))
        out = normalize_spectrogram(s, mean=2.0, std=2.0)
        assert np.all(out.bins == 2.0)

    def test_bad_std_raises(self):
        s = self._spec(np.zeros((2, 2)))
        with pytest.raises(InvalidConfig):
            normalize_spectrogram(s, mean=0.0, std=0.0)


class TestFullPipeline:
    def test_deterministic_end_to_end(self, rng):
        cfg = PipelineConfig()
        x = rng.standard_normal(44100 * 3) * 0.1
        w1, s1 = preprocess(Waveform(x.copy(), 44100), cfg, np.random.default_rng(5))
        w2, s2 = preprocess(Waveform(x.copy(), 44100), cfg, np.random.default_rng(5))
        assert np.array_equal(w1.samples, w2.samples)
        assert np.array_equal(s1.bins, s2.bins)
        assert len(w1) == 144000
        assert s1.bins.shape == (128, 1024)

    def test_is_condition_then_featurize(self, rng):
        cfg = PipelineConfig()
        w = Waveform(rng.standard_normal(44100 * 3) * 0.1, 44100)
        whole = preprocess(w, cfg, np.random.default_rng(5))
        split = featurize(condition(w, cfg), cfg, np.random.default_rng(5))
        assert np.array_equal(whole[0].samples, split[0].samples)
        assert np.array_equal(whole[1].bins, split[1].bins)

    def test_config_validation(self):
        with pytest.raises(InvalidConfig):
            PipelineConfig(band_low=2000.0, band_high=1500.0)
        with pytest.raises(InvalidConfig):
            PipelineConfig(clip_seconds=-1.0)
        with pytest.raises(InvalidConfig):
            PipelineConfig(norm_std=0.0)
