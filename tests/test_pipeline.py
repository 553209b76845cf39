"""Preprocessing contracts, checked against FFT and RMS oracles."""

import math
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import butter, resample_poly, sosfiltfilt

from lungmix import pipeline
from lungmix.errors import EmptyAudio, InvalidConfig, NumericalError
from lungmix.pipeline import (
    PAD_EPS,
    PipelineConfig,
    Spectrogram,
    Waveform,
    bandpass,
    condition,
    featurize,
    fit_length,
    mel_spectrogram,
    normalize_spectrogram,
    padded_spectrogram,
    padding_split,
    padding,
    placed,
    placed_span,
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

    @pytest.mark.parametrize("rate", [4000, 16000, 44100])
    @pytest.mark.parametrize("n", [1, 2, 3, 27, 28, 29, 1000, "9s"])
    def test_equals_scipy_sosfiltfilt(self, rng, rate, n):
        """The zero-phase filter repeats `sosfiltfilt` bit for bit, with the
        odd extension shrunk to `n - 1` samples for inputs shorter than 28."""
        x = rng.standard_normal(9 * rate if n == "9s" else n) * 0.1
        sos = butter(4, [50.0, 1500.0], btype="bandpass", fs=rate, output="sos")
        expected = sosfiltfilt(sos, x, padlen=min(27, x.size - 1))
        assert np.array_equal(bandpass(Waveform(x, rate), 50.0, 1500.0).samples, expected)

    @pytest.mark.parametrize(("seconds", "rate"), [(9, 44100), (12, 16000)])
    def test_peak_allocation_under_two_and_a_half_inputs(self, rng, seconds, rate):
        """The reflected input is released before the backward pass, so it
        and the two passes' outputs are never alive together: they peaked
        at 3.0 times the input, the two outputs alone at 2.0 times."""
        w = Waveform(rng.standard_normal(seconds * rate) * 0.1, rate)
        bandpass(w, 50.0, 1500.0)  # solves the design's initial state
        tracemalloc.start()
        try:
            bandpass(w, 50.0, 1500.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * w.samples.nbytes

    def test_filter_state_solved_once_per_design(self, rng, monkeypatch):
        solved = []
        real = pipeline.sosfilt_zi

        def counting(sos):
            solved.append(sos.shape)
            return real(sos)

        monkeypatch.setattr(pipeline, "sosfilt_zi", counting)
        pipeline._bandpass_design.cache_clear()
        x = rng.standard_normal(4000) * 0.1
        first = bandpass(Waveform(x, 16000), 50.0, 1500.0)
        for low, rate in ((50.0, 16000), (50.0, 8000), (100.0, 16000), (50.0, 8000)):
            bandpass(Waveform(x, rate), low, 1500.0)
        assert len(solved) == 3
        assert np.array_equal(bandpass(Waveform(x, 16000), 50.0, 1500.0).samples, first.samples)
        assert not pipeline._bandpass_design(50.0, 1500.0, 16000)[1].flags.writeable


@pytest.mark.parametrize(
    ("builder", "uses", "args"),
    [
        ("_cached_filterbank", "mel_filterbank", (128, 512, 16000)),
        ("_bandpass_design", "sosfilt_zi", (50.0, 1500.0, 16000)),
        ("_resample_filter", "firwin", (160, 441)),
    ],
)
def test_threads_that_miss_together_build_once(monkeypatch, builder, uses, args):
    """Two threads that ask a cleared design cache for one value while its
    first build is slow run that build once, and get the same value."""
    real, built = getattr(pipeline, uses), []

    def slow(*a, **k):
        built.append(a)
        time.sleep(0.05)
        return real(*a, **k)

    monkeypatch.setattr(pipeline, uses, slow)
    cache = getattr(pipeline, builder)
    cache.cache_clear()
    start, values = threading.Barrier(2), []

    def ask():
        start.wait()
        values.append(cache(*args))

    try:
        threads = [threading.Thread(target=ask) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        cache.cache_clear()
    assert not any(t.is_alive() for t in threads)
    assert len(built) == 1
    assert values[0] is values[1]


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
            out = fit_length(w, length / 16000)
            assert len(out) == length
            assert np.shares_memory(out.samples, w.samples)

    def test_overflowing_length_is_a_config_error(self):
        """A clip no array could hold is a config error, not an OverflowError."""
        with pytest.raises(InvalidConfig):
            fit_length(Waveform(np.zeros(10), 16000), 1e308, np.random.default_rng(0))

    def test_rate_too_large_for_a_float_is_a_config_error(self):
        """An int rate that no float holds is refused before `seconds * rate`
        would raise OverflowError."""
        wave = Waveform(np.zeros(4), 10**400)
        with pytest.raises(InvalidConfig, match="clip_seconds spans more samples"):
            fit_length(wave, 9.0, np.random.default_rng(0))

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
    def test_fit_length_exact(self, n, target):
        w = Waveform(np.zeros(n), 16000)
        # a quarter sample over `target` rounds to it, and is positive at 0
        assert len(fit_length(w, (target + 0.25) / 16000, np.random.default_rng(0))) == target


class TestPlaced:
    @pytest.mark.parametrize("longer", [0, 7])
    def test_roll_then_pad(self, longer):
        """`np.roll` then `np.concatenate` of the tail: noise drawn from the
        generator for a float source, zeros for a mask without one."""
        x = np.random.default_rng(3).uniform(-1.0, 1.0, 50)
        n = x.size + longer
        for offset in (0, x.size - 1):
            tail = np.random.default_rng(4).uniform(-PAD_EPS, PAD_EPS, longer)
            want = np.concatenate([np.roll(x, offset), tail])
            assert placed(x, n, np.random.default_rng(4), offset).tobytes() == want.tobytes()
            loud = x > 0.5
            mask = placed(loud, n, offset=offset)
            assert mask.dtype == bool
            assert np.array_equal(mask, np.concatenate([np.roll(loud, offset), np.zeros(longer)]))

    def test_unchanged_source_is_returned_without_a_draw(self):
        x, rng = np.arange(5.0), np.random.default_rng(0)
        assert placed(x, 5, rng) is x
        assert placed(x, 5, rng, 2).tolist() == np.roll(x, 2).tolist()
        assert rng.random() == np.random.default_rng(0).random()


    @settings(max_examples=300)
    @given(
        size=st.integers(min_value=1, max_value=12),
        extra=st.integers(min_value=0, max_value=12),
        noise=st.booleans(),
        data=st.data(),
    )
    def test_span_is_the_slice_of_the_whole_layout(self, size, extra, noise, data):
        """Any nonempty span of `placed_span` is that slice of the rolled source and
        its padding (zeros for None), a view when one piece covers it and
        written into the buffer otherwise."""
        n = size + extra
        offset = data.draw(st.integers(min_value=0, max_value=size - 1))
        start = data.draw(st.integers(min_value=0, max_value=n - 1))
        stop = data.draw(st.integers(min_value=start + 1, max_value=n))
        x = np.arange(1.0, size + 1)
        pad = padding(size, n, np.random.default_rng(5) if noise else None)
        whole = np.concatenate([np.roll(x, offset), np.zeros(extra) if pad is None else pad])
        buf = np.full(stop - start, np.nan)
        got = placed_span(x, pad, offset, start, buf)
        assert got.tobytes() == whole[start:stop].tobytes()
        bounds = [0, offset, size] + ([n] if pad is not None else [])
        one_piece = any(lo <= start and stop <= hi for lo, hi in zip(bounds, bounds[1:]))
        assert (got is buf) == (not one_piece)


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
        # frames reduced to mel bands a block at a time keep it near 2.9 MB;
        # a whole (n_fft/2 + 1, frames) power matrix took 3.8 MB, all frames
        # transformed at once 7.6 MB, and an index matrix plus a gathered copy
        # of the frames 12.3 MB
        w = Waveform(rng.standard_normal(144000) * 0.1, 16000)
        mel_spectrogram(w, self.CFG)  # builds the cached filterbank
        tracemalloc.start()
        try:
            mel_spectrogram(w, self.CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5e6

    def test_wrong_rate_raises(self):
        """So does `padding_split`, which frames at the config's rate too."""
        w = Waveform(np.zeros(8000), 8000)
        for featurized in (mel_spectrogram, padding_split):
            with pytest.raises(InvalidConfig, match="expected 16000 Hz input, got 8000 Hz"):
                featurized(w, self.CFG)

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

    @pytest.mark.parametrize(
        "mel_bins, window_ms, start, stop",
        [
            pytest.param(128, 25.0, 0, None, id="128"),
            pytest.param(64, 25.0, 0, None, id="64"),
            pytest.param(32, 25.0, 0, None, id="32"),
            pytest.param(128, 32.0, 0, None, id="window-as-long-as-the-fft"),
            pytest.param(128, 25.0, 7, 90, id="frames-7-to-90"),
        ],
    )
    def test_log_mel_sums_each_filter_in_bin_order(self, rng, mel_bins, window_ms, start, stop):
        """`_log_mel` equals a plain loop that adds `fb[m, k] * power[k]` over
        each filter's non-zero bins in bin order: no BLAS kernel picks the
        rounding. At 16 kHz a 32 ms window fills the 512-point FFT with no
        zeros; frames 7 to 90 start inside the record and end in a partial
        block of `FFT_BLOCK_ROWS`."""
        cfg = PipelineConfig(mel_bins=mel_bins, window_ms=window_ms)
        x = rng.standard_normal(16000) * 0.1
        win, hop, n_fft = round(window_ms * 16), 160, 512
        stop = (len(x) - win) // hop + 1 if stop is None else stop
        frames = np.stack([x[f * hop : f * hop + win] for f in range(start, stop)])
        spectrum = np.fft.rfft(frames * np.hanning(win), n=n_fft, axis=1)
        power = spectrum.real**2 + spectrum.imag**2
        fb = pipeline.mel_filterbank(mel_bins, n_fft, 16000)
        mel = np.zeros((mel_bins, stop - start))
        for m in range(mel_bins):
            for k in np.flatnonzero(fb[m]):
                mel[m] += fb[m, k] * power[:, k]
        expected = np.log(np.maximum(mel, pipeline.POWER_FLOOR))
        assert np.array_equal(pipeline._log_mel(x[start * hop :], cfg, stop - start), expected)


class TestMelHead:
    """`padding_split`'s head columns stitched by `padded_spectrogram` to the
    frames its noise overlaps equal the float32 cast of `featurize`'s
    spectrogram, computed whole with the same noise."""

    @pytest.mark.parametrize("mel_bins", [128, 64, 32])
    def test_stitch_equals_whole_at_every_split_taken(self, rng, mel_bins):
        cfg = PipelineConfig(mel_bins=mel_bins, clip_seconds=3.0)
        win, hop = 400, 160
        clip = rng.standard_normal(48000) * 0.1
        n = (clip.size - win) // hop + 1
        # a record of k frames, padded with noise to the clip, at every k
        for k in range(n + 1):
            record = Waveform(clip[: max(hop * (k - 1) + win, win - 1)], 16000)
            head, rest, length = padding_split(record, cfg)
            assert head.bins.shape == (mel_bins, k)
            stitched = padded_spectrogram(head, rest, length, cfg, np.random.default_rng(k))
            whole = featurize(record, cfg, np.random.default_rng(k))[1]
            assert stitched.bins.tobytes() == whole.bins.astype(np.float32).tobytes()

    def test_no_head_when_the_clip_has_too_few_frames(self, rng):
        """A record shorter than one window has a head of no columns."""
        head = padding_split(Waveform(rng.standard_normal(399) * 0.1, 16000), PipelineConfig())[0]
        assert head.bins.shape == (128, 0)

    def test_head_keeps_no_whole_spectrogram_alive(self, rng):
        """A prepared source holds its head for a run: its memory is the
        head's own, not that of a (mel_bins, frames) array it was cut from."""
        cfg = PipelineConfig()
        head = padding_split(Waveform(rng.standard_normal(6 * 16000) * 0.1, 16000), cfg)[0].bins
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

    def test_float32_bins_are_normalised_in_float64(self, rng):
        """float32 bins give the float64 result of their float64 values;
        numpy 2 would subtract a Python float from float32 bins in float32."""
        narrow = (rng.standard_normal((8, 32)) * 5).astype(np.float32)
        out = normalize_spectrogram(self._spec(narrow), mean=-4.2677393, std=4.5689974)
        wide = normalize_spectrogram(self._spec(narrow.astype(np.float64)), -4.2677393, 4.5689974)
        assert out.bins.dtype == np.float64
        assert out.bins.tobytes() == wide.bins.tobytes()


class TestSpectrogramDtype:
    def test_float32_bins_are_kept(self):
        bins = np.zeros((2, 3), np.float32)
        s = Spectrogram(bins)
        assert s.bins.dtype == np.float32 and s.bins is bins

    @pytest.mark.parametrize(
        "bins", [np.zeros((2, 3), np.float16), np.zeros((2, 3), np.int32), [[0, 1], [2, 3]]],
        ids=["float16", "int32", "list"],
    )
    def test_any_other_values_become_float64(self, bins):
        assert Spectrogram(bins).bins.dtype == np.float64


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
