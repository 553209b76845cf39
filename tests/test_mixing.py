"""Mixing strategies: boundary identities, determinism, blend exactness."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lungmix.errors import EmptyAudio, InvalidConfig, RateMismatch, ShapeMismatch
from lungmix.labels import FOUR_CLASS, MODES, SoftTriple
from lungmix.masks import (
    SEMANTICS,
    MixMask,
    MixParams,
    combine_masks,
    loudness_mask,
    random_mask,
)
from lungmix.mixing import (
    MIX_BLOCK,
    STRATEGIES,
    MixRequest,
    apply_mix_mask,
    cutmix_kernel,
    lungmix,
    lungmix_kernel,
    lungmix_trace,
    mix,
    shift_roll_pair,
    vanilla_mixup,
)
from lungmix.pipeline import Spectrogram, Waveform, pad_to_length
from lungmix.synth import SynthSpec, synth

CRACKLE = FOUR_CLASS.vector("crackle")
WHEEZE = FOUR_CLASS.vector("wheeze")


class FixedOffsetRng:
    """Duck-typed generator returning a scripted sequence from integers()."""

    def __init__(self, *values):
        self.values = list(values)

    def integers(self, low, high):
        return self.values.pop(0)


def request(
    a, b, label_a=CRACKLE, label_b=WHEEZE, strategy="lungmix", interpolation="nonlinear", **params
):
    return MixRequest(
        audio_a=a,
        label_a=label_a,
        audio_b=b,
        label_b=label_b,
        params=MixParams(**params),
        strategy=strategy,
        interpolation=interpolation,
    )


def noise_wave(seed, n=4000, rate=16000, amp=0.3):
    return Waveform(np.random.default_rng(seed).uniform(-amp, amp, n), rate)


def noise_spec(seed):
    bins = np.random.default_rng(seed).standard_normal((128, 1024))
    return Spectrogram(bins)


class TestShiftRoll:
    def test_zero_offset_identity(self):
        w = Waveform(np.array([1.0, 2.0, 3.0, 4.0]), 16000)
        _, out, side, offset = shift_roll_pair(w, w, FixedOffsetRng(0, 0))
        assert (side, offset) == ("b", 0)
        assert np.array_equal(out.samples, w.samples)

    def test_offset_one_definition(self):
        w = Waveform(np.array([1.0, 2.0, 3.0, 4.0]), 16000)
        out, _, side, offset = shift_roll_pair(w, w, FixedOffsetRng(1, 1))
        assert (side, offset) == ("a", 1)
        assert np.array_equal(out.samples, [4.0, 1.0, 2.0, 3.0])

    def test_permutation_preserved(self, rng):
        w = Waveform(rng.standard_normal(257), 16000)
        for out in shift_roll_pair(w, w, np.random.default_rng(5))[:2]:
            assert np.array_equal(np.sort(out.samples), np.sort(w.samples))

    def test_empty_waveform_raises(self):
        empty, w = Waveform(np.array([]), 16000), noise_wave(0)
        for a, b in ((empty, w), (w, empty)):
            with pytest.raises(EmptyAudio):
                shift_roll_pair(a, b, np.random.default_rng(0))

    def test_pair_roll_coin_flip_is_seeded(self):
        a, b = noise_wave(1), noise_wave(2)
        r1 = shift_roll_pair(a, b, np.random.default_rng(9))
        r2 = shift_roll_pair(a, b, np.random.default_rng(9))
        assert r1[2] == r2[2] and r1[3] == r2[3]
        assert np.array_equal(r1[0].samples, r2[0].samples)
        # exactly one side changed
        rolled = r1[2]
        untouched = r1[0] if rolled == "b" else r1[1]
        original = a if rolled == "b" else b
        assert np.array_equal(untouched.samples, original.samples)


class TestApplyMixMask:
    def test_all_ones_returns_a_bit_exact(self, rng):
        a, b = noise_wave(3), noise_wave(4)
        mask = MixMask(np.ones(len(a)), lam=0.4)
        out = apply_mix_mask(a, b, mask)
        assert np.array_equal(out.samples, a.samples)

    def test_all_zeros_returns_b_bit_exact(self, rng):
        a, b = noise_wave(5), noise_wave(6)
        mask = MixMask(np.zeros(len(a)), lam=0.4)
        out = apply_mix_mask(a, b, mask)
        assert np.array_equal(out.samples, b.samples)

    def test_elementwise_blend(self):
        a = Waveform(np.array([1.0, 1.0]), 16000)
        b = Waveform(np.array([-1.0, -1.0]), 16000)
        out = apply_mix_mask(a, b, MixMask(np.array([0.5, 1.0]), lam=0.5))
        assert np.array_equal(out.samples, [0.0, 1.0])

    def test_shape_mismatch_raises(self):
        a = Waveform(np.zeros(4), 16000)
        b = Waveform(np.zeros(5), 16000)
        with pytest.raises(ShapeMismatch):
            apply_mix_mask(a, b, MixMask(np.zeros(4), lam=0.5))

    def test_rate_mismatch_raises(self):
        a = Waveform(np.zeros(4), 16000)
        b = Waveform(np.zeros(4), 8000)
        with pytest.raises(RateMismatch):
            apply_mix_mask(a, b, MixMask(np.zeros(4), lam=0.5))


class TestLungmix:
    def test_self_mix_identity(self):
        a = noise_wave(7)
        res = lungmix(request(a, a, CRACKLE, CRACKLE, seed=11))
        assert np.allclose(res.audio.samples, a.samples, atol=1e-12, rtol=0.0)

    def test_bit_identical_regeneration(self):
        a, b = noise_wave(8), noise_wave(9)
        r1 = lungmix(request(a, b, seed=13))
        r2 = lungmix(request(a, b, seed=13))
        assert np.array_equal(r1.audio.samples, r2.audio.samples)
        assert r1.provenance == r2.provenance

    def test_amplitude_bound(self):
        a, b = noise_wave(10), noise_wave(11)
        res = lungmix(request(a, b, seed=17))
        bound = np.maximum(np.abs(a.samples), np.abs(b.samples))
        assert np.all(np.abs(res.audio.samples) <= bound * (1 + 1e-12) + 1e-18)

    def test_blend_expression_exact_at_loudness_positions(self):
        wa, _ = synth(SynthSpec(label="crackle", duration_s=3.0, n_events=2, seed=21))
        wb, _ = synth(SynthSpec(label="wheeze", duration_s=3.0, n_events=2, seed=22))
        trace = lungmix_trace(request(wa, wb, seed=23))
        union = trace.mask_a | trace.mask_b
        assert union.any()
        expected = trace.lam * trace.audio_a.samples + (1.0 - trace.lam) * trace.audio_b.samples
        assert np.array_equal(trace.mixed.samples[union], expected[union])

    def test_nonlinear_label_is_both(self):
        wa, _ = synth(SynthSpec(label="crackle", duration_s=3.0, n_events=2, seed=24))
        wb, _ = synth(SynthSpec(label="wheeze", duration_s=3.0, n_events=2, seed=25))
        res = lungmix(request(wa, wb, seed=26))
        assert res.label.name == "both"
        assert res.soft_target is None

    def test_unequal_lengths_pad_to_max(self):
        a = noise_wave(27, n=3000)
        b = noise_wave(28, n=5000)
        trace = lungmix_trace(request(a, b, seed=29))
        assert len(trace.mask) == 5000
        assert len(trace.mixed) == 5000

    def test_loudness_stats_computed_before_padding(self):
        # quiet short signal with one mild spike: against its own statistics
        # the spike is loud, but zeros after padding would dilute them
        x = np.full(100, 0.01)
        x[50] = 0.2
        b = Waveform(x, 16000)
        a = noise_wave(30, n=10000, amp=0.3)
        trace = lungmix_trace(request(a, b, seed=31))
        assert trace.mask_b[50]
        assert not trace.mask_b[100:].any()

    def test_mask_lambda_matches_provenance(self):
        a, b = noise_wave(32), noise_wave(33)
        res = lungmix(request(a, b, seed=34))
        trace = lungmix_trace(request(a, b, seed=34))
        assert res.provenance.lam == trace.lam

    def test_rate_mismatch_raises(self):
        a = noise_wave(35)
        b = Waveform(np.zeros(4000), 8000)
        with pytest.raises(RateMismatch):
            request(a, b)

    def test_wrong_strategy_raises(self):
        a, b = noise_wave(36), noise_wave(37)
        with pytest.raises(InvalidConfig):
            lungmix_trace(request(a, b, strategy="mixup"))

    def test_given_loudness_masks_are_used_as_they_are(self):
        a, b = noise_wave(38, n=3000), noise_wave(39, n=5000)
        computed = lungmix_trace(request(a, b, seed=40))
        given = replace(request(a, b, seed=40), loudness=(loudness_mask(a), loudness_mask(b)))
        assert lungmix(given).audio.samples.tobytes() == computed.mixed.samples.tobytes()
        quiet = replace(given, loudness=(np.zeros(3000, bool), np.zeros(5000, bool)))
        trace = lungmix_trace(quiet)
        assert not (trace.mask_a | trace.mask_b).any()
        assert lungmix(quiet).audio.samples.tobytes() == trace.mixed.samples.tobytes()

    def test_loudness_masks_must_fit_a_lungmix_request(self):
        a, b = noise_wave(41), noise_wave(42)
        masks = (loudness_mask(a), loudness_mask(b))
        with pytest.raises(InvalidConfig):
            replace(request(a, b, strategy="mixup"), loudness=masks)
        with pytest.raises(ShapeMismatch):
            replace(request(a, b), loudness=(masks[0], masks[1][:10]))

    def test_roll_is_lungmix_only(self):
        a, b = noise_wave(43), noise_wave(44)
        with pytest.raises(InvalidConfig):
            replace(request(a, b, strategy="mixup"), roll=True)

    def test_trace_and_mix_roll_and_blend_alike(self):
        a, b = noise_wave(45, n=3000), noise_wave(46, n=5000)
        req = replace(request(a, b, seed=47), roll=True)
        res, trace = lungmix(req), lungmix_trace(req)
        assert trace.mixed.samples.tobytes() == res.audio.samples.tobytes()
        prov = res.provenance
        side = {"a": (a, trace.audio_a, trace.mask_a), "b": (b, trace.audio_b, trace.mask_b)}
        source, placed, mask = side[prov.rolled]
        rolled = np.roll(source.samples, prov.roll_offset)
        assert placed.samples[: len(source)].tobytes() == rolled.tobytes()
        assert np.array_equal(mask[: len(source)], np.roll(loudness_mask(source), prov.roll_offset))
        unrolled = mix(replace(req, roll=False)).provenance
        assert unrolled.rolled is None
        assert prov == replace(unrolled, rolled=prov.rolled, roll_offset=prov.roll_offset)


def wave_with_zeros(seed, n):
    """Noise with loud spikes, and samples of +0.0 and -0.0, whose signs a
    copy-exact blend must keep as `apply_mix_mask` does."""
    x = np.random.default_rng(seed).uniform(-0.1, 0.1, n)
    x[::501] *= 20.0
    x[::89] = 0.0
    x[::97] = -0.0
    return Waveform(x, 16000)


def reference_lungmix(a, b, lam, rng, params, roll):
    """The lungmix pair through the public reference steps: `np.roll`,
    `pad_to_length`, `random_mask`, `combine_masks` and `apply_mix_mask`."""
    sources, loud = [a, b], [loudness_mask(a), loudness_mask(b)]
    if roll is not None:
        i = "ab".index(roll[0])
        w = sources[i]
        sources[i] = Waveform(np.roll(w.samples, roll[1]), w.sample_rate)
        loud[i] = np.roll(loud[i], roll[1])
    n = max(len(a), len(b))
    a, b = (pad_to_length(w, n, rng) for w in sources)
    mask_a, mask_b = (np.concatenate([m, np.zeros(n - m.size, bool)]) for m in loud)
    rand = random_mask(n, params.random_density, rng)
    return apply_mix_mask(a, b, combine_masks(mask_a, mask_b, rand, lam, params.semantics))


@pytest.mark.parametrize("density", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("lam", [0.0, 0.37, 1.0])
@pytest.mark.parametrize("semantics", SEMANTICS)
def test_blocked_kernel_matches_the_reference(semantics, lam, density):
    """The one-pass kernel gives the reference's bytes at and around block
    boundaries, whichever side is shorter or rolled, at the ends of the roll."""
    params = MixParams(random_density=density, semantics=semantics)
    for n in (MIX_BLOCK - 1, MIX_BLOCK, MIX_BLOCK + 1, 3 * MIX_BLOCK + 7):
        for len_a, len_b in ((n // 2 + 1, n), (n, n // 2 + 1), (n, n)):
            a, b = wave_with_zeros(len_a, len_a), wave_with_zeros(len_b + 1, len_b)
            rolls = [None] + [
                (side, offset) for side, k in (("a", len_a), ("b", len_b)) for offset in (0, k - 1)
            ]
            for roll in rolls:
                got, _ = lungmix_kernel(a, b, lam, np.random.default_rng(n), params, roll=roll)
                want = reference_lungmix(a, b, lam, np.random.default_rng(n), params, roll)
                assert got.samples.tobytes() == want.samples.tobytes(), (n, len_a, len_b, roll)


class TestVanillaMixup:
    def test_lambda_one_returns_a(self):
        a, b = noise_wave(38), noise_wave(39)
        res = vanilla_mixup(request(a, b, strategy="mixup", lam=1.0))
        assert np.array_equal(res.audio.samples, a.samples)

    def test_halfway_arithmetic(self):
        a = Waveform(np.array([2.0]), 16000)
        b = Waveform(np.array([0.0]), 16000)
        res = vanilla_mixup(request(a, b, strategy="mixup", lam=0.5))
        assert np.array_equal(res.audio.samples, [1.0])

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=25)
    def test_symmetry(self, lam):
        a, b = noise_wave(40), noise_wave(41)
        r1 = vanilla_mixup(request(a, b, strategy="mixup", lam=lam))
        r2 = vanilla_mixup(request(b, a, CRACKLE, WHEEZE, strategy="mixup", lam=1.0 - lam))
        assert np.allclose(r1.audio.samples, r2.audio.samples, atol=1e-12, rtol=0.0)

    def test_soft_target_present(self):
        a, b = noise_wave(42), noise_wave(43)
        res = vanilla_mixup(request(a, b, strategy="mixup", interpolation="linear", lam=0.25))
        assert res.soft_target is not None
        assert res.soft_target.lam == 0.25
        assert res.label == WHEEZE  # dominant-weight source


class TestCutmix:
    def test_lambda_one_keeps_a(self):
        a, b = noise_wave(44), noise_wave(45)
        res = mix(request(a, b, strategy="cutmix", lam=1.0))
        assert np.array_equal(res.audio.samples, a.samples)

    def test_lambda_zero_takes_b(self):
        a, b = noise_wave(46), noise_wave(47)
        res = mix(request(a, b, strategy="cutmix", lam=0.0))
        assert np.array_equal(res.audio.samples, b.samples)

    def test_definitional_cut(self):
        a = Waveform(np.arange(8, dtype=float), 16000)
        b = Waveform(np.arange(8, dtype=float) + 100.0, 16000)
        out, lam_eff = cutmix_kernel(a, b, 0.75, FixedOffsetRng(2), MixParams())
        assert np.array_equal(out.samples, [0, 1, 102, 103, 4, 5, 6, 7])
        assert lam_eff == 0.75

    def test_samples_verbatim_from_inputs(self):
        a, b = noise_wave(48), noise_wave(49)
        res = mix(request(a, b, strategy="cutmix", seed=50))
        from_a = res.audio.samples == a.samples
        from_b = res.audio.samples == b.samples
        assert np.all(from_a | from_b)
        # cut is one contiguous run of b
        edges = np.flatnonzero(np.diff(from_b.astype(int)))
        assert edges.size <= 2


class TestPatchmix:
    def test_lambda_one_keeps_a(self):
        s_a, s_b = noise_spec(51), noise_spec(52)
        res = mix(request(s_a, s_b, strategy="patchmix", lam=1.0))
        assert np.array_equal(res.audio.bins, s_a.bins)

    def test_lambda_zero_takes_b(self):
        s_a, s_b = noise_spec(53), noise_spec(54)
        res = mix(request(s_a, s_b, strategy="patchmix", lam=0.0))
        assert np.array_equal(res.audio.bins, s_b.bins)

    @pytest.mark.parametrize("lam", [0.1, 0.33, 0.5, 0.9])
    def test_replaced_fraction_within_one_patch(self, lam):
        s_a, s_b = noise_spec(55), noise_spec(56)
        res = mix(request(s_a, s_b, strategy="patchmix", lam=lam, seed=57))
        replaced = 0
        for r in range(0, 128, 16):
            for c in range(0, 1024, 16):
                patch = res.audio.bins[r : r + 16, c : c + 16]
                if np.array_equal(patch, s_b.bins[r : r + 16, c : c + 16]):
                    replaced += 1
        n_patches = (128 // 16) * (1024 // 16)
        assert abs(replaced / n_patches - (1.0 - lam)) <= 1.0 / n_patches

    def test_preserve_mode_keeps_first_label(self):
        s_a, s_b = noise_spec(58), noise_spec(59)
        res = mix(request(s_a, s_b, strategy="patchmix", interpolation="preserve", seed=60))
        assert res.label == CRACKLE

    def test_shape_mismatch_raises(self):
        s_a = noise_spec(61)
        s_b = Spectrogram(np.zeros((64, 1024)))
        with pytest.raises(ShapeMismatch):
            mix(request(s_a, s_b, strategy="patchmix"))


class TestDispatch:
    def test_mix_routes_by_strategy(self):
        a, b = noise_wave(62), noise_wave(63)
        for strategy in ("lungmix", "mixup", "cutmix"):
            res = mix(request(a, b, strategy=strategy, seed=64))
            assert res.provenance.strategy == strategy

    def test_patchmix_not_dispatchable_from_waveforms(self):
        a, b = noise_wave(65), noise_wave(66)
        with pytest.raises(InvalidConfig):
            mix(request(a, b, strategy="patchmix", seed=67))
        with pytest.raises(InvalidConfig):
            mix(request(noise_spec(68), noise_spec(69), strategy="lungmix"))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_label_follows_interpolation_mode(self, strategy, mode):
        """crackle + wheeze at lam 0.25: every strategy resolves the label
        under the requested mode (each kernel keeps exactly a quarter of a)."""
        make = noise_spec if strategy == "patchmix" else noise_wave
        req = request(make(70), make(71), strategy=strategy, interpolation=mode, lam=0.25)
        res = mix(req)
        expected = {
            "nonlinear": ("both", False),
            "combined": ("both", True),
            "preserve": ("crackle", False),
            "linear": ("wheeze", True),  # dominant-weight source
        }[mode]
        assert (res.label.name, res.soft_target is not None) == expected
        if res.soft_target is not None:
            assert res.soft_target == SoftTriple(CRACKLE, WHEEZE, 0.25)
        assert (res.provenance.strategy, res.provenance.interpolation) == (strategy, mode)
