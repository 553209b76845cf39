"""Waveform and spectrogram mixing strategies.

Every strategy is a kernel `(a, b, lam, rng, params) -> (audio, lam_eff)`:
`lungmix_kernel` blends two waveforms through the three-valued mask built
from their loudness outliers and a Bernoulli mask; `mixup_kernel`,
`cutmix_kernel` and `patchmix` are the reference baselines. `mix` is the one
entry point: it draws lambda, runs the kernel, resolves the label under the
request's interpolation mode and records provenance. Everything is a pure
function of the request, so identical requests regenerate bit-identical output.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyAudio, InvalidConfig, RateMismatch, ShapeMismatch
from .labels import LabelVector, SoftTriple, interpolate_label
from .masks import MixMask, MixParams, combine_masks, loudness_mask, random_mask, sample_lambda
from .pipeline import Spectrogram, Waveform, pad_to_length
from .rng import derive_rng

STRATEGIES = ("lungmix", "mixup", "cutmix", "patchmix")
PATCH_SIZE = 16  # side of the square spectrogram patches patchmix swaps


@dataclass(frozen=True, eq=False)
class MixRequest:
    """Two labelled sources plus how to mix them.

    patchmix mixes spectrograms; every other strategy mixes waveforms.
    `loudness`, lungmix only, holds `loudness_mask` of each source when the
    caller already has them; otherwise the kernel computes them.
    """

    audio_a: Waveform | Spectrogram
    label_a: LabelVector
    audio_b: Waveform | Spectrogram
    label_b: LabelVector
    params: MixParams
    strategy: str = "lungmix"
    interpolation: str = "nonlinear"
    id_a: str = ""
    id_b: str = ""
    loudness: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise InvalidConfig(f"unknown strategy {self.strategy!r}")
        kind = Spectrogram if self.strategy == "patchmix" else Waveform
        for source in (self.audio_a, self.audio_b):
            if not isinstance(source, kind):
                raise InvalidConfig(
                    f"strategy {self.strategy!r} mixes {kind.__name__} sources, "
                    f"got {type(source).__name__}"
                )
        if kind is Waveform and self.audio_a.sample_rate != self.audio_b.sample_rate:
            raise RateMismatch(
                f"sources differ in rate: {self.audio_a.sample_rate} vs "
                f"{self.audio_b.sample_rate} Hz"
            )
        if self.loudness is not None:
            if self.strategy != "lungmix":
                raise InvalidConfig(f"strategy {self.strategy!r} takes no loudness masks")
            if [m.shape for m in self.loudness] != [(len(self.audio_a),), (len(self.audio_b),)]:
                raise ShapeMismatch("loudness masks must match their sources' lengths")


@dataclass(frozen=True)
class Provenance:
    """Everything needed to regenerate one augmented record bit-exactly."""

    source_a: str
    source_b: str
    strategy: str
    interpolation: str
    alpha: float
    lam: float
    seed: int
    semantics: str | None = None
    rolled: str | None = None
    roll_offset: int | None = None


@dataclass(frozen=True, eq=False)
class MixResult:
    audio: Waveform | Spectrogram
    label: LabelVector
    soft_target: SoftTriple | None
    provenance: Provenance


@dataclass(frozen=True, eq=False)
class LungmixTrace:
    """Intermediate mask state, exposed for inspection and oracle tests."""

    audio_a: Waveform
    audio_b: Waveform
    mask_a: np.ndarray
    mask_b: np.ndarray
    rand: np.ndarray
    mask: MixMask
    lam: float
    mixed: Waveform


def shift_roll_pair(
    a: Waveform, b: Waveform, rng: np.random.Generator
) -> tuple[Waveform, Waveform, str, int]:
    """Roll one of the two waveforms, chosen by a seeded coin flip.

    The roll is circular, by a uniform offset in [0, len). Returns the pair
    plus which side was rolled and by how much.
    """
    if len(a) == 0 or len(b) == 0:
        raise EmptyAudio("cannot roll empty waveform")
    target = "b" if rng.integers(0, 2) == 0 else "a"
    w = b if target == "b" else a
    offset = int(rng.integers(0, len(w)))
    rolled = Waveform(np.roll(w.samples, offset), w.sample_rate)
    if target == "b":
        return a, rolled, target, offset
    return rolled, b, target, offset


def apply_mix_mask(a: Waveform, b: Waveform, mask: MixMask) -> Waveform:
    """Per-sample blend m[t] * a[t] + (1 - m[t]) * b[t].

    Since the mask holds exactly {0, lam, 1}, the 0/1 positions copy their
    source's value exactly (a zero may change sign), and lam positions
    evaluate lam * a[t] + (1 - lam) * b[t].
    """
    if a.sample_rate != b.sample_rate:
        raise RateMismatch("cannot blend waveforms with different rates")
    if not (len(a) == len(b) == len(mask)):
        raise ShapeMismatch(
            f"lengths differ: a={len(a)}, b={len(b)}, mask={len(mask)}"
        )
    m = mask.values
    out = m * a.samples
    rest = 1.0 - m
    rest *= b.samples
    out += rest
    return Waveform(out, a.sample_rate)


def _pad_pair(
    a: Waveform, b: Waveform, rng: np.random.Generator
) -> tuple[Waveform, Waveform]:
    """Noise-pad the shorter waveform to the longer one's length (a draws first)."""
    n = max(len(a), len(b))
    return (
        pad_to_length(a, n, rng),
        pad_to_length(b, n, rng),
    )


def _lungmix_masks(
    a: Waveform,
    b: Waveform,
    lam: float,
    rng: np.random.Generator,
    params: MixParams,
    loudness: tuple[np.ndarray, np.ndarray] | None = None,
) -> LungmixTrace:
    """The lungmix kernel with every intermediate mask kept.

    Loudness statistics are taken on the unpadded sources, and padded
    positions never count as loud. `loudness` supplies the sources'
    `loudness_mask`s; they are computed here only when it is None.
    """
    loud_a, loud_b = (loudness_mask(a), loudness_mask(b)) if loudness is None else loudness
    a, b = _pad_pair(a, b, rng)
    n = len(a)
    mask_a = np.concatenate([loud_a, np.zeros(n - loud_a.size, dtype=bool)])
    mask_b = np.concatenate([loud_b, np.zeros(n - loud_b.size, dtype=bool)])
    rand = random_mask(n, params.random_density, rng)
    mask = combine_masks(mask_a, mask_b, rand, lam, params.semantics)
    mixed = apply_mix_mask(a, b, mask)
    return LungmixTrace(a, b, mask_a, mask_b, rand, mask, lam, mixed)


def lungmix_kernel(
    a: Waveform,
    b: Waveform,
    lam: float,
    rng: np.random.Generator,
    params: MixParams,
    loudness: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[Waveform, float]:
    """Mask-based blend: loud events of either source blend, the rest is split
    between the sources by a Bernoulli mask."""
    return _lungmix_masks(a, b, lam, rng, params, loudness).mixed, lam


def mixup_kernel(
    a: Waveform, b: Waveform, lam: float, rng: np.random.Generator, params: MixParams
) -> tuple[Waveform, float]:
    """Convex combination lam * a + (1 - lam) * b."""
    a, b = _pad_pair(a, b, rng)
    return Waveform(lam * a.samples + (1.0 - lam) * b.samples, a.sample_rate), lam


def cutmix_kernel(
    a: Waveform, b: Waveform, lam: float, rng: np.random.Generator, params: MixParams
) -> tuple[Waveform, float]:
    """Replace one contiguous segment of a with the same segment of b.

    The cut spans round((1 - lam) * len) samples at a seeded offset; the
    effective coefficient is the exact surviving fraction of a.
    """
    a, b = _pad_pair(a, b, rng)
    n = len(a)
    seg = int(round((1.0 - lam) * n))
    offset = int(rng.integers(0, n - seg + 1))
    out = a.samples.copy()
    out[offset : offset + seg] = b.samples[offset : offset + seg]
    return Waveform(out, a.sample_rate), 1.0 - seg / n


def patchmix(
    s_a: Spectrogram,
    s_b: Spectrogram,
    lam: float,
    rng: np.random.Generator,
    params: MixParams,
) -> tuple[Spectrogram, float]:
    """Swap a seeded random fraction (1 - lam) of square spectrogram patches.

    The effective coefficient is the exact fraction of patches kept from a.
    """
    if s_a.bins.shape != s_b.bins.shape:
        raise ShapeMismatch(
            f"spectrogram shapes differ: {s_a.bins.shape} vs {s_b.bins.shape}"
        )
    rows, cols = s_a.bins.shape
    if rows % PATCH_SIZE or cols % PATCH_SIZE:
        raise ShapeMismatch(
            f"shape {s_a.bins.shape} not divisible into {PATCH_SIZE}x{PATCH_SIZE} patches"
        )
    grid_r, grid_c = rows // PATCH_SIZE, cols // PATCH_SIZE
    n_patches = grid_r * grid_c
    n_replace = int(round((1.0 - lam) * n_patches))
    swap = np.zeros(n_patches, dtype=bool)
    swap[rng.choice(n_patches, size=n_replace, replace=False)] = True
    out = s_a.bins.copy()
    # patch (i, j) of the grid is [i, :, j, :] of the (grid_r, P, grid_c, P) view
    patches = (grid_r, PATCH_SIZE, grid_c, PATCH_SIZE)
    np.copyto(
        out.reshape(patches), s_b.bins.reshape(patches), where=swap.reshape(grid_r, 1, grid_c, 1)
    )
    return Spectrogram(out), 1.0 - n_replace / n_patches


def _draw_lambda(req: MixRequest) -> tuple[np.random.Generator, float]:
    """The request's random stream, with lambda already drawn from it.

    Stream order per request seed: lambda, padding noise (a then b), then the
    kernel's own draws. Changing this order changes outputs, so it is part of
    the contract.
    """
    rng = derive_rng(req.params.seed)
    if req.params.lam is not None:
        return rng, req.params.lam
    return rng, sample_lambda(req.params.alpha, rng)


def mix(req: MixRequest) -> MixResult:
    """Mix two labelled sources with the request's strategy.

    The label is resolved under `req.interpolation` with the kernel's
    effective coefficient. Linear mode has no merged hard label; the manifest
    then records the label of the dominant-weight source.
    """
    # looked up per call, so wrappers installed on the module are honoured
    kernel = {
        "lungmix": lungmix_kernel,
        "mixup": mixup_kernel,
        "cutmix": cutmix_kernel,
        "patchmix": patchmix,
    }[req.strategy]
    rng, lam = _draw_lambda(req)
    known = {} if req.loudness is None else {"loudness": req.loudness}
    audio, lam_eff = kernel(req.audio_a, req.audio_b, lam, rng, req.params, **known)
    interp = interpolate_label(req.label_a, req.label_b, lam_eff, req.interpolation)
    label = interp.hard
    if label is None:
        label = req.label_a if lam_eff >= 0.5 else req.label_b
    prov = Provenance(
        source_a=req.id_a,
        source_b=req.id_b,
        strategy=req.strategy,
        interpolation=req.interpolation,
        alpha=req.params.alpha,
        lam=lam,
        seed=req.params.seed,
        semantics=req.params.semantics if req.strategy == "lungmix" else None,
    )
    return MixResult(audio, label, interp.soft, prov)


# strategy-named entry points: the request's strategy decides what runs
lungmix = mix
vanilla_mixup = mix


def lungmix_trace(req: MixRequest) -> LungmixTrace:
    """Run the lungmix kernel on a request and keep every intermediate mask."""
    if req.strategy != "lungmix":
        raise InvalidConfig(f"expected strategy 'lungmix', got {req.strategy!r}")
    rng, lam = _draw_lambda(req)
    return _lungmix_masks(req.audio_a, req.audio_b, lam, rng, req.params, req.loudness)
