"""Waveform and spectrogram mixing strategies.

Every strategy is a kernel `(a, b, lam, rng, params) -> (audio, lam_eff)`:
`lungmix_kernel` blends two waveforms through the three-valued mask built
from their loudness outliers and a Bernoulli mask; `mixup_kernel`,
`cutmix_kernel` and `patchmix` are the reference baselines. The three
waveform kernels read each source as `pipeline.placed` lays it out (rolled,
then padded to the longer source's length with noise) through
`pipeline.placed_span`, a span at a time, and write straight into
their output, so none copies a source or mask whole. `mix` is the one
entry point: it draws lambda, runs the kernel, resolves the label under the
request's interpolation mode and records provenance. Everything is a pure
function of the request, so identical requests regenerate bit-identical output.
"""

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import EmptyAudio, InvalidConfig, RateMismatch, ShapeMismatch, check_fields
from .labels import MODES, LabelVector, SoftTriple, interpolate_label
from .masks import MixMask, MixParams, loudness_mask, sample_lambda
from .pipeline import Spectrogram, Waveform, padding, placed_span
from .rng import derive_rng

STRATEGIES = ("lungmix", "mixup", "cutmix", "patchmix")
PATCH_SIZE = 16  # side of the square spectrogram patches patchmix swaps
# samples per block of the lungmix masks and blend, however long the pair
MIX_BLOCK = 1 << 14


@dataclass(frozen=True, eq=False)
class MixRequest:
    """Two labelled sources plus how to mix them.

    patchmix mixes spectrograms; every other strategy mixes waveforms.
    `loudness`, lungmix only, holds `loudness_mask` of each source when the
    caller already has them; otherwise the kernel computes them. `roll`,
    lungmix only, rolls one source, drawn from the "roll" stream of the seed.
    """

    audio_a: Waveform | Spectrogram
    label_a: LabelVector
    audio_b: Waveform | Spectrogram
    label_b: LabelVector
    params: MixParams
    strategy: Literal[STRATEGIES] = "lungmix"
    interpolation: Literal[MODES] = "nonlinear"
    id_a: str = ""
    id_b: str = ""
    loudness: tuple[np.ndarray, np.ndarray] | None = None
    roll: bool = False

    def __post_init__(self):
        check_fields(self)
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
        if self.strategy != "lungmix" and (self.loudness is not None or self.roll):
            raise InvalidConfig(f"strategy {self.strategy!r} takes no loudness masks or roll")
        if self.loudness is not None:
            masks = self.loudness
            if not all(m.dtype == bool and m.ndim == 1 for m in masks):
                raise InvalidConfig("loudness must be two 1-D bool arrays, one per source")
            if [m.size for m in masks] != [len(self.audio_a), len(self.audio_b)]:
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


def _draw_roll(a: Waveform, b: Waveform, rng: np.random.Generator) -> tuple[str, int]:
    """Which of the two waveforms to roll, by a seeded coin flip, and by a
    uniform offset in [0, len)."""
    if len(a) == 0 or len(b) == 0:
        raise EmptyAudio("cannot roll empty waveform")
    target = "b" if rng.integers(0, 2) == 0 else "a"
    return target, int(rng.integers(0, len(b) if target == "b" else len(a)))


def shift_roll_pair(
    a: Waveform, b: Waveform, rng: np.random.Generator
) -> tuple[Waveform, Waveform, str, int]:
    """Roll one of the two waveforms, chosen by a seeded coin flip.

    The roll is circular, by a uniform offset in [0, len). Returns the pair
    plus which side was rolled and by how much.
    """
    target, offset = _draw_roll(a, b, rng)
    w = b if target == "b" else a
    rolled = Waveform(np.roll(w.samples, offset), w.sample_rate)
    return (a, rolled, target, offset) if target == "b" else (rolled, b, target, offset)


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
    return Waveform(m * a.samples + (1.0 - m) * b.samples, a.sample_rate)


def _sides(
    a: Waveform, b: Waveform, rng: np.random.Generator, offsets: tuple[int, int] = (0, 0)
) -> tuple[int, tuple[tuple, tuple]]:
    """The pair's length and, per source, what `placed_span` reads of it
    placed at that length: its samples, its padding noise (a draws first)
    and its roll offset."""
    n = max(len(a), len(b))
    return n, tuple((w.samples, padding(len(w), n, rng), k) for w, k in zip((a, b), offsets))


def _lungmix_pass(
    a: Waveform, b: Waveform, lam: float, rng: np.random.Generator, params: MixParams,
    loudness: tuple[np.ndarray, np.ndarray] | None, roll: tuple[str, int] | None, block: int,
) -> tuple[np.ndarray, ...]:
    """The lungmix kernel in one pass: the placed sources, their loudness
    masks, the Bernoulli mask and the mix mask of the last block, and the
    blend, as arrays.

    `roll` (side, offset) rolls a source with its loudness mask, computed on
    the unpadded source unless `loudness` holds both; padding is never loud.
    Per sample the masks and blend do `combine_masks`'s and
    `apply_mix_mask`'s operations, `block` samples at a time into the output,
    reading each block of the placed sources and masks through `placed_span`;
    only a `block` covering the pair keeps them whole.
    """
    loudness = (loudness_mask(a), loudness_mask(b)) if loudness is None else loudness
    offsets = tuple(roll[1] if roll and roll[0] == side else 0 for side in "ab")
    n, (side_a, side_b) = _sides(a, b, rng, offsets)
    loud_a, loud_b = ((m, None, k) for m, k in zip(loudness, offsets))
    size = min(block, n)
    buf_a, buf_b, values, rest = (np.empty(size) for _ in range(4))
    mask_a, mask_b, union, rand = (np.empty(size, dtype=bool) for _ in range(4))
    out = np.empty(n)
    cut = 1.0 - params.random_density
    for start in range(0, max(n, 1), block):  # an empty pair runs one empty block
        k = min(block, n - start)
        r, m, u, un = rand[:k], values[:k], rest[:k], union[:k]
        np.greater(rng.random(out=u), cut, out=r)
        m_a = placed_span(*loud_a, start, mask_a[:k])
        m_b = placed_span(*loud_b, start, mask_b[:k])
        np.bitwise_or(m_a, m_b, out=un)
        if params.semantics == "max":
            np.maximum(np.multiply(un, lam, out=m), r, out=m)
        else:
            np.copyto(m, r)
            np.copyto(m, lam, where=un)
        x_a = placed_span(*side_a, start, buf_a[:k])
        x_b = placed_span(*side_b, start, buf_b[:k])
        np.multiply(m, x_a, out=out[start : start + k])
        np.subtract(1.0, m, out=u)
        u *= x_b
        out[start : start + k] += u
    return x_a, x_b, m_a, m_b, r, m, out


def lungmix_kernel(
    a: Waveform,
    b: Waveform,
    lam: float,
    rng: np.random.Generator,
    params: MixParams,
    loudness: tuple[np.ndarray, np.ndarray] | None = None,
    roll: tuple[str, int] | None = None,
) -> tuple[Waveform, float]:
    """Mask-based blend: loud events of either source blend, the rest is split
    between the sources by a Bernoulli mask."""
    out = _lungmix_pass(a, b, lam, rng, params, loudness, roll, MIX_BLOCK)[-1]
    return Waveform(out, a.sample_rate), lam


def mixup_kernel(
    a: Waveform, b: Waveform, lam: float, rng: np.random.Generator, params: MixParams
) -> tuple[Waveform, float]:
    """Convex combination lam * a + (1 - lam) * b, `MIX_BLOCK` samples at a
    time into the output."""
    n, (side_a, side_b) = _sides(a, b, rng)
    buf, out = np.empty(min(MIX_BLOCK, n)), np.empty(n)
    for start in range(0, n, MIX_BLOCK):
        here, t = out[start : start + MIX_BLOCK], buf[: n - start]
        np.multiply(lam, placed_span(*side_a, start, here), out=here)
        here += np.multiply(1.0 - lam, placed_span(*side_b, start, t), out=t)
    return Waveform(out, a.sample_rate), lam


def _share(lam: float, n: int) -> tuple[int, float]:
    """The round((1 - lam) * n) of `n` units that a cut replaces, and the
    exact fraction of them kept: `lam` itself when there are none."""
    k = int(round((1.0 - lam) * n))
    return k, 1.0 - k / n if n else lam


def cutmix_kernel(
    a: Waveform, b: Waveform, lam: float, rng: np.random.Generator, params: MixParams
) -> tuple[Waveform, float]:
    """Replace one contiguous segment of a with the same segment of b.

    The cut spans round((1 - lam) * len) samples at a seeded offset; the
    effective coefficient is the exact surviving fraction of a.
    """
    n, sides = _sides(a, b, rng)
    seg, kept = _share(lam, n)
    offset = int(rng.integers(0, n - seg + 1))
    out = np.empty(n)
    # a's placed samples, then b's over the cut, each written once into `out`
    for side, start, dest in zip(sides, (0, offset), (out, out[offset : offset + seg])):
        span = placed_span(*side, start, dest)
        if span is not dest:
            dest[:] = span
    return Waveform(out, a.sample_rate), kept


def patchmix(
    s_a: Spectrogram,
    s_b: Spectrogram,
    lam: float,
    rng: np.random.Generator,
    params: MixParams,
) -> tuple[Spectrogram, float]:
    """Swap a seeded random fraction (1 - lam) of square spectrogram patches,
    in the sources' dtype.

    The effective coefficient is the exact fraction of patches kept from a.
    """
    if s_a.bins.dtype != s_b.bins.dtype:
        raise InvalidConfig(f"spectrogram dtypes differ: {s_a.bins.dtype} vs {s_b.bins.dtype}")
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
    n_replace, kept = _share(lam, n_patches)
    swap = np.zeros(n_patches, dtype=bool)
    swap[rng.choice(n_patches, size=n_replace, replace=False)] = True
    out = s_a.bins.copy()
    # patch (i, j) of the grid is [i, :, j, :] of the (grid_r, P, grid_c, P) view
    patches = (grid_r, PATCH_SIZE, grid_c, PATCH_SIZE)
    np.copyto(
        out.reshape(patches), s_b.bins.reshape(patches), where=swap.reshape(grid_r, 1, grid_c, 1)
    )
    return Spectrogram(out), kept


def _draws(req: MixRequest) -> tuple[np.random.Generator, float, tuple[str, int] | None]:
    """The request's random stream, with lambda already drawn from it, and
    the (side, offset) of its roll, if any, from its own "roll" stream.

    Stream order per request seed: lambda, padding noise (a then b), then the
    kernel's own draws. Changing this order changes outputs, so it is part of
    the contract.
    """
    rng = derive_rng(req.params.seed)
    lam = sample_lambda(req.params.alpha, rng) if req.params.lam is None else req.params.lam
    if not req.roll:
        return rng, lam, None
    return rng, lam, _draw_roll(req.audio_a, req.audio_b, derive_rng(req.params.seed, "roll"))


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
    rng, lam, roll = _draws(req)
    rolled, roll_offset = roll or (None, None)
    known = {"loudness": req.loudness, "roll": roll} if req.strategy == "lungmix" else {}
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
        rolled=rolled,
        roll_offset=roll_offset,
    )
    return MixResult(audio, label, interp.soft, prov)


# strategy-named entry points: the request's strategy decides what runs
lungmix = mix
vanilla_mixup = mix


def lungmix_trace(req: MixRequest) -> LungmixTrace:
    """Run the lungmix kernel on a request and keep every intermediate mask."""
    if req.strategy != "lungmix":
        raise InvalidConfig(f"expected strategy 'lungmix', got {req.strategy!r}")
    a, b = req.audio_a, req.audio_b
    rng, lam, roll = _draws(req)
    n = max(len(a), len(b), 1)  # one block covering the pair keeps every mask whole
    x_a, x_b, *masks, values, out = _lungmix_pass(a, b, lam, rng, req.params, req.loudness, roll, n)
    x_a, x_b, out = (Waveform(x, a.sample_rate) for x in (x_a, x_b, out))
    return LungmixTrace(x_a, x_b, *masks, MixMask(values, lam), lam, out)
