"""Deterministic waveform-mixing augmentation for respiratory sound corpora."""

from .errors import (
    EmptyAudio,
    InvalidConfig,
    LungmixError,
    MissingAudio,
    NumericalError,
    ParseError,
    RateMismatch,
    SchemaMismatch,
    ShapeMismatch,
    UnknownLabel,
)
from .labels import (
    FOUR_CLASS,
    InterpolatedLabel,
    LabelSchema,
    LabelVector,
    LossWeights,
    SoftTriple,
    interpolate_label,
    lungmix_loss,
    mixup_loss,
    unify_or,
)
from .masks import MixMask, MixParams, combine_masks, loudness_mask, random_mask, sample_lambda
from .metrics import MetricsReport, confusion, score
from .mixing import (
    MixRequest,
    MixResult,
    Provenance,
    apply_mix_mask,
    lungmix,
    lungmix_trace,
    mix,
    patchmix,
    shift_roll_pair,
    vanilla_mixup,
)
from .pipeline import (
    PipelineConfig,
    Spectrogram,
    Waveform,
    bandpass,
    fit_length,
    mel_spectrogram,
    normalize_spectrogram,
    preprocess,
    resample,
)
from .synth import SynthSpec, make_corpus, synth

__version__ = "0.1.0"
