"""Label powerset algebra, interpolation modes, and reference losses.

Labels are bitsets over the abnormal base classes; the all-zero bitset is the
normal class. Treating every bitset as its own category turns the multi-label
view into a multi-class one with 2**k categories for k abnormal base classes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, NumericalError, SchemaMismatch, ShapeMismatch, check_fields

MODES = ("linear", "nonlinear", "combined", "preserve")


@dataclass(frozen=True)
class LabelSchema:
    """Abnormal base classes plus display names for their combinations."""

    abnormal_names: tuple[str, ...] = ("crackle", "wheeze")
    normal_name: str = "normal"
    composite_names: tuple[tuple[tuple[str, ...], str], ...] = (
        (("crackle", "wheeze"), "both"),
    )

    def __post_init__(self):
        if len(set(self.abnormal_names)) != len(self.abnormal_names):
            raise InvalidConfig("abnormal class names must be unique")
        if self.normal_name in self.abnormal_names:
            raise InvalidConfig("normal class name collides with an abnormal name")

    @property
    def n_classes(self) -> int:
        """Base classes: normal plus the abnormal ones."""
        return len(self.abnormal_names) + 1

    @property
    def n_categories(self) -> int:
        """Powerset categories, one per abnormal-class subset (empty = normal)."""
        return 2 ** len(self.abnormal_names)

    def category_name(self, bits: int) -> str:
        if not 0 <= bits < self.n_categories:
            raise InvalidConfig(f"bitset {bits} out of range for schema")
        names = tuple(
            name for i, name in enumerate(self.abnormal_names) if bits >> i & 1
        )
        if not names:
            return self.normal_name
        if len(names) == 1:
            return names[0]
        for combo, alias in self.composite_names:
            if tuple(sorted(combo)) == tuple(sorted(names)):
                return alias
        return "+".join(names)

    def categories(self) -> tuple[str, ...]:
        """All category names, ordered by bitset value (index == bitset)."""
        return tuple(self.category_name(b) for b in range(self.n_categories))

    def vector(self, name: str) -> "LabelVector":
        """Decode a category name back to its bitset (inverse of category_name)."""
        for bits in range(self.n_categories):
            if self.category_name(bits) == name:
                return LabelVector(bits, self)
        raise InvalidConfig(f"unknown category name {name!r} for schema")


FOUR_CLASS = LabelSchema()


@dataclass(frozen=True)
class LabelVector:
    """Bitset over the schema's abnormal classes; all-zero means normal."""

    bits: int
    schema: LabelSchema = FOUR_CLASS

    def __post_init__(self):
        if not 0 <= self.bits < self.schema.n_categories:
            raise InvalidConfig(f"bitset {self.bits} out of range for schema")

    @property
    def name(self) -> str:
        return self.schema.category_name(self.bits)


@dataclass(frozen=True)
class SoftTriple:
    """Linear-interpolation target: both source labels plus the coefficient."""

    y_a: LabelVector
    y_b: LabelVector
    lam: float


@dataclass(frozen=True)
class InterpolatedLabel:
    hard: LabelVector | None
    soft: SoftTriple | None


@dataclass(frozen=True)
class LossWeights:
    """Weight of the mixup term in the combined loss, whose CE term always has
    weight 1; lambda2=None applies the rescale rule."""

    lambda2: float | None = None

    def __post_init__(self):
        check_fields(self)


def _check_schema(y_a: LabelVector, y_b: LabelVector) -> None:
    if y_a.schema != y_b.schema:
        raise SchemaMismatch("label vectors belong to different schemas")


def unify_or(y_a: LabelVector, y_b: LabelVector) -> LabelVector:
    """Bitwise OR of the two label bitsets."""
    _check_schema(y_a, y_b)
    return LabelVector(y_a.bits | y_b.bits, y_a.schema)


def interpolate_label(
    y_a: LabelVector, y_b: LabelVector, lam: float, mode: str
) -> InterpolatedLabel:
    """Resolve the mixed label under one of the four interpolation modes.

    linear keeps only the soft (y_a, y_b, lam) triple; nonlinear keeps only
    the hard OR label; preserve keeps y_a unchanged; combined carries both.
    """
    _check_schema(y_a, y_b)
    if mode == "linear":
        return InterpolatedLabel(hard=None, soft=SoftTriple(y_a, y_b, lam))
    if mode == "nonlinear":
        return InterpolatedLabel(hard=unify_or(y_a, y_b), soft=None)
    if mode == "preserve":
        return InterpolatedLabel(hard=y_a, soft=None)
    if mode == "combined":
        return InterpolatedLabel(hard=unify_or(y_a, y_b), soft=SoftTriple(y_a, y_b, lam))
    raise InvalidConfig(f"unknown interpolation mode {mode!r}")


def cross_entropy(logits, y: LabelVector) -> float:
    """Softmax cross-entropy (natural log) against the category of `y`."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(logits).all():
        raise NumericalError("logits contain NaN or Inf")
    if logits.shape != (y.schema.n_categories,):
        raise ShapeMismatch(
            f"expected {y.schema.n_categories} logits, got shape {logits.shape}"
        )
    shifted = logits - logits.max()
    log_softmax = shifted - math.log(np.exp(shifted).sum())
    return float(-log_softmax[y.bits])


def mixup_loss(logits, y_a: LabelVector, y_b: LabelVector, lam: float) -> float:
    """lam * CE(logits, y_a) + (1 - lam) * CE(logits, y_b)."""
    _check_schema(y_a, y_b)
    if not (0.0 <= lam <= 1.0):
        raise InvalidConfig(f"lam must lie in [0, 1], got {lam}")
    return lam * cross_entropy(logits, y_a) + (1.0 - lam) * cross_entropy(logits, y_b)


def lungmix_loss(
    logits,
    y_a: LabelVector,
    y_b: LabelVector,
    lam: float,
    weights: LossWeights = LossWeights(),
) -> float:
    """CE against the OR label plus the rescaled linear mixup term.

    Under the rescale rule (lambda2=None) the mixup term is scaled by the
    plain-number ratio CE_term / mixup_term, making both contributions
    numerically equal; a zero mixup term contributes nothing.
    """
    ce_term = cross_entropy(logits, unify_or(y_a, y_b))
    mix_term = mixup_loss(logits, y_a, y_b, lam)
    if weights.lambda2 is not None:
        lam2 = weights.lambda2
    elif mix_term == 0.0:
        lam2 = 0.0
    else:
        lam2 = ce_term / mix_term
    return ce_term + lam2 * mix_term
