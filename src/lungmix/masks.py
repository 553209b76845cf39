"""Loudness masks, random masks, and the three-valued mix mask.

The mix mask takes values in {0, lam, 1} exactly: lam marks positions where
either source is a loudness outlier (its salient events), 1/0 split the
remaining positions between the two sources via a Bernoulli mask.
"""

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import EmptyAudio, InvalidConfig, ShapeMismatch, check_fields
from .pipeline import Waveform

SEMANTICS = ("loudness_precedence", "max")


@dataclass(frozen=True)
class MixParams:
    """Knobs for one mixing request.

    `lam` is normally drawn from Beta(alpha, alpha) at mix time; setting it
    pins the mixing coefficient instead.
    """

    alpha: float = 1.0
    lam: float | None = None
    seed: int = 0
    random_density: float = 0.5
    semantics: Literal[SEMANTICS] = "loudness_precedence"

    def __post_init__(self):
        check_fields(self)
        if self.alpha <= 0:
            raise InvalidConfig(f"alpha must be positive, got {self.alpha}")
        if self.lam is not None and not (0.0 <= self.lam <= 1.0):
            raise InvalidConfig(f"lam must lie in [0, 1], got {self.lam}")
        if not (0.0 <= self.random_density <= 1.0):
            raise InvalidConfig(f"random_density must lie in [0, 1], got {self.random_density}")


@dataclass(frozen=True, eq=False)
class MixMask:
    """Per-sample mask whose values are exactly {0, lam, 1}."""

    values: np.ndarray
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))

    def __len__(self):
        return self.values.size


def sample_lambda(alpha: float, rng: np.random.Generator) -> float:
    """Draw the mixing coefficient from Beta(alpha, alpha)."""
    if alpha <= 0:
        raise InvalidConfig(f"alpha must be positive, got {alpha}")
    return float(rng.beta(alpha, alpha))


def loudness_mask(w: Waveform) -> np.ndarray:
    """Boolean mask of amplitude outliers: |x[t]| > |mean(x) + 2 * std(x)|.

    std is the population standard deviation; the inequality is strict, so a
    constant signal yields an all-zero mask.
    """
    if len(w) == 0:
        raise EmptyAudio("cannot compute loudness mask of empty waveform")
    x = w.samples
    threshold = abs(float(np.mean(x)) + 2.0 * float(np.std(x)))
    return np.abs(x) > threshold


def random_mask(length: int, density: float, rng: np.random.Generator) -> np.ndarray:
    """Independent per-sample Bernoulli mask: bit set iff U(0,1) > 1 - density."""
    if length <= 0:
        raise InvalidConfig(f"mask length must be positive, got {length}")
    if not (0.0 <= density <= 1.0):
        raise InvalidConfig(f"density must lie in [0, 1], got {density}")
    return rng.random(length) > 1.0 - density


def combine_masks(
    m_i: np.ndarray,
    m_j: np.ndarray,
    r: np.ndarray,
    lam: float,
    semantics: str = "loudness_precedence",
) -> MixMask:
    """Merge two loudness masks and a random mask into the mix mask.

    loudness_precedence: lam wherever m_i OR m_j is set, else 1 where r is
    set, else 0. max: max(lam * (m_i OR m_j), r), which puts 1 wherever r is
    set. Both produce values in {0, lam, 1} exactly.
    """
    m_i = np.asarray(m_i, dtype=bool)
    m_j = np.asarray(m_j, dtype=bool)
    r = np.asarray(r, dtype=bool)
    if not (m_i.shape == m_j.shape == r.shape):
        raise ShapeMismatch(
            f"mask lengths differ: {m_i.shape}, {m_j.shape}, {r.shape}"
        )
    if not (0.0 <= lam <= 1.0):
        raise InvalidConfig(f"lam must lie in [0, 1], got {lam}")
    union = m_i | m_j
    if semantics == "loudness_precedence":
        values = np.where(union, lam, r)
    elif semantics == "max":
        values = np.maximum(lam * union, r)
    else:
        raise InvalidConfig(f"unknown mask semantics {semantics!r}")
    return MixMask(values, lam)
