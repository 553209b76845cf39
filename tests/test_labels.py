"""Label powerset algebra and reference losses against closed-form oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lungmix.errors import InvalidConfig, NumericalError, SchemaMismatch
from lungmix.labels import (
    FOUR_CLASS,
    LabelSchema,
    LabelVector,
    LossWeights,
    cross_entropy,
    interpolate_label,
    lungmix_loss,
    mixup_loss,
    unify_or,
)

NAMES = ("normal", "crackle", "wheeze", "both")
SETS = {"normal": frozenset(), "crackle": frozenset({"c"}), "wheeze": frozenset({"w"}),
        "both": frozenset({"c", "w"})}
SET_TO_NAME = {v: k for k, v in SETS.items()}


def vec(name: str) -> LabelVector:
    return FOUR_CLASS.vector(name)


class TestUnifyOr:
    @pytest.mark.parametrize("a", NAMES)
    @pytest.mark.parametrize("b", NAMES)
    def test_exhaustive_table_matches_set_union(self, a, b):
        expected = SET_TO_NAME[SETS[a] | SETS[b]]
        assert unify_or(vec(a), vec(b)).name == expected

    def test_crackle_wheeze_is_both(self):
        assert unify_or(vec("crackle"), vec("wheeze")).name == "both"

    @pytest.mark.parametrize("k", NAMES)
    def test_normal_is_identity(self, k):
        assert unify_or(vec("normal"), vec(k)).name == k
        assert unify_or(vec(k), vec("normal")).name == k

    def test_algebra_laws_exhaustive(self):
        for a, b, c in itertools.product(NAMES, repeat=3):
            va, vb, vc = vec(a), vec(b), vec(c)
            assert unify_or(va, vb) == unify_or(vb, va)
            assert unify_or(unify_or(va, vb), vc) == unify_or(va, unify_or(vb, vc))
            assert unify_or(va, va) == va

    def test_schema_mismatch_raises(self):
        other = LabelSchema(abnormal_names=("crackle", "wheeze", "stridor"), composite_names=())
        with pytest.raises(SchemaMismatch):
            unify_or(vec("crackle"), other.vector("crackle"))


class TestPowerset:
    @pytest.mark.parametrize("n_abnormal", [2, 3, 4, 5])
    def test_category_count_by_enumeration(self, n_abnormal):
        names = tuple(f"ab{i}" for i in range(n_abnormal))
        schema = LabelSchema(abnormal_names=names, composite_names=())
        # oracle: enumerate every subset of the abnormal classes
        subsets = [
            combo
            for size in range(n_abnormal + 1)
            for combo in itertools.combinations(names, size)
        ]
        assert len(subsets) == 2**n_abnormal
        assert schema.n_categories == len(subsets)
        assert len(set(schema.categories())) == len(subsets)

    def test_three_abnormal_mixture_count(self):
        # 3 abnormal base classes: 8 categories, 4 of them mix >= 2 classes
        names = ("a", "b", "c")
        schema = LabelSchema(abnormal_names=names, composite_names=())
        mixtures = [
            combo for size in range(2, 4) for combo in itertools.combinations(names, size)
        ]
        assert schema.n_categories == 8
        assert len(mixtures) == 4

    def test_four_class_system(self):
        assert FOUR_CLASS.categories() == ("normal", "crackle", "wheeze", "both")
        assert FOUR_CLASS.n_classes == 3  # normal + 2 abnormal base classes

    def test_empty_bitset_is_normal(self):
        assert LabelVector(0).name == "normal"

    def test_bijection(self):
        for n_abnormal in (2, 3, 4):
            names = tuple(f"ab{i}" for i in range(n_abnormal))
            schema = LabelSchema(abnormal_names=names, composite_names=())
            for bits in range(schema.n_categories):
                name = schema.category_name(bits)
                assert schema.vector(name).bits == bits

    def test_out_of_range_bits_raise(self):
        with pytest.raises(InvalidConfig):
            LabelVector(4, FOUR_CLASS)


class TestInterpolateLabel:
    def test_nonlinear_crackle_wheeze_is_both(self):
        out = interpolate_label(vec("crackle"), vec("wheeze"), 0.4, "nonlinear")
        assert out.hard == vec("both")
        assert out.soft is None

    def test_preserve_keeps_first(self):
        out = interpolate_label(vec("crackle"), vec("wheeze"), 0.4, "preserve")
        assert out.hard == vec("crackle")
        assert out.soft is None

    def test_linear_never_hard(self):
        out = interpolate_label(vec("crackle"), vec("wheeze"), 0.4, "linear")
        assert out.hard is None
        assert out.soft == (out.soft.__class__(vec("crackle"), vec("wheeze"), 0.4))

    def test_combined_carries_both(self):
        out = interpolate_label(vec("crackle"), vec("wheeze"), 0.4, "combined")
        assert out.hard == vec("both")
        assert out.soft is not None and out.soft.lam == 0.4

    @pytest.mark.parametrize("mode", ["linear", "nonlinear", "combined", "preserve"])
    def test_same_label_idempotent(self, mode):
        out = interpolate_label(vec("crackle"), vec("crackle"), 0.7, mode)
        if out.hard is not None:
            assert out.hard == vec("crackle")
        if out.soft is not None:
            assert out.soft.y_a == out.soft.y_b == vec("crackle")

    def test_unknown_mode_raises(self):
        with pytest.raises(InvalidConfig):
            interpolate_label(vec("crackle"), vec("wheeze"), 0.5, "cubic")


class TestMixupLoss:
    def test_uniform_logits_give_ln4(self):
        logits = np.zeros(4)
        got = mixup_loss(logits, vec("crackle"), vec("wheeze"), 0.3)
        assert abs(got - math.log(4)) < 1e-12

    def test_lambda_one_is_plain_ce(self, rng):
        logits = rng.standard_normal(4)
        got = mixup_loss(logits, vec("wheeze"), vec("both"), 1.0)
        assert abs(got - cross_entropy(logits, vec("wheeze"))) < 1e-15

    def test_same_labels_collapse(self, rng):
        logits = rng.standard_normal(4)
        got = mixup_loss(logits, vec("crackle"), vec("crackle"), 0.5)
        assert abs(got - cross_entropy(logits, vec("crackle"))) < 1e-12

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_symmetry(self, lam):
        logits = np.array([0.3, -1.2, 2.0, 0.1])
        a = mixup_loss(logits, vec("crackle"), vec("wheeze"), lam)
        b = mixup_loss(logits, vec("wheeze"), vec("crackle"), 1.0 - lam)
        assert abs(a - b) < 1e-12

    def test_linear_in_lambda(self, rng):
        logits = rng.standard_normal(4)
        f = lambda lam: mixup_loss(logits, vec("normal"), vec("both"), lam)
        # three collinear points: midpoint equals the average of the ends
        assert abs(f(0.5) - 0.5 * (f(0.0) + f(1.0))) < 1e-12

    def test_nonfinite_logits_raise(self):
        with pytest.raises(NumericalError):
            mixup_loss(np.array([1.0, np.inf, 0.0, 0.0]), vec("crackle"), vec("wheeze"), 0.5)

    def test_bad_lambda_raises(self):
        with pytest.raises(InvalidConfig):
            mixup_loss(np.zeros(4), vec("crackle"), vec("wheeze"), 1.2)


class TestLungmixLoss:
    def test_same_onehot_doubles_ce(self, rng):
        logits = rng.standard_normal(4)
        for name in ("crackle", "wheeze", "both"):
            expected = 2.0 * cross_entropy(logits, vec(name))
            got = lungmix_loss(logits, vec(name), vec(name), 0.37)
            assert abs(got - expected) < 1e-9

    def test_uniform_logits_closed_form(self):
        logits = np.zeros(4)
        got = lungmix_loss(logits, vec("crackle"), vec("wheeze"), 0.42)
        assert abs(got - 2.0 * math.log(4)) < 1e-12

    def test_lambda2_zero_reduces_to_ce_on_or(self, rng):
        logits = rng.standard_normal(4)
        got = lungmix_loss(
            logits, vec("crackle"), vec("wheeze"), 0.6, LossWeights(lambda2=0.0)
        )
        assert got == cross_entropy(logits, vec("both"))

    def test_rescale_makes_terms_equal(self, rng):
        logits = rng.standard_normal(4) * 3.0
        lam = 0.31
        ce = cross_entropy(logits, vec("both"))
        mix = mixup_loss(logits, vec("crackle"), vec("wheeze"), lam)
        total = lungmix_loss(logits, vec("crackle"), vec("wheeze"), lam)
        assert abs((total - ce) - ce) < 1e-9  # second term rescaled to the first
        assert abs((ce / mix) * mix - ce) < 1e-9


@pytest.mark.parametrize("lambda2", [float("nan"), float("inf"), "x", True], ids=repr)
def test_loss_weights_reject_what_is_not_a_finite_float(lambda2):
    """A NaN weight would make `lungmix_loss` return NaN."""
    with pytest.raises(InvalidConfig, match="lambda2 must be"):
        LossWeights(lambda2=lambda2)


class TestSchemaValidation:
    def test_duplicate_abnormal_names_raise(self):
        with pytest.raises(InvalidConfig):
            LabelSchema(abnormal_names=("crackle", "crackle"))

    def test_unknown_category_name_raises(self):
        with pytest.raises(InvalidConfig):
            FOUR_CLASS.vector("stridor")

    def test_generic_composite_naming(self):
        schema = LabelSchema(abnormal_names=("a", "b", "c"), composite_names=())
        assert schema.category_name(0b111) == "a+b+c"
