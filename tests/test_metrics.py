"""Evaluation arithmetic, including reproduction of published score cells."""

import numpy as np
import pytest

from lungmix.errors import UnknownLabel
from lungmix.labels import FOUR_CLASS
from lungmix.metrics import MetricsReport, confusion, round2, score

CLASSES = FOUR_CLASS.categories()

# (sp, se, expected average score) per source domain and interpolation mode,
# cross-checked against the combined-test-set columns of the reference results
REFERENCE_CELLS = [
    # icbhi source: linear, combined, non-linear
    (60.21, 61.67, 60.94),
    (70.96, 52.47, 61.71),
    (79.08, 47.51, 63.30),
    # spr source
    (75.70, 49.70, 62.70),
    (65.32, 56.74, 61.03),
    (63.64, 56.22, 59.93),
    # hf source
    (76.12, 62.12, 69.12),
    (81.41, 56.30, 68.86),
    (77.17, 67.04, 72.11),
]


def pairs_for(sp: float, se: float, scale: int = 10000):
    """Build a pair set whose rates equal the given percentages exactly.

    Percentages with two decimals are exact fractions over 10000 samples.
    """
    correct_n = round(sp * scale / 100)
    correct_a = round(se * scale / 100)
    pairs = [("normal", "normal")] * correct_n
    pairs += [("normal", "crackle")] * (scale - correct_n)
    pairs += [("crackle", "crackle")] * correct_a
    pairs += [("crackle", "wheeze")] * (scale - correct_a)
    return pairs


class TestScore:
    def test_all_correct(self):
        pairs = [(c, c) for c in CLASSES for _ in range(5)]
        report = score(pairs)
        assert report.se == 100.0 and report.sp == 100.0 and report.sc == 100.0

    def test_hand_counted_example(self):
        pairs = [("normal", "normal")] * 3 + [("crackle", "normal")]
        report = score(pairs)
        assert report.sp == 100.0
        assert report.se == 0.0
        assert report.sc == 50.0

    @pytest.mark.parametrize("sp,se,expected_sc", REFERENCE_CELLS)
    def test_reference_score_cells(self, sp, se, expected_sc):
        report = score(pairs_for(sp, se))
        assert report.sp == pytest.approx(sp, abs=1e-9)
        assert report.se == pytest.approx(se, abs=1e-9)
        assert abs(report.sc - expected_sc) <= 0.01

    def test_sc_is_exact_average(self):
        report = score(pairs_for(70.0, 50.0))
        assert report.sc == (report.se + report.sp) / 2.0

    def test_no_abnormal_samples_leaves_se_absent(self):
        report = score([("normal", "normal")] * 4)
        assert report.se is None and report.sc is None
        assert report.sp == 100.0

    def test_no_normal_samples_leaves_sp_absent(self):
        report = score([("crackle", "crackle")] * 4)
        assert report.sp is None and report.sc is None
        assert report.se == 100.0

    def test_permutation_invariant(self):
        pairs = pairs_for(61.0, 47.0, scale=100)
        rng = np.random.default_rng(3)
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        assert score(pairs) == score(shuffled)

    def test_unknown_class_raises(self):
        # a data error, as `lungmix eval` reports such a row
        with pytest.raises(UnknownLabel):
            score([("normal", "cough")])


class TestConfusion:
    def test_empty_is_zero_matrix(self):
        assert np.array_equal(confusion([]), np.zeros((4, 4), dtype=np.int64))

    def test_single_pair(self):
        matrix = confusion([("crackle", "crackle")])
        assert matrix[1, 1] == 1 and matrix.sum() == 1

    def test_consistent_with_score_on_random_pairs(self):
        rng = np.random.default_rng(11)
        pairs = [
            (CLASSES[rng.integers(0, 4)], CLASSES[rng.integers(0, 4)])
            for _ in range(1000)
        ]
        matrix = confusion(pairs)
        report = score(pairs)
        for i, cls in enumerate(CLASSES):
            assert matrix[i, i] == report.correct[cls]
            assert matrix[i].sum() == report.totals[cls]


class TestFormatting:
    def test_round2_half_away_from_zero(self):
        assert round2(61.715000001) == 61.72
        assert round2(61.714) == 61.71
        assert round2(-1.005000001) == -1.01

    def test_report_serialization(self):
        report = score(pairs_for(60.21, 61.67))
        data = report.to_dict()
        assert data["sc"] == 60.94
        table = report.format_table()
        assert "Se=" in table and "normal" in table

    def test_absent_values_serialize_as_null(self):
        report = score([("normal", "normal")])
        assert report.to_dict()["se"] is None
        assert "n/a" in report.format_table()
