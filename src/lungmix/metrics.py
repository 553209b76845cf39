"""Four-class evaluation: per-class correct counts and Se/Sp/Sc.

Sensitivity is the pooled recall over the three abnormal classes, specificity
the recall of the normal class, and the score their average. Classes with no
ground-truth samples leave the affected rates (and then the score) absent
rather than defaulting to 0 or 100.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnknownLabel
from .labels import FOUR_CLASS

NORMAL = FOUR_CLASS.normal_name


def round2(x: float) -> float:
    """Half-away-from-zero rounding to two decimals, for display."""
    return math.floor(abs(x) * 100.0 + 0.5) / 100.0 * (1 if x >= 0 else -1)


@dataclass(frozen=True)
class MetricsReport:
    correct: dict[str, int]  # samples correctly classified, per true class
    totals: dict[str, int]  # ground-truth samples, per class
    se: float | None  # pooled abnormal recall, percent
    sp: float | None  # normal recall, percent
    sc: float | None  # (se + sp) / 2

    def to_dict(self) -> dict:
        return {
            "correct": dict(self.correct),
            "totals": dict(self.totals),
            "se": None if self.se is None else round2(self.se),
            "sp": None if self.sp is None else round2(self.sp),
            "sc": None if self.sc is None else round2(self.sc),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def format_table(self) -> str:
        lines = [f"{'class':>8} {'correct':>8} {'total':>8}"]
        for cls in FOUR_CLASS.categories():
            lines.append(f"{cls:>8} {self.correct[cls]:>8} {self.totals[cls]:>8}")
        fmt = lambda v: "   n/a" if v is None else f"{round2(v):6.2f}"
        lines.append(f"Se={fmt(self.se)}  Sp={fmt(self.sp)}  Sc={fmt(self.sc)}")
        return "\n".join(lines)


def confusion(pairs) -> np.ndarray:
    """4x4 count matrix; rows are true classes, columns predictions."""
    classes = FOUR_CLASS.categories()
    index = {cls: i for i, cls in enumerate(classes)}
    matrix = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for true, pred in pairs:
        for label in (true, pred):
            if label not in classes:
                raise UnknownLabel(f"unknown class {label!r}")
        matrix[index[true], index[pred]] += 1
    return matrix


def score(pairs) -> MetricsReport:
    """Aggregate (true, predicted) label pairs into the evaluation report."""
    matrix = confusion(pairs)
    classes = FOUR_CLASS.categories()
    correct = {cls: int(matrix[i, i]) for i, cls in enumerate(classes)}
    totals = {cls: int(matrix[i].sum()) for i, cls in enumerate(classes)}
    n_abnormal = sum(n for cls, n in totals.items() if cls != NORMAL)
    c_abnormal = sum(n for cls, n in correct.items() if cls != NORMAL)
    se = 100.0 * c_abnormal / n_abnormal if n_abnormal else None
    sp = 100.0 * correct[NORMAL] / totals[NORMAL] if totals[NORMAL] else None
    sc = (se + sp) / 2.0 if se is not None and sp is not None else None
    return MetricsReport(correct=correct, totals=totals, se=se, sp=sp, sc=sc)
