"""Classification metrics computed from scratch: confusion, F1, accuracy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tscl.errors import DimensionError, ParameterError


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int
    undefined: bool  # no true or predicted samples to score against


@dataclass(frozen=True)
class MetricsReport:
    """Scores on the 0-1 scale; `confusion[t, p]` counts true t predicted p."""

    accuracy: float
    macro_f1: float
    per_class: dict[int, ClassMetrics]
    confusion: np.ndarray

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "metric_scale": "fraction",
            "per_class": {
                str(y): {
                    "precision": m.precision,
                    "recall": m.recall,
                    "f1": m.f1,
                    "support": m.support,
                    "undefined": m.undefined,
                }
                for y, m in sorted(self.per_class.items())
            },
            "confusion": self.confusion.tolist(),
        }


def confusion_matrix(
    y_true: np.ndarray, y_pred: np.ndarray, n_classes: int
) -> np.ndarray:
    t = np.asarray(y_true, dtype=np.int64).reshape(-1)
    p = np.asarray(y_pred, dtype=np.int64).reshape(-1)
    if t.shape != p.shape:
        raise DimensionError(
            f"got {t.shape[0]} true labels but {p.shape[0]} predictions"
        )
    if n_classes < 1:
        raise ParameterError(f"need at least one class, got {n_classes}")
    if t.size and (min(t.min(), p.min()) < 0 or max(t.max(), p.max()) >= n_classes):
        raise ParameterError(
            f"labels must lie in [0, {n_classes}), got values outside"
        )
    out = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(out, (t, p), 1)
    return out


def evaluate(y_true: np.ndarray, y_pred: np.ndarray, n_classes: int) -> MetricsReport:
    """Accuracy, per-class precision/recall/F1, and their macro average.

    A class with no true members and no predictions cannot be scored; it
    is flagged and contributes an F1 of 0 to the macro average.
    """
    confusion = confusion_matrix(y_true, y_pred, n_classes)
    total = confusion.sum()
    accuracy = float(confusion.trace() / total) if total else 0.0
    per_class: dict[int, ClassMetrics] = {}
    f1s = []
    for y in range(n_classes):
        tp = int(confusion[y, y])
        fn = int(confusion[y].sum() - tp)
        fp = int(confusion[:, y].sum() - tp)
        support = tp + fn
        undefined = (support + fp) == 0
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / support if support else 0.0
        f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
        per_class[y] = ClassMetrics(
            precision=float(precision),
            recall=float(recall),
            f1=float(f1),
            support=support,
            undefined=undefined,
        )
        f1s.append(f1)
    return MetricsReport(
        accuracy=accuracy,
        macro_f1=float(np.mean(f1s)) if f1s else 0.0,
        per_class=per_class,
        confusion=confusion,
    )
