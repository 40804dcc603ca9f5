"""Macro-averaged classification metrics.

Per-class precision/recall/F1 use the 0/0 -> 0 convention (empty classes
happen under heavy label skew); AUC is one-vs-rest with midrank tie
handling, macro-averaged over scorable classes.
"""

from __future__ import annotations

import logging
from typing import Sequence, Tuple

import numpy as np

from .errors import DomainError

logger = logging.getLogger(__name__)
_warned = set()


def _warn_once(key: str, message: str) -> None:
    if key not in _warned:
        _warned.add(key)
        logger.warning("%s (further occurrences suppressed)", message)


def confusion_matrix(
    y_true: Sequence[int], y_pred: Sequence[int], n_classes: int
) -> np.ndarray:
    """Counts with rows = truth, columns = prediction."""
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (np.asarray(y_true, dtype=np.intp), np.asarray(y_pred, dtype=np.intp)), 1)
    return cm


def accuracy(cm: np.ndarray) -> float:
    total = cm.sum()
    return float(np.trace(cm)) / total if total else 0.0


def per_class_prf(cm: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-class (precision, recall, f1) arrays."""
    cm = np.asarray(cm, dtype=np.float64)
    tp = np.diag(cm)
    pred_pos = cm.sum(axis=0)
    true_pos = cm.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(pred_pos > 0, tp / pred_pos, 0.0)
        recall = np.where(true_pos > 0, tp / true_pos, 0.0)
        denom = precision + recall
        f1 = np.where(denom > 0, 2 * precision * recall / denom, 0.0)
    if np.any(pred_pos == 0) or np.any(true_pos == 0):
        _warn_once("prf_zero", "empty class in confusion matrix; 0/0 scored as 0")
    return precision, recall, f1


def macro_f1(cm: np.ndarray) -> float:
    _, _, f1 = per_class_prf(cm)
    return float(f1.mean())


def _midranks(x: np.ndarray) -> np.ndarray:
    """Ranks (1-based) with ties assigned the average of their positions."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True, equal_nan=False)
    last = np.cumsum(counts)  # 1-based position of each value's last copy
    return (last - 0.5 * (counts - 1))[inverse]


def macro_auc(scores: np.ndarray, labels: Sequence[int]) -> float:
    """One-vs-rest macro AUC over classes with both positives and negatives;
    each class's AUC is the rank statistic, ties getting 0.5 credit."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.ndim != 2 or scores.shape[0] != len(labels):
        raise DomainError("scores must be [n, classes] aligned with labels")
    if scores.shape[0] < 2:
        raise DomainError("AUC needs at least two samples")
    per_class = []
    for k in range(scores.shape[1]):
        positives = labels == k
        n_pos = int(positives.sum())
        if n_pos == 0 or n_pos == len(labels):
            _warn_once(
                f"auc_skip_{k}",
                f"class {k} has no positives or no negatives; skipped in macro AUC",
            )
            continue
        n_neg = len(labels) - n_pos
        pos_rank_sum = _midranks(scores[:, k])[positives].sum()
        per_class.append(float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)))
    if not per_class:
        raise DomainError("no scorable class for macro AUC")
    return float(np.mean(per_class))
