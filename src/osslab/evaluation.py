"""Closed-set accuracy, ID/OOD AUROC, and score histograms for plots."""

from __future__ import annotations

import numpy as np

SNAPSHOT_BINS = 64


def accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Argmax accuracy; ties break toward the lowest class index."""
    if probs.shape[0] == 0:
        raise ValueError("empty test set")
    return float((probs.argmax(axis=1) == np.asarray(labels)).mean())


def auroc(id_scores: np.ndarray, ood_scores: np.ndarray) -> float:
    """P(random ID score > random OOD score), ties worth 1/2.

    Binary searches in the sorted OOD scores count, for each ID score, the
    OOD scores below it and those at or below it; half their sum is its wins
    plus half its ties. Every count is an integer, so the result agrees
    exactly with the O(n*m) pairwise computation, ties included. Any NaN
    gives NaN.
    """
    id_scores = np.sort(np.asarray(id_scores, dtype=float))
    ood_scores = np.sort(np.asarray(ood_scores, dtype=float))
    n, m = id_scores.size, ood_scores.size
    if n == 0 or m == 0:
        raise ValueError("both score lists must be nonempty")
    if np.isnan(id_scores[-1]) or np.isnan(ood_scores[-1]):  # sorting puts NaN last
        return float("nan")
    u = (np.searchsorted(ood_scores, id_scores, "left").sum()
         + np.searchsorted(ood_scores, id_scores, "right").sum()) / 2.0
    return float(u / (n * m))


def score_snapshot(id_scores: np.ndarray, ood_scores: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(edges, id_hist, ood_hist)``: ID and OOD counts in the same
    SNAPSHOT_BINS bins, which span [0, 1] and every score."""
    id_scores = np.asarray(id_scores, dtype=float)
    ood_scores = np.asarray(ood_scores, dtype=float)
    lo = min(id_scores.min(), ood_scores.min(), 0.0)
    hi = max(id_scores.max(), ood_scores.max(), 1.0)
    edges = np.linspace(lo, hi, SNAPSHOT_BINS + 1)
    return edges, np.histogram(id_scores, bins=edges)[0], np.histogram(ood_scores, bins=edges)[0]

