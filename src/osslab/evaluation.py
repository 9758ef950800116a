"""Closed-set accuracy, ID/OOD AUROC, and score-distribution snapshots."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from .betamix import BetaMixtureModel, beta_pdf, clamp_scores
from .subspace import ScoreKind

SNAPSHOT_BINS = 64


def accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Argmax accuracy; ties break toward the lowest class index."""
    if probs.shape[0] == 0:
        raise ValueError("empty test set")
    return float((probs.argmax(axis=1) == np.asarray(labels)).mean())


def auroc(id_scores: np.ndarray, ood_scores: np.ndarray) -> float:
    """P(random ID score > random OOD score), ties worth 1/2.

    Mann-Whitney rank form; agrees exactly with the O(n*m) pairwise
    computation, including on ties.
    """
    id_scores = np.asarray(id_scores, dtype=float)
    ood_scores = np.asarray(ood_scores, dtype=float)
    n, m = id_scores.size, ood_scores.size
    if n == 0 or m == 0:
        raise ValueError("both score lists must be nonempty")
    ranks = rankdata(np.concatenate([id_scores, ood_scores]))
    u = ranks[:n].sum() - n * (n + 1) / 2.0
    return float(u / (n * m))


@dataclass
class ScoreSnapshot:
    step: int
    score_kind: ScoreKind
    id_scores: np.ndarray
    ood_scores: np.ndarray
    id_hist: np.ndarray      # (SNAPSHOT_BINS,) counts
    ood_hist: np.ndarray
    bin_edges: np.ndarray
    beta_model: BetaMixtureModel | None


def score_snapshot(id_scores: np.ndarray, ood_scores: np.ndarray, step: int,
                   score_kind: ScoreKind,
                   beta_model: BetaMixtureModel | None = None) -> ScoreSnapshot:
    """Raw scores plus 64-bin histograms for ID and OOD separately."""
    id_scores = np.asarray(id_scores, dtype=float)
    ood_scores = np.asarray(ood_scores, dtype=float)
    lo = min(id_scores.min(), ood_scores.min(), 0.0)
    hi = max(id_scores.max(), ood_scores.max(), 1.0)
    edges = np.linspace(lo, hi, SNAPSHOT_BINS + 1)
    id_hist, _ = np.histogram(id_scores, bins=edges)
    ood_hist, _ = np.histogram(ood_scores, bins=edges)
    return ScoreSnapshot(step=step, score_kind=score_kind,
                         id_scores=id_scores, ood_scores=ood_scores,
                         id_hist=id_hist, ood_hist=ood_hist, bin_edges=edges,
                         beta_model=beta_model)


def beta_density_grid(model: BetaMixtureModel, num_points: int = 256) -> np.ndarray:
    """(num_points, 3) grid of (s, p_id(s), p_ood(s)) for plot emission."""
    s = clamp_scores(np.linspace(0.0, 1.0, num_points))
    return np.column_stack([s, beta_pdf(model.id, s), beta_pdf(model.ood, s)])

