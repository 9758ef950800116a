"""ID subspace maintenance and ID/OOD scores.

Per-class EMA feature means span the ID subspace; its orthonormal basis
comes from QR with small-pivot columns dropped. The subspace score is
the cosine of the angle between a feature vector and that subspace.
Baseline and alternative scores used by the ablations live here too.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .nn import row_max

RANK_TOL = 1e-10


class SubspaceUndefinedError(RuntimeError):
    """No class mean has been initialized yet."""


class ScoreKind(enum.Enum):
    SUBSPACE = "subspace"
    MIN_EUCLID_TO_MEAN = "min_euclid_to_mean"
    RESIDUAL_TO_SUBSPACE = "residual_to_subspace"
    MAX_COSINE_TO_MEAN = "max_cosine_to_mean"
    MSP = "msp"
    ENERGY = "energy"
    MAX_LOGIT = "max_logit"


@dataclass
class ClassMeanTable:
    means: np.ndarray        # (C, D)
    initialized: np.ndarray  # (C,) bool

    @classmethod
    def empty(cls, num_classes: int, feature_dim: int) -> "ClassMeanTable":
        return cls(means=np.zeros((num_classes, feature_dim)),
                   initialized=np.zeros(num_classes, dtype=bool))


@dataclass(frozen=True)
class IdSubspaceBasis:
    Q: np.ndarray  # (D, r), orthonormal columns

    @property
    def rank(self) -> int:
        return self.Q.shape[1]


def update_class_means(table: ClassMeanTable, Z: np.ndarray, labels: np.ndarray,
                       momentum: float) -> None:
    """EMA-update means for classes present in the batch, in place, keeping a
    ``momentum`` share of the old mean.

    First sighting of a class sets its mean directly to the batch mean.
    Classes are found with ``np.bincount``: ``np.unique`` would import
    ``numpy.ma`` on its first call, about 16 ms inside the first step.
    """
    Z = np.atleast_2d(Z)
    labels = np.asarray(labels)
    for c in np.flatnonzero(np.bincount(labels)):
        batch_mean = Z[labels == c].mean(axis=0)
        if table.initialized[c]:
            table.means[c] = momentum * table.means[c] + (1.0 - momentum) * batch_mean
        else:
            table.means[c] = batch_mean
            table.initialized[c] = True


def compute_basis(table: ClassMeanTable) -> IdSubspaceBasis:
    """Orthonormal basis of the span of the initialized class means.

    Columns whose QR pivot magnitude falls below RANK_TOL times the
    largest pivot are dropped, so duplicated or unseen classes shrink the
    rank instead of failing.
    """
    if not table.initialized.any():
        raise SubspaceUndefinedError("no initialized class means")
    M = table.means[table.initialized].T  # (D, k)
    Q, R = np.linalg.qr(M, mode="reduced")
    pivots = np.abs(np.diag(R))
    keep = pivots > RANK_TOL * pivots.max()
    return IdSubspaceBasis(Q=Q[:, keep])


def _angle_scores(U: np.ndarray, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(scores, ||u||, ||z||)`` for rows ``u = Q^T z`` of ``U`` and ``z`` of ``Z``.

    The score is ||u|| / ||z||, clamped to [0, 1]; zero-norm rows score 0.
    """
    u_norm = np.linalg.norm(U, axis=1)
    z_norm = np.linalg.norm(Z, axis=1)
    # roundoff can push ||Q^T z|| a few ulp above ||z|| for in-span vectors
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(z_norm > 0, np.minimum(u_norm / z_norm, 1.0), 0.0), u_norm, z_norm


def subspace_scores(Z: np.ndarray, basis: IdSubspaceBasis) -> np.ndarray:
    """Cosine of the angle between each row of Z and the ID subspace.

    With u = Q^T z the score is ||u|| / ||z||, which equals
    (proj . z) / (||proj|| ||z||) and lies in [0, 1]. Zero-norm rows and
    rows orthogonal to the subspace score 0.
    """
    Z = np.atleast_2d(Z)
    return _angle_scores(Z @ basis.Q, Z)[0]


def subspace_score_grads(Z: np.ndarray, basis: IdSubspaceBasis) -> tuple[np.ndarray, np.ndarray]:
    """Scores and their gradients w.r.t. each feature row.

    d s / d z = proj / (||proj|| ||z||) - s z / ||z||^2, with the basis
    treated as constant. Rows with zero projection or zero norm get a
    zero gradient (score clamped at 0).
    """
    Z = np.atleast_2d(Z)
    U = Z @ basis.Q                       # (N, r)
    proj = U @ basis.Q.T                  # (N, D)
    scores, u_norm, z_norm = _angle_scores(U, Z)
    ok = (z_norm > 0) & (u_norm > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        grads = np.where(ok[:, None], proj / (u_norm * z_norm)[:, None]
                         - (scores / z_norm ** 2)[:, None] * Z, 0.0)
    return scores, grads


def _min_distances(Z: np.ndarray, means: np.ndarray) -> np.ndarray:
    """The Euclidean distance from each row of ``Z`` to the nearest row of ``means``.

    A running minimum of the squared distances, with one (N, D) scratch
    buffer, which is freed before the caller's other scores allocate theirs;
    sqrt is correctly rounded and monotonic, so the sqrt of the minimum is the
    minimum of the distances.
    """
    diff = np.empty_like(Z, dtype=float)
    d2 = np.full(len(Z), np.inf)
    for m in means:
        np.subtract(Z, m, out=diff)
        np.minimum(d2, np.square(diff, out=diff).sum(axis=1), out=d2)
    return np.sqrt(d2)


def alt_scores(Z: np.ndarray, logits: np.ndarray, log_probs: np.ndarray,
               table: ClassMeanTable, basis: IdSubspaceBasis) -> dict[ScoreKind, np.ndarray]:
    """Every score kind of the rows of features ``Z``, ``logits`` and the
    forward pass's ``log_probs``, in ``ScoreKind`` order; higher always means
    more ID.

    The pieces that several kinds share (``Z Q``, ``||z||``, the initialized
    means, the logit max) are computed once. MSP and energy read the
    log-sum-exp off ``log_probs`` instead of recomputing it: the forward's
    ``log_probs`` are ``shifted - lse``, and each row's largest shifted logit
    is 0, so each row's maximum of ``log_probs`` is exactly ``-lse``.
    """
    Z, logits, log_probs = np.atleast_2d(Z), np.atleast_2d(logits), np.atleast_2d(log_probs)
    U = Z @ basis.Q
    angle, _, z_norm = _angle_scores(U, Z)
    means = table.means[table.initialized]
    zm = z_norm[:, None] * np.linalg.norm(means, axis=1)[None, :]
    top = row_max(logits)
    lse = -row_max(log_probs)
    return {ScoreKind.SUBSPACE: angle,
            ScoreKind.MIN_EUCLID_TO_MEAN: -_min_distances(Z, means),
            ScoreKind.RESIDUAL_TO_SUBSPACE: -np.linalg.norm(Z - U @ basis.Q.T, axis=1),
            ScoreKind.MAX_COSINE_TO_MEAN: row_max((Z @ means.T) / np.where(zm > 0, zm, 1.0)),
            ScoreKind.MSP: np.exp(-lse),
            ScoreKind.ENERGY: lse + top,  # -E(x): the energy is higher for OOD
            ScoreKind.MAX_LOGIT: top}
