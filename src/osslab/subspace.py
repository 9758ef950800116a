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


LOGIT_SCORES = (ScoreKind.MSP, ScoreKind.ENERGY, ScoreKind.MAX_LOGIT)


@dataclass
class ClassMeanTable:
    means: np.ndarray        # (C, D)
    initialized: np.ndarray  # (C,) bool
    momentum: float = 0.999

    @classmethod
    def empty(cls, num_classes: int, feature_dim: int, momentum: float = 0.999) -> "ClassMeanTable":
        if not (0.0 <= momentum <= 1.0):
            raise ValueError("momentum must be in [0, 1]")
        return cls(means=np.zeros((num_classes, feature_dim)),
                   initialized=np.zeros(num_classes, dtype=bool),
                   momentum=momentum)


@dataclass(frozen=True)
class IdSubspaceBasis:
    Q: np.ndarray  # (D, r), orthonormal columns

    @property
    def rank(self) -> int:
        return self.Q.shape[1]


def update_class_means(table: ClassMeanTable, Z: np.ndarray, labels: np.ndarray) -> None:
    """EMA-update means for classes present in the batch, in place.

    First sighting of a class sets its mean directly to the batch mean.
    """
    Z = np.atleast_2d(Z)
    labels = np.asarray(labels)
    lam = table.momentum
    for c in np.unique(labels):
        batch_mean = Z[labels == c].mean(axis=0)
        if table.initialized[c]:
            table.means[c] = lam * table.means[c] + (1.0 - lam) * batch_mean
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


def subspace_scores(Z: np.ndarray, basis: IdSubspaceBasis) -> np.ndarray:
    """Cosine of the angle between each row of Z and the ID subspace.

    With u = Q^T z the score is ||u|| / ||z||, which equals
    (proj . z) / (||proj|| ||z||) and lies in [0, 1]. Zero-norm rows and
    rows orthogonal to the subspace score 0.
    """
    Z = np.atleast_2d(Z)
    u_norm = np.linalg.norm(Z @ basis.Q, axis=1)
    z_norm = np.linalg.norm(Z, axis=1)
    out = np.zeros(Z.shape[0])
    ok = z_norm > 0
    # roundoff can push ||Q^T z|| a few ulp above ||z|| for in-span vectors
    out[ok] = np.minimum(u_norm[ok] / z_norm[ok], 1.0)
    return out


def subspace_score(z: np.ndarray, basis: IdSubspaceBasis) -> float:
    return float(subspace_scores(z[None, :], basis)[0])


def subspace_score_grads(Z: np.ndarray, basis: IdSubspaceBasis) -> tuple[np.ndarray, np.ndarray]:
    """Scores and their gradients w.r.t. each feature row.

    d s / d z = proj / (||proj|| ||z||) - s z / ||z||^2, with the basis
    treated as constant. Rows with zero projection or zero norm get a
    zero gradient (score clamped at 0).
    """
    Z = np.atleast_2d(Z)
    U = Z @ basis.Q                       # (N, r)
    proj = U @ basis.Q.T                  # (N, D)
    u_norm = np.linalg.norm(U, axis=1)
    z_norm = np.linalg.norm(Z, axis=1)
    scores = np.zeros(Z.shape[0])
    grads = np.zeros_like(Z)
    ok = (z_norm > 0) & (u_norm > 0)
    scores[z_norm > 0] = np.minimum(u_norm[z_norm > 0] / z_norm[z_norm > 0], 1.0)
    zn = z_norm[ok]
    grads[ok] = (proj[ok] / (u_norm[ok] * zn)[:, None]
                 - (scores[ok] / zn ** 2)[:, None] * Z[ok])
    return scores, grads


def alt_scores(kind: ScoreKind, Z: np.ndarray | None = None,
               logits: np.ndarray | None = None,
               table: ClassMeanTable | None = None,
               basis: IdSubspaceBasis | None = None) -> np.ndarray:
    """Batch evaluation of any score variant; higher always means more ID."""
    if kind in LOGIT_SCORES:
        if logits is None:
            raise ValueError(f"{kind.value} requires logits")
        logits = np.atleast_2d(logits)
        if kind is ScoreKind.MAX_LOGIT:
            return logits.max(axis=1)
        shifted = logits - logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=1))
        if kind is ScoreKind.ENERGY:
            return -(lse + logits.max(axis=1))
        return np.exp(shifted.max(axis=1) - lse)  # MSP

    Z = np.atleast_2d(Z)
    if kind is ScoreKind.SUBSPACE:
        return subspace_scores(Z, basis)
    if kind is ScoreKind.RESIDUAL_TO_SUBSPACE:
        proj = (Z @ basis.Q) @ basis.Q.T
        return -np.linalg.norm(Z - proj, axis=1)
    means = table.means[table.initialized]
    if kind is ScoreKind.MIN_EUCLID_TO_MEAN:
        d = np.linalg.norm(Z[:, None, :] - means[None, :, :], axis=2)
        return -d.min(axis=1)
    if kind is ScoreKind.MAX_COSINE_TO_MEAN:
        zn = np.linalg.norm(Z, axis=1, keepdims=True)
        mn = np.linalg.norm(means, axis=1)
        cos = (Z @ means.T) / np.where(zn * mn[None, :] > 0, zn * mn[None, :], 1.0)
        return cos.max(axis=1)
    raise ValueError(f"unknown score kind {kind!r}")
