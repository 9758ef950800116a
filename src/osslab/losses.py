"""The five loss terms and their exact gradients.

Each loss returns its value together with the gradients w.r.t. exactly
the quantities gradients are allowed to flow through; everything else
(weak-view predictions in the pseudo-label and self-supervision losses,
the subspace basis) is treated as constant by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .subspace import IdSubspaceBasis, subspace_score_grads


@dataclass
class LossWeights:
    w_semi: float = 1.0
    w_self: float = 1.0
    w_sub: float = 1.0
    w_reg: float = 5e-4
    tau: float = 0.95

    def __post_init__(self):
        for name in ("w_semi", "w_self", "w_sub", "w_reg"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be a nonnegative finite real")
        if not (0.0 < self.tau <= 1.0):
            raise ValueError("tau must be in (0, 1]")


def loss_sup(log_probs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy on labeled data; returns (value, d_logits)."""
    labels = np.asarray(labels)
    B = labels.shape[0]
    value = float(-log_probs[np.arange(B), labels].mean())
    d_logits = np.exp(log_probs).copy()
    d_logits[np.arange(B), labels] -= 1.0
    return value, d_logits / B


def loss_semi(weak_probs: np.ndarray, strong_log_probs: np.ndarray,
              semi_gate: np.ndarray, tau: float) -> tuple[float, np.ndarray, int]:
    """Gated pseudo-label cross-entropy; returns (value, d_strong_logits, count).

    Weak-view predictions are constants: they only supply the pseudo-label
    and the confidence indicator. Each term is additionally scaled by
    ``semi_gate`` (0/1 for sampled masks, p_id for the weighted variant)
    and the sum is divided by the full batch size.
    """
    n = weak_probs.shape[0]
    conf = weak_probs.max(axis=1)
    pseudo = weak_probs.argmax(axis=1)
    coeff = (conf > tau).astype(float) * np.asarray(semi_gate, dtype=float)
    value = float((coeff * -strong_log_probs[np.arange(n), pseudo]).sum() / n)
    d_logits = np.exp(strong_log_probs).copy()
    d_logits[np.arange(n), pseudo] -= 1.0
    d_logits *= coeff[:, None] / n
    return value, d_logits, int((coeff > 0).sum())


def loss_self(h_out: np.ndarray, weak_z: np.ndarray) -> tuple[float, np.ndarray, int]:
    """Negative mean cosine between h(strong features) and frozen weak
    features; returns (value, d_h_out, num_degenerate).

    Zero-norm vectors on either side contribute 0 to value and gradient.
    """
    n = h_out.shape[0]
    hn = np.linalg.norm(h_out, axis=1)
    zn = np.linalg.norm(weak_z, axis=1)
    ok = (hn > 0) & (zn > 0)
    cos = np.zeros(n)
    d_h = np.zeros_like(h_out)
    dots = (h_out * weak_z).sum(axis=1)
    cos[ok] = dots[ok] / (hn[ok] * zn[ok])
    # d cos/d h = z/(|h||z|) - (h.z) h / (|h|^3 |z|)
    d_h[ok] = (weak_z[ok] / (hn[ok] * zn[ok])[:, None]
               - (dots[ok] / (hn[ok] ** 3 * zn[ok]))[:, None] * h_out[ok])
    value = float(-cos.mean())
    return value, -d_h / n, int((~ok).sum())


def loss_sub(weak_z: np.ndarray, basis: IdSubspaceBasis,
             sub_weights: np.ndarray) -> tuple[float, np.ndarray]:
    """Signed mean of subspace scores; returns (value, d_weak_z).

    ``sub_weights`` is m_ood - m_id (or 1 - 2 p_id); the basis is a
    constant for gradient purposes.
    """
    n = weak_z.shape[0]
    w = np.asarray(sub_weights, dtype=float)
    scores, d_scores = subspace_score_grads(weak_z, basis)
    value = float((w * scores).sum() / n)
    return value, w[:, None] * d_scores / n


def loss_reg(theta: np.ndarray) -> tuple[float, np.ndarray]:
    """L2 regularizer 0.5 ||theta||^2 over all trainable parameters."""
    return float(0.5 * theta @ theta), theta


def total_loss(sup: float, semi: float, self_sup: float, sub: float, reg: float,
               weights: LossWeights, warmup: bool = False) -> float:
    """Weighted sum of the terms; warm-up forces w_semi = w_sub = 0."""
    w_semi = 0.0 if warmup else weights.w_semi
    w_sub = 0.0 if warmup else weights.w_sub
    return (sup + w_semi * semi + weights.w_self * self_sup
            + w_sub * sub + weights.w_reg * reg)
