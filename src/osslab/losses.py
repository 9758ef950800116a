"""The five loss terms and their exact gradients.

Each loss returns its value together with the gradients w.r.t. exactly
the quantities gradients are allowed to flow through; everything else
(weak-view predictions in the pseudo-label and self-supervision losses,
the subspace basis) is treated as constant by construction.
"""

from __future__ import annotations

import numpy as np

from .nn import row_max
# trainer calls the gradient kernel through this module, so the binding
# stays here as an explicit re-export
from .subspace import subspace_score_grads as subspace_score_grads


def loss_sup(log_probs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy on labeled data; returns (value, d_logits)."""
    labels = np.asarray(labels)
    B = labels.shape[0]
    value = float(-log_probs[np.arange(B), labels].mean())
    d_logits = np.exp(log_probs)
    d_logits[np.arange(B), labels] -= 1.0
    return value, d_logits / B


def loss_semi(weak_probs: np.ndarray, strong_log_probs: np.ndarray,
              gate: np.ndarray, tau: float) -> tuple[float, np.ndarray, int]:
    """Gated pseudo-label cross-entropy; returns (value, d_strong_logits, count).

    Weak-view predictions are constants: they only supply the pseudo-label
    and the confidence indicator. Each term is additionally scaled by
    the ID ``gate`` (0/1 for sampled masks, p_id for the weighted variant)
    and the sum is divided by the full batch size.
    """
    n = weak_probs.shape[0]
    conf = row_max(weak_probs)
    pseudo = weak_probs.argmax(axis=1)
    coeff = (conf > tau).astype(float) * np.asarray(gate, dtype=float)
    value = float((coeff * -strong_log_probs[np.arange(n), pseudo]).sum() / n)
    d_logits = np.exp(strong_log_probs)
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
    dots = (h_out * weak_z).sum(axis=1)
    # d cos/d h = z/(|h||z|) - (h.z) h / (|h|^3 |z|)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.where(ok, dots / (hn * zn), 0.0)
        d_h = np.where(ok[:, None], weak_z / (hn * zn)[:, None]
                       - (dots / (hn ** 3 * zn))[:, None] * h_out, 0.0)
    value = float(-cos.mean())
    return value, -d_h / n, int((~ok).sum())


def loss_sub(scores: np.ndarray, d_scores: np.ndarray,
             gate: np.ndarray) -> tuple[float, np.ndarray]:
    """Signed mean of the weak view's subspace scores; returns (value, d_weak_z).

    ``scores, d_scores`` are ``subspace_score_grads`` of the weak features;
    ``gate`` is the ID gate m_id (or p_id), and each score is signed by
    m_ood - m_id = 1 - 2 gate. The basis is a constant for gradient purposes.
    """
    n = scores.shape[0]
    w = 1.0 - 2.0 * np.asarray(gate, dtype=float)
    value = float((w * scores).sum() / n)
    return value, w[:, None] * d_scores / n


def loss_reg(theta: np.ndarray) -> tuple[float, np.ndarray]:
    """L2 regularizer 0.5 ||theta||^2 over all trainable parameters. BLAS's
    dot splits a long theta over threads, so ``einsum`` sums the squares: its
    bits do not depend on the BLAS thread count, and it allocates no temporary."""
    return float(0.5 * np.einsum("i,i->", theta, theta)), theta

