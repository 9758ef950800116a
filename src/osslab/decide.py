"""ID/OOD decisions: sampled masks, Otsu thresholding, direct weighting.

The default path samples a Bernoulli ID mask from the posterior ID
probabilities; the ablation variants replace it with a hard Otsu
threshold on raw scores or with the probabilities used directly as
weights. Every rule produces the two quantities the losses consume: a
per-sample weight for the subspace loss (m_ood - m_id, or 1 - 2 p_id)
and a per-sample gate for the pseudo-label loss (m_id, or p_id).
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass

import numpy as np


class RuleKind(enum.Enum):
    SAMPLED_MASK = "sampled_mask"
    OTSU_THRESHOLD = "otsu_threshold"
    DIRECT_WEIGHT = "direct_weight"


@dataclass
class DecisionRule:
    kind: RuleKind
    ema_threshold: float = 0.5   # Otsu state
    momentum: float = 0.999      # Otsu EMA momentum
    num_bins: int = 128


@dataclass
class Decision:
    """What the losses consume, regardless of the rule that produced it."""

    sub_weights: np.ndarray    # factor on s(z) per sample in the subspace loss
    semi_gate: np.ndarray      # factor on each pseudo-label term, in [0, 1]
    p_id: np.ndarray           # posteriors the rule was given
    m_id: np.ndarray | None    # (muB,) bool ID mask; None for the direct-weight rule
    threshold: float | None = None  # Otsu rule only

    @property
    def id_rate(self) -> float:
        return float((self.p_id if self.m_id is None else self.m_id).mean())

    def hash(self) -> str:
        h = hashlib.sha256()
        h.update(self.sub_weights.tobytes())
        h.update(self.semi_gate.tobytes())
        return h.hexdigest()[:16]


def sample_mask(p_id: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Bernoulli ID mask: m_id[i] = 1 with probability p_id[i]."""
    p_id = np.asarray(p_id, dtype=float)
    if np.any(p_id < 0) or np.any(p_id > 1):
        raise ValueError("posteriors must lie in [0, 1]")
    x = rng.random(size=p_id.shape)
    # strict > makes p=0 -> never and p=1 -> always exact for x in [0, 1)
    return p_id > x


def otsu_threshold(scores: np.ndarray, num_bins: int = 128) -> float:
    """Classic Otsu threshold over a [0, 1] equal-width histogram.

    Returns the interior bin edge maximizing the between-class variance,
    ties broken toward the lower threshold. All-identical scores return
    that score (degenerate case).
    """
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ValueError("no scores")
    if np.all(scores == scores[0]):
        return float(scores[0])
    counts, edges = np.histogram(np.clip(scores, 0.0, 1.0), bins=num_bins, range=(0.0, 1.0))
    centers = 0.5 * (edges[:-1] + edges[1:])
    total = counts.sum()
    best_edge, best_var = edges[1], -1.0
    cum = 0.0
    cum_mean = 0.0
    grand_mean = float((counts * centers).sum()) / total
    for b in range(num_bins - 1):
        cum += counts[b]
        cum_mean += counts[b] * centers[b]
        w0 = cum / total
        w1 = 1.0 - w0
        if w0 == 0.0 or w1 == 0.0:
            continue
        mu0 = cum_mean / cum
        mu1 = (grand_mean * total - cum_mean) / (total - cum)
        var_b = w0 * w1 * (mu0 - mu1) ** 2
        if var_b > best_var:
            best_var = var_b
            best_edge = edges[b + 1]
    return float(best_edge)


def decide(rule: DecisionRule, scores: np.ndarray, posteriors: np.ndarray,
           rng: np.random.Generator) -> Decision:
    """Apply the active decision rule to one unlabeled batch.

    The Otsu rule mutates ``rule.ema_threshold`` (EMA of the per-batch
    Otsu threshold on raw scores) before thresholding.
    """
    posteriors = np.asarray(posteriors, dtype=float)
    if rule.kind is RuleKind.SAMPLED_MASK:
        m_id = sample_mask(posteriors, rng)
        m = m_id.astype(float)
        return Decision(sub_weights=1.0 - 2.0 * m, semi_gate=m,
                        p_id=posteriors, m_id=m_id)
    if rule.kind is RuleKind.OTSU_THRESHOLD:
        t = otsu_threshold(scores, rule.num_bins)
        rule.ema_threshold = rule.momentum * rule.ema_threshold + (1.0 - rule.momentum) * t
        m_id = np.asarray(scores) >= rule.ema_threshold
        m = m_id.astype(float)
        return Decision(sub_weights=1.0 - 2.0 * m, semi_gate=m,
                        p_id=posteriors, m_id=m_id, threshold=rule.ema_threshold)
    if rule.kind is RuleKind.DIRECT_WEIGHT:
        return Decision(sub_weights=1.0 - 2.0 * posteriors, semi_gate=posteriors,
                        p_id=posteriors, m_id=None)
    raise ValueError(f"unknown rule {rule.kind!r}")
