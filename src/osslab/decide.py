"""ID/OOD decisions: sampled masks, Otsu thresholding, direct weighting.

The default path samples a Bernoulli ID mask from the posterior ID
probabilities; the ablation variants replace it with a hard Otsu
threshold on raw scores or with the probabilities used directly as
weights. Every rule produces one per-sample ID gate (m_id, or p_id): it
gates the pseudo-label loss and, as m_ood - m_id = 1 - 2 gate, signs the
subspace loss.
"""

from __future__ import annotations

import enum
import hashlib

import numpy as np


class RuleKind(enum.Enum):
    SAMPLED_MASK = "sampled_mask"
    OTSU_THRESHOLD = "otsu_threshold"
    DIRECT_WEIGHT = "direct_weight"


OTSU_START = 0.5  # the Otsu EMA before the first batch


def mask_hash(gate: np.ndarray) -> str:
    """The run log's ``mask_hash``: the first 16 hex digits of the SHA-256 of
    the subspace signs ``1 - 2 gate`` followed by the gate, as float64 bytes."""
    h = hashlib.sha256()
    h.update((1.0 - 2.0 * gate).tobytes())
    h.update(gate.tobytes())
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
    # every interior edge in one pass; cumsum adds left to right like a loop
    cum = np.cumsum(counts[:-1])
    cum_mean = np.cumsum(counts[:-1] * centers[:-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        grand_mean = float((counts * centers).sum()) / total
        w0 = cum / total
        w1 = 1.0 - w0
        mu0 = cum_mean / cum
        mu1 = (grand_mean * total - cum_mean) / (total - cum)
        var_b = w0 * w1 * (mu0 - mu1) ** 2
    # an empty side never wins, nor does NaN; argmax keeps the lowest tie
    var_b[(w0 == 0.0) | (w1 == 0.0) | np.isnan(var_b)] = -np.inf
    return float(edges[1 + np.argmax(var_b)])


def decide(kind: RuleKind, scores: np.ndarray, posteriors: np.ndarray,
           rng: np.random.Generator, ema_threshold: float,
           otsu_momentum: float) -> tuple[np.ndarray, float]:
    """Apply decision rule ``kind`` to one unlabeled batch; returns
    ``(gate, threshold)``, the per-sample ID gate in [0, 1] and the Otsu EMA
    after the batch.

    The Otsu rule first moves ``ema_threshold``, the EMA of the per-batch
    Otsu threshold on raw scores, by ``otsu_momentum``, and thresholds at the
    result; the other rules ignore both and return a NaN threshold.
    """
    posteriors = np.asarray(posteriors, dtype=float)
    threshold = float("nan")
    if kind is RuleKind.SAMPLED_MASK:
        gate = sample_mask(posteriors, rng).astype(float)
    elif kind is RuleKind.OTSU_THRESHOLD:
        t = otsu_threshold(scores)
        threshold = otsu_momentum * ema_threshold + (1.0 - otsu_momentum) * t
        gate = (np.asarray(scores) >= threshold).astype(float)
    elif kind is RuleKind.DIRECT_WEIGHT:
        gate = posteriors
    else:
        raise ValueError(f"unknown rule {kind!r}")
    return gate, threshold
