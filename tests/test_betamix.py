import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from osslab import trainer
from osslab.betamix import (
    PARAM_CEIL, PARAM_FLOOR, BetaMixtureModel, BetaParams, _imm_iteration, beta_pdf,
    betaln, clamp_scores, fit_reference,
    imm_batch_step, method_of_moments, mixture_densities, posterior_id,
    weighted_moments,
)
from osslab.config import TrainingConfig
from osslab.evaluation import auroc

from test_harness import TINY


def imm_step(model, unlabeled, labeled, lambda_beta):
    """``imm_batch_step``'s next model."""
    return imm_batch_step(model, unlabeled, labeled, 0.0, lambda_beta)[1]


class TestBetaPdf:
    def test_uniform_density(self, rng):
        p = BetaParams(1.0, 1.0)
        for s in rng.uniform(0.01, 0.99, size=10):
            assert beta_pdf(p, float(s)) == pytest.approx(1.0, abs=1e-12)

    def test_beta22_at_half(self):
        # closed form 6 s (1-s) at s = 0.5
        assert beta_pdf(BetaParams(2.0, 2.0), 0.5) == pytest.approx(1.5, abs=1e-12)

    def test_normalizes_by_quadrature(self, rng):
        for _ in range(20):
            p = BetaParams(*rng.uniform(0.1, 50.0, size=2))
            total, _ = integrate.quad(lambda s: beta_pdf(p, s), 0.0, 1.0,
                                      limit=200)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            beta_pdf(BetaParams(2.0, 2.0), 0.0)
        with pytest.raises(ValueError):
            beta_pdf(BetaParams(2.0, 2.0), 1.0)

    def test_rejects_nonpositive_params(self):
        with pytest.raises(ValueError):
            BetaParams(0.0, 1.0)
        with pytest.raises(ValueError):
            BetaParams(1.0, -2.0)


class TestBetaln:
    # the corners the method-of-moments clamps can reach
    CORNERS = [(PARAM_FLOOR, 1e4), (1.0, 1.0), (PARAM_CEIL, PARAM_CEIL), (1.0, PARAM_CEIL)]

    def test_matches_scipy_within_16_ulp_of_the_largest_term(self):
        rng = np.random.default_rng(20240716)
        sample = 10.0 ** rng.uniform(np.log10(PARAM_FLOOR), np.log10(PARAM_CEIL),
                                     size=(20000, 2))
        pairs = [(float(a), float(b)) for a, b in sample] + self.CORNERS
        for a, b in pairs:
            scale = max(abs(math.lgamma(a)), abs(math.lgamma(b)),
                        abs(math.lgamma(a + b)), 1.0)
            ours, ref = betaln(a, b), float(special.betaln(a, b))
            assert abs(ours - ref) <= 16 * math.ulp(scale), (a, b, ours, ref)


class TestWeightedMoments:
    def test_equal_weights_are_plain_moments(self, rng):
        s = rng.uniform(0.1, 0.9, size=20)
        mean, var = weighted_moments(s, np.ones(20))
        assert mean == pytest.approx(s.mean())
        assert var == pytest.approx(s.var())

    def test_hand_worked_pair(self):
        mean, var = weighted_moments(np.array([0.2, 0.8]), np.array([1.0, 1.0]))
        assert mean == pytest.approx(0.5)
        assert var == pytest.approx(0.09)

    def test_zero_weight_ignores_sample(self, rng):
        s = rng.uniform(0.1, 0.9, size=5)
        w = np.array([1.0, 1.0, 0.0, 1.0, 1.0])
        mean, _ = weighted_moments(s, w)
        keep = np.delete(s, 2)
        assert mean == pytest.approx(keep.mean())

    def test_zero_total_weight_raises(self):
        with pytest.raises(ValueError):
            weighted_moments(np.array([0.5]), np.array([0.0]))


class TestMethodOfMoments:
    def test_uniform_moments_give_beta11(self):
        p = method_of_moments(0.5, 1.0 / 12.0)
        assert p.alpha == pytest.approx(1.0, abs=1e-12)
        assert p.beta == pytest.approx(1.0, abs=1e-12)

    def test_known_case(self):
        p = method_of_moments(0.8, 0.01)
        assert p.alpha == pytest.approx(12.0, abs=1e-9)
        assert p.beta == pytest.approx(3.0, abs=1e-9)

    def test_overdispersed_clamps_preserving_mean(self):
        p = method_of_moments(0.5, 0.3)
        assert p.mean == pytest.approx(0.5)
        assert min(p.alpha, p.beta) == pytest.approx(1e-2)

    def test_zero_variance_caps_preserving_mean(self):
        p = method_of_moments(0.9, 0.0)
        assert p.mean == pytest.approx(0.9, abs=1e-9)
        assert max(p.alpha, p.beta) == pytest.approx(1e6)

    @given(st.floats(0.1, 50.0), st.floats(0.1, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_from_true_moments(self, alpha, beta):
        true = BetaParams(alpha, beta)
        fit = method_of_moments(true.mean, true.variance)
        assert fit.alpha == pytest.approx(alpha, rel=1e-9, abs=1e-9)
        assert fit.beta == pytest.approx(beta, rel=1e-9, abs=1e-9)


class TestPosterior:
    def model(self, **kw):
        base = dict(id=BetaParams(10.0, 2.0), ood=BetaParams(2.0, 10.0), pi=0.5)
        base.update(kw)
        return BetaMixtureModel(**base)

    def test_symmetric_mixture_gives_half(self):
        m = self.model(id=BetaParams(3.0, 3.0), ood=BetaParams(3.0, 3.0))
        assert posterior_id(m, 0.37) == pytest.approx(0.5, abs=1e-12)

    def test_direct_substitution(self):
        # pi p_id / (pi p_id + (1-pi) p_ood) with densities 2 and 1
        m = self.model(id=BetaParams(2.0, 1.0), ood=BetaParams(1.0, 1.0))
        s = 1.0 - 1e-12  # p_id(s) = 2s -> 2, p_ood = 1
        assert posterior_id(m, 0.9999999) == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_epsilon_suppresses_posterior(self):
        assert posterior_id(self.model(), 0.8, epsilon=1e12) < 1e-9

    def test_epsilon_ignored_when_not_regularized(self):
        # the default is the unregularized posterior, the one the IMM reads
        m = self.model()
        a = posterior_id(m, 0.8)
        assert a == posterior_id(m, 0.8, epsilon=0.0) > posterior_id(m, 0.8, epsilon=5.0)

    def test_bounds_on_grid(self):
        m = self.model()
        s = clamp_scores(np.linspace(0.0, 1.0, 1001))
        p = posterior_id(m, s)
        assert np.all((p >= 0.0) & (p <= 1.0))

    def test_monotone_when_id_dominates(self):
        # monotone likelihood ratio: alpha_id >= alpha_ood, beta_id <= beta_ood
        m = self.model(id=BetaParams(10.0, 2.0), ood=BetaParams(2.0, 10.0))
        s = clamp_scores(np.linspace(0.0, 1.0, 1001))
        p = np.asarray(posterior_id(m, s))
        assert np.all(np.diff(p) >= -1e-12)


def reference_posterior_id(model, s, epsilon):
    """The posterior with its own density pass, as each call made it."""
    num = model.pi * beta_pdf(model.id, s)
    den = num + (1.0 - model.pi) * beta_pdf(model.ood, s)
    if epsilon:
        den = den + epsilon
    out = np.empty_like(den)
    dead = den == 0.0
    out[dead] = model.pi
    out[~dead] = num[~dead] / den[~dead]
    return out


class TestSharedDensities:
    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_one_density_pass_gives_both_posteriors(self, rng, epsilon):
        models = [BetaMixtureModel.default_init(0.4),
                  # both densities underflow to 0 in the middle: the prior comes back
                  BetaMixtureModel(id=BetaParams(1e5, 1.0), ood=BetaParams(1.0, 1e5), pi=0.3)]
        s = clamp_scores(np.concatenate([rng.uniform(0.0, 1.0, 64), [0.5, 1e-7, 1.0]]))
        for m in models:
            densities = mixture_densities(m, s)
            for eps in (epsilon, 0.0):  # the decision's form and the IMM's
                want = reference_posterior_id(m, s, eps)
                shared = posterior_id(m, s, eps, densities=densities)
                own = posterior_id(m, s, eps)
                assert shared.tobytes() == own.tobytes() == want.tobytes()
        assert posterior_id(models[1], 0.5) == 0.3

    def test_densities_must_match_the_scores(self):
        m = BetaMixtureModel.default_init(0.4)
        s = clamp_scores(np.linspace(0.0, 1.0, 8))
        with pytest.raises(ValueError, match="do not match"):
            posterior_id(m, s[:7], densities=mixture_densities(m, s))
        with pytest.raises(ValueError, match="do not match"):
            posterior_id(m, 0.5, densities=mixture_densities(m, s[:1]))


def reference_batch_step(model, unlabeled, labeled, epsilon, lam):
    """``imm_batch_step`` spelled out: clamp, one density pass, both
    posteriors, one MM-step and the EMA of each component not skipped."""
    s_u, s_l = clamp_scores(unlabeled), clamp_scores(labeled)
    densities = mixture_densities(model, s_u)
    p_reg = posterior_id(model, s_u, epsilon, densities)
    w_id = posterior_id(model, s_u, densities=densities)
    tilde_id, tilde_ood = _imm_iteration(s_u, s_l, w_id)

    def ema(old, new):
        return old if new is None else BetaParams(lam * old.alpha + (1.0 - lam) * new.alpha,
                                                  lam * old.beta + (1.0 - lam) * new.beta)
    return p_reg, replace(model, id=ema(model.id, tilde_id), ood=ema(model.ood, tilde_ood))


# both densities underflow to 0 between the spikes, at 0.5 among others
UNDERFLOWING = BetaMixtureModel(id=BetaParams(1e5, 1.0), ood=BetaParams(1.0, 1e5), pi=0.3)


class TestImmBatchStep:
    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_equals_the_spelled_out_step_bit_for_bit(self, rng, epsilon):
        models = [BetaMixtureModel.default_init(0.5), UNDERFLOWING,
                  BetaMixtureModel(id=BetaParams(400.0, 5.0), ood=BetaParams(5.0, 400.0), pi=0.6)]
        for m in models:
            for _ in range(20):
                # raw scores: the ends of [0, 1] and a little past them need the clamp
                unl = np.concatenate([rng.uniform(0.0, 1.0, 40), [0.0, 1.0, 0.5, -1e-9],
                                      rng.beta(50, 1, 8)])
                lab = np.concatenate([rng.beta(8, 2, 12), [1.0, 1.0 + 1e-9]])
                lam = rng.choice([0.0, 0.9, 0.999])
                p_id, got = imm_batch_step(m, unl, lab, epsilon, lam)
                want_p, want = reference_batch_step(m, unl, lab, epsilon, lam)
                assert p_id.tobytes() == want_p.tobytes()
                assert got == want
                m = got

    def test_a_skipped_component_stays_bit_for_bit(self):
        m = BetaMixtureModel(id=BetaParams(400.0, 5.0), ood=BetaParams(5.0, 400.0), pi=0.5)
        unl, lab = np.linspace(0.9, 0.99, 30), np.array([0.95, 0.96])
        (p_id, got), (want_p, want) = (step(m, unl, lab, 0.1, 0.5)
                                       for step in (imm_batch_step, reference_batch_step))
        assert p_id.tobytes() == want_p.tobytes()
        assert got == want and got.ood == m.ood

    def test_lambda_one_freezes_model(self, rng):
        m = BetaMixtureModel.default_init(0.5)
        out = imm_step(m, rng.uniform(0.1, 0.9, 64), rng.uniform(0.5, 0.9, 16), 1.0)
        assert (out.id, out.ood) == (m.id, m.ood)

    def test_lambda_zero_separated_matches_per_component_mom(self, rng):
        # construct a model under which posteriors are numerically 0 or 1
        m = BetaMixtureModel(id=BetaParams(400.0, 5.0), ood=BetaParams(5.0, 400.0), pi=0.5)
        hi = rng.uniform(0.93, 0.97, size=40)   # posterior ~ 1
        lo = rng.uniform(0.03, 0.07, size=40)   # posterior ~ 0
        lab = rng.uniform(0.94, 0.96, size=10)
        unl = np.concatenate([hi, lo])
        out = imm_step(m, unl, lab, 0.0)
        id_ref = method_of_moments(
            *weighted_moments(np.concatenate([lab, hi]), np.ones(50)))
        ood_ref = method_of_moments(*weighted_moments(lo, np.ones(40)))
        assert out.id.alpha == pytest.approx(id_ref.alpha, rel=1e-9)
        assert out.ood.beta == pytest.approx(ood_ref.beta, rel=1e-9)

    def test_replay_converges_to_lambda0_fixed_point(self, rng):
        unl = clamp_scores(np.concatenate([rng.beta(8, 2, size=50),
                                           rng.beta(2, 8, size=50)]))
        lab = clamp_scores(rng.beta(8, 2, size=20))
        # lambda = 0 fixed point by plain iteration on the same batch
        ref = BetaMixtureModel.default_init(0.5)
        for _ in range(2000):
            ref = imm_step(ref, unl, lab, 0.0)
        m = BetaMixtureModel.default_init(0.5)
        for _ in range(20000):
            m = imm_step(m, unl, lab, 0.9)
        for a, b in ((m.id.alpha, ref.id.alpha), (m.id.beta, ref.id.beta),
                     (m.ood.alpha, ref.ood.alpha), (m.ood.beta, ref.ood.beta)):
            assert a == pytest.approx(b, abs=1e-6)

    def test_degenerate_component_skipped(self):
        m = BetaMixtureModel(id=BetaParams(400.0, 5.0), ood=BetaParams(5.0, 400.0), pi=0.5)
        hi = np.linspace(0.9, 0.99, 30)  # no OOD mass at all
        out = imm_step(m, hi, np.array([0.95, 0.96]), 0.0)
        assert out.ood == m.ood
        assert out.id != m.id

    def test_epsilon_never_touches_imm(self):
        # the trainer's E-step reads the unregularized posterior: with no loss
        # reading the decision, the mixture columns do not move with epsilon
        base = TrainingConfig(**TINY, w_semi=0.0, w_sub=0.0, decision_rule="direct_weight")
        runs = [trainer.train(base.replace(epsilon=eps)).runlog.steps for eps in (0.0, 0.1, 7.0)]
        mixture = [[(r.alpha_id, r.beta_id, r.alpha_ood, r.beta_ood) for r in steps]
                   for steps in runs]
        assert mixture[0] == mixture[1] == mixture[2]
        assert runs[0][-1].mean_p_id > runs[2][-1].mean_p_id  # the decision's posterior moved

    def test_full_batch_lambda0_equals_one_reference_iteration(self, rng):
        unl = clamp_scores(rng.beta(6, 2, size=200))
        lab = clamp_scores(rng.beta(6, 2, size=40))
        init = BetaMixtureModel.default_init(0.5)
        stepped = imm_step(init, unl, lab, 0.0)
        ref = fit_reference(unl, lab, pi=0.5, max_iters=1, tol=0.0, init=init)
        assert (stepped.id, stepped.ood) == (ref.id, ref.ood)


class TestLogRecordSources:
    """The benchmark's tracer counts ``osslab.betamix`` records by the function
    that logs them: underflow WARNINGs from ``posterior_id`` and clamp DEBUG
    records from ``method_of_moments``."""

    def records(self, caplog, *args):
        with caplog.at_level(logging.DEBUG, logger="osslab.betamix"):
            imm_batch_step(*args)
        return [r for r in caplog.records if r.name == "osslab.betamix"]

    def test_underflow_warning_comes_from_posterior_id(self, caplog):
        warnings = [r for r in self.records(caplog, UNDERFLOWING, np.full(16, 0.5),
                                            np.full(4, 0.9), 0.0, 0.999)
                    if r.levelno == logging.WARNING]
        # both posteriors see the underflow when epsilon is 0
        assert [r.funcName for r in warnings] == ["posterior_id"] * 2
        assert "underflowed for 16 score(s)" in warnings[0].getMessage()

    def test_zero_variance_debug_comes_from_method_of_moments(self, caplog):
        debug = [r for r in self.records(caplog, BetaMixtureModel.default_init(0.5),
                                         np.full(16, 0.5), np.full(4, 0.5), 0.1, 0.999)
                 if r.levelno == logging.DEBUG]
        assert [r.funcName for r in debug] == ["method_of_moments"] * 2
        assert all("zero-variance fit capped" in r.getMessage() for r in debug)


def drifting_stream(seed: int):
    """2,000 batches ``(unlabeled, labeled, is_id)`` of a score stream whose OOD
    law drifts up into the ID one and back down.

    Each batch holds 64 ID scores from Beta(298.5, 1.5), whose mean is 0.995;
    64 OOD scores from a Beta of concentration 60, whose mean goes from 0.55
    to 0.97 over steps 0-999, then to 0.30 over steps 1,000-1,499, and stays
    there; and 32 labeled scores from the ID law.
    """
    rng = np.random.default_rng(seed)
    is_id = np.repeat([True, False], 64)
    for k in range(2000):
        mean = np.interp(k, [0, 999, 1499], [0.55, 0.97, 0.30])
        unlabeled = np.concatenate([rng.beta(298.5, 1.5, 64),
                                    rng.beta(60.0 * mean, 60.0 * (1.0 - mean), 64)])
        yield unlabeled, rng.beta(298.5, 1.5, 32), is_id


@pytest.mark.xfail(strict=True, reason="a component whose E-step mass falls below "
                   "MIN_COMPONENT_MASS is skipped, and once skipped it never moves again")
def test_the_streaming_estimator_follows_a_drifting_ood_law():
    """Once the OOD scores drift back down, the OOD component must follow them:
    it moves on each of the last 500 steps, and the final batch's posterior
    beats the prior-only predictor's Brier score pi (1 - pi) = 0.25."""
    for seed in range(3):
        model, moved = BetaMixtureModel.default_init(0.5), []
        for unlabeled, labeled, is_id in drifting_stream(seed):
            p_id, stepped = imm_batch_step(model, unlabeled, labeled, 0.0, 0.999)
            moved.append(stepped.ood != model.ood)
            model = stepped
        assert float(np.mean((p_id - is_id) ** 2)) < 0.25, f"stream seed {seed}"
        assert all(moved[-500:]), f"stream seed {seed}"


class TestFitReference:
    def test_mixture_recovery_near_bayes_auroc(self, rng):
        n = 5000
        labels = rng.random(n) < 0.5
        s = np.where(labels, rng.beta(10, 2, size=n), rng.beta(2, 10, size=n))
        model = fit_reference(s, np.array([]), pi=0.5)
        # held-out draws with known component labels
        m_test = 20000
        t_labels = rng.random(m_test) < 0.5
        t = np.where(t_labels, rng.beta(10, 2, size=m_test),
                     rng.beta(2, 10, size=m_test))
        t = clamp_scores(t)
        fitted_post = np.asarray(posterior_id(model, t))
        bayes_post = np.asarray(posterior_id(
            BetaMixtureModel(BetaParams(10, 2), BetaParams(2, 10), pi=0.5), t))
        fitted_auroc = auroc(fitted_post[t_labels], fitted_post[~t_labels])
        bayes_auroc = auroc(bayes_post[t_labels], bayes_post[~t_labels])
        assert abs(fitted_auroc - bayes_auroc) <= 0.02

    def test_identical_scores_no_crash(self):
        model = fit_reference(np.full(50, 0.5), np.array([]), pi=0.5)
        assert np.isfinite(model.id.alpha) and np.isfinite(model.ood.alpha)

    def test_single_component_mean_recovered(self, rng):
        s = rng.beta(8, 2, size=4000)
        model = fit_reference(s, np.array([]), pi=0.99)
        assert model.id.mean == pytest.approx(0.8, abs=0.05)

    def test_too_few_scores_rejected(self):
        with pytest.raises(ValueError):
            fit_reference(np.array([0.5] * 5), np.array([]), pi=0.5)
