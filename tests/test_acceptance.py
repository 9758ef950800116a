"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line so the whole gate can be read off a
single ``pytest tests/test_acceptance.py -v -s`` run. Several checks share
expensive training runs through session-scoped fixtures.
"""

import time

import numpy as np
import pytest
from scipy import integrate

from osslab import nn, trainer
from osslab.betamix import (
    BetaMixtureModel, BetaParams, MomentPair, beta_pdf, clamp_scores,
    fit_reference, imm_batch_step, method_of_moments, posterior_id,
    _imm_iteration,
)
from osslab.config import TrainingConfig
from osslab.data import generate
from osslab.decide import sample_mask
from osslab.evaluation import auroc
from osslab.losses import (
    LossWeights, loss_reg, loss_self, loss_semi, loss_sub, loss_sup,
)
from osslab.rng import stream
from osslab.subspace import (
    IdSubspaceBasis, subspace_score, subspace_scores,
)


def report(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


# -- shared training runs ----------------------------------------------------

BENCH = TrainingConfig()          # the full desk-scale benchmark config

# Reduced-scale config for the ablation and pi-sweep checks. The stronger
# self-supervision weight keeps features anchored so that the mask-driven
# losses separate scores instead of amplifying sampling noise.
ABLATION = TrainingConfig(cluster_separation=3.0, labeled_per_class=8,
                          samples_per_class=100, K=2000, K_p=1000,
                          eval_every=2000, seed=0, w_self=5.0)


@pytest.fixture(scope="session")
def bench_run():
    t0 = time.time()
    result = trainer.train(BENCH)
    return result, time.time() - t0


# -- 1. gradient suite -------------------------------------------------------

class TestGradientSuite:
    def test_all_losses_and_composite(self):
        t0 = time.time()
        rng = np.random.default_rng(7)
        weights = LossWeights(w_semi=1.0, w_self=0.7, w_sub=1.0, w_reg=1e-3)
        worst = 0.0
        for trial in range(20):
            params = nn.init_params(6, (10,), 5, 4, rng)
            B, uB = 4, 8
            xl = rng.normal(size=(B, 6))
            y = rng.integers(0, 4, B)
            xw = rng.normal(size=(uB, 6))
            xs = rng.normal(size=(uB, 6))
            gate = rng.random(uB).round()
            sub_w = 1.0 - 2.0 * gate
            Q, _ = np.linalg.qr(rng.normal(size=(5, 3)))
            basis = IdSubspaceBasis(Q=Q)
            # weak-view quantities are constants for every loss below
            frozen = nn.forward(params, xw)
            weak_probs, weak_z = frozen.probs.copy(), frozen.z.copy()

            def lg_sup(p):
                g = p.zeros_like()
                tr = nn.forward(p, xl)
                val, d = loss_sup(tr.log_probs, y)
                nn.backward(p, tr, g, d_logits=d)
                return val, g.to_vector()

            def lg_semi(p):
                g = p.zeros_like()
                tr = nn.forward(p, xs)
                val, d, _ = loss_semi(weak_probs, tr.log_probs, gate, 0.6)
                nn.backward(p, tr, g, d_logits=d)
                return val, g.to_vector()

            def lg_self(p):
                g = p.zeros_like()
                tr = nn.forward(p, xs)
                h_out = nn.h_forward(p, tr.z)
                val, d_h, _ = loss_self(h_out, weak_z)
                d_z = nn.h_backward(p, tr.z, d_h, g)
                nn.backward(p, tr, g, d_z=d_z)
                return val, g.to_vector()

            def lg_sub(p):
                g = p.zeros_like()
                tr = nn.forward(p, xw)
                val, d_z = loss_sub(tr.z, basis, sub_w)
                nn.backward(p, tr, g, d_z=d_z)
                return val, g.to_vector()

            def lg_reg(p):
                val, d = loss_reg(p.to_vector())
                return val, d

            def lg_composite(p):
                total, grad = 0.0, np.zeros(p.to_vector().size)
                for w, lg in ((1.0, lg_sup), (weights.w_semi, lg_semi),
                              (weights.w_self, lg_self), (weights.w_sub, lg_sub),
                              (weights.w_reg, lg_reg)):
                    v, gv = lg(p)
                    total += w * v
                    grad += w * gv
                return total, grad

            for lg in (lg_sup, lg_semi, lg_self, lg_sub, lg_reg, lg_composite):
                rep = nn.grad_check(params, lg, tolerance=1e-4, rng=rng,
                                    num_coords=40)
                worst = max(worst, rep.max_rel_error)
        elapsed = time.time() - t0
        report("gradient suite",
               worst < 1e-4 and elapsed < 60.0,
               f"max rel error {worst:.3e} over 20 batches x 6 objectives "
               f"in {elapsed:.1f}s")


# -- 2. score properties -----------------------------------------------------

class TestScoreProperties:
    def test_thousand_random_instances(self):
        rng = np.random.default_rng(11)
        worst_rot = 0.0
        for _ in range(1000):
            dim = int(rng.integers(2, 12))
            rank = int(rng.integers(1, dim + 1))
            Q, _ = np.linalg.qr(rng.normal(size=(dim, rank)))
            basis = IdSubspaceBasis(Q=Q)
            z = rng.normal(size=dim) * 10.0 ** rng.integers(-3, 4)
            s = subspace_score(z, basis)
            assert 0.0 <= s <= 1.0
            assert subspace_score(3.7 * z, basis) == pytest.approx(s, rel=1e-12)
            in_span = Q @ rng.normal(size=rank)
            if np.linalg.norm(in_span) > 1e-8:
                assert subspace_score(in_span, basis) == pytest.approx(1.0, abs=1e-10)
            if rank < dim:
                resid = z - Q @ (Q.T @ z)
                if np.linalg.norm(resid) > 1e-8:
                    assert subspace_score(resid, basis) == pytest.approx(0.0, abs=1e-10)
            R, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
            s_rot = subspace_score(R @ z, IdSubspaceBasis(Q=R @ Q))
            worst_rot = max(worst_rot, abs(s_rot - s))
        report("score properties",
               worst_rot < 1e-9,
               f"1000 instances; range/scale/span/orthogonality held, "
               f"max rotation deviation {worst_rot:.2e}")


# -- 3. mixture estimation ---------------------------------------------------

class TestMixtureEstimation:
    def test_moment_round_trip_and_normalization(self):
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(200):
            p = BetaParams(alpha=float(rng.uniform(0.1, 50)),
                           beta=float(rng.uniform(0.1, 50)))
            back = method_of_moments(MomentPair(p.mean, p.variance))
            worst = max(worst, abs(back.alpha - p.alpha), abs(back.beta - p.beta))
        quad, _ = integrate.quad(
            lambda s: beta_pdf(BetaParams(3.7, 1.9), np.array([s]))[0], 0, 1)
        report("mixture estimation: moments/pdf",
               worst < 1e-9 and abs(quad - 1.0) < 1e-6,
               f"round-trip error {worst:.2e}, pdf mass {quad:.8f}")

    def test_full_batch_step_equals_reference_iteration(self):
        rng = np.random.default_rng(29)
        scores = clamp_scores(rng.beta(4, 2, 400))
        labeled = clamp_scores(rng.beta(8, 2, 50))
        model = BetaMixtureModel.default_init(pi=0.5, lambda_ema=0.0)
        stepped = imm_batch_step(model, scores, labeled)
        ref_id, ref_ood = _imm_iteration(model, scores, labeled)
        ok = (stepped.id == ref_id and stepped.ood == ref_ood)
        report("mixture estimation: batch step vs reference", ok,
               "lambda=0 full-batch step equals one reference iteration exactly")

    def test_mixture_recovery_near_bayes(self):
        rng = np.random.default_rng(31)
        n = 5000
        is_id = rng.random(n) < 0.5
        s = np.where(is_id, rng.beta(10, 2, n), rng.beta(2, 10, n))
        truth = BetaMixtureModel(id=BetaParams(10, 2), ood=BetaParams(2, 10),
                                 pi=0.5)
        bayes = auroc(posterior_id(truth, clamp_scores(s[is_id])),
                      posterior_id(truth, clamp_scores(s[~is_id])))
        fit = fit_reference(s, labeled_scores=np.empty(0), pi=0.5)
        got = auroc(posterior_id(fit, clamp_scores(s[is_id])),
                    posterior_id(fit, clamp_scores(s[~is_id])))
        report("mixture estimation: recovery", abs(got - bayes) <= 0.02,
               f"fitted AUROC {got:.4f} vs Bayes {bayes:.4f}")


# -- 4. ranking metric -------------------------------------------------------

class TestRankingMetric:
    def test_equals_pairwise_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(1000):
            n, m = int(rng.integers(1, 40)), int(rng.integers(1, 40))
            a = np.round(rng.random(n), 1)   # coarse grid forces ties
            b = np.round(rng.random(m), 1)
            oracle = sum(1.0 if x > y else 0.5 if x == y else 0.0
                         for x in a for y in b) / (n * m)
            assert auroc(a, b) == oracle
        report("ranking metric", True,
               "rank-based value equals pairwise oracle on 1000 tied instances")


# -- 5. mask statistics ------------------------------------------------------

class TestMaskStatistics:
    def test_bernoulli_means(self):
        n = 100_000
        worst = 0.0
        for p in (0.1, 0.3, 0.5, 0.9):
            rng = np.random.default_rng(41)
            mask = sample_mask(np.full(n, p), rng)
            sigma = np.sqrt(p * (1 - p) / n)
            worst = max(worst, abs(mask.mean() - p) / sigma)
        report("mask statistics", worst < 4.0,
               f"max deviation {worst:.2f} binomial sigmas over 1e5 draws "
               f"at p in {{0.1, 0.3, 0.5, 0.9}}")


# -- 6. end-to-end benchmark -------------------------------------------------

class TestBenchmark:
    def test_full_run_thresholds(self, bench_run):
        result, elapsed = bench_run
        acc = result.summary["closed_set_accuracy"]
        sub = result.summary["auroc"]["subspace"]
        energy = result.summary["auroc"]["energy"]
        ok = acc >= 0.90 and sub >= 0.95 and sub > energy and elapsed < 900
        report("end-to-end benchmark", ok,
               f"accuracy {acc:.3f} (>=0.90), subspace AUROC {sub:.4f} "
               f"(>=0.95), energy AUROC {energy:.4f} (subspace higher), "
               f"{elapsed:.0f}s (<900s)")


# -- 7. ablation directions --------------------------------------------------

class TestAblationDirections:
    def test_loss_grid_and_decision_rules(self):
        grid = {}
        for drop_self in (False, True):
            for drop_sub in (False, True):
                cfg = ABLATION.replace(drop_self=drop_self, drop_sub=drop_sub)
                grid[(drop_self, drop_sub)] = \
                    trainer.train(cfg).summary["auroc"]["subspace"]
        full = grid[(False, False)]
        grid_ok = all(full >= v for k, v in grid.items() if k != (False, False))

        rules = {}
        for rule in ("sampled_mask", "direct_weight", "otsu_threshold"):
            cfg = ABLATION.replace(decision_rule=rule)
            rules[rule] = trainer.train(cfg).summary["auroc"]["subspace"]
        gap = abs(rules["sampled_mask"] - rules["direct_weight"])

        detail = (f"2x2 AUROC grid {{(drop_self, drop_sub): v}} = "
                  f"{ {k: round(v, 4) for k, v in grid.items()} }; "
                  f"sampled vs weighted gap {gap:.4f} (<=0.02); "
                  f"otsu arm {rules['otsu_threshold']:.4f} (reported only)")
        report("ablation directions", grid_ok and gap <= 0.02, detail)


# -- 8. determinism ----------------------------------------------------------

class TestDeterminism:
    def test_bitwise_identical_metrics(self, bench_run):
        result, _ = bench_run
        again = trainer.train(TrainingConfig())
        ok = (again.runlog.steps_csv() == result.runlog.steps_csv()
              and again.runlog.evals_csv() == result.runlog.evals_csv())
        report("determinism", ok,
               "two benchmark runs produced bitwise-identical metrics CSVs")


# -- 9. prior sweep ----------------------------------------------------------

class TestPriorSweep:
    def test_accuracy_insensitive_to_pi(self):
        rows = {}
        for pi in (0.3, 0.4, 0.5):
            res = trainer.train(ABLATION.replace(pi=pi))
            rows[pi] = (res.summary["closed_set_accuracy"],
                        res.summary["auroc"]["subspace"])
        accs = [a for a, _ in rows.values()]
        spread = max(accs) - min(accs)
        detail = (f"accuracy spread {spread:.4f} (<0.05); per-pi "
                  f"(accuracy, AUROC) = "
                  f"{ {pi: (round(a, 3), round(u, 4)) for pi, (a, u) in rows.items()} }")
        report("prior sweep", spread < 0.05, detail)
