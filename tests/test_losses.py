import warnings

import numpy as np
import pytest

from osslab.config import TrainingConfig
from osslab.losses import (
    loss_reg, loss_self, loss_semi, loss_sub, loss_sup,
)
from osslab.subspace import IdSubspaceBasis, subspace_score_grads


def softmax_rows(logits):
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def log_softmax_rows(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def random_basis(rng, dim, rank):
    Q, _ = np.linalg.qr(rng.normal(size=(dim, rank)))
    return IdSubspaceBasis(Q=Q)


def fd_logits(fn, logits, eps=1e-6):
    """Central-difference gradient of fn(logits) w.r.t. every logit."""
    g = np.zeros_like(logits)
    for i in range(logits.shape[0]):
        for j in range(logits.shape[1]):
            lp, lm = logits.copy(), logits.copy()
            lp[i, j] += eps
            lm[i, j] -= eps
            g[i, j] = (fn(lp) - fn(lm)) / (2 * eps)
    return g


class TestLossSup:
    def test_perfect_prediction_is_zero(self):
        logp = np.log(np.array([[1.0 - 1e-15, 1e-15]]))
        val, _ = loss_sup(logp, np.array([0]))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_uniform_prediction_is_log_c(self):
        C = 5
        logp = np.full((3, C), -np.log(C))
        val, _ = loss_sup(logp, np.array([0, 2, 4]))
        assert val == pytest.approx(np.log(C))

    def test_nonnegative(self, rng):
        logits = rng.normal(size=(10, 4))
        val, _ = loss_sup(log_softmax_rows(logits), rng.integers(0, 4, 10))
        assert val >= 0.0

    def test_gradient_matches_fd(self, rng):
        logits = rng.normal(size=(4, 3))
        y = rng.integers(0, 3, 4)
        _, grad = loss_sup(log_softmax_rows(logits), y)
        fd = fd_logits(lambda l: loss_sup(log_softmax_rows(l), y)[0], logits)
        assert np.allclose(grad, fd, atol=1e-8)


class TestLossSemi:
    def test_no_confident_samples(self, rng):
        weak = softmax_rows(rng.normal(scale=0.01, size=(6, 4)))
        strong = log_softmax_rows(rng.normal(size=(6, 4)))
        val, grad, count = loss_semi(weak, strong, np.ones(6), tau=0.95)
        assert val == 0.0 and count == 0
        assert np.array_equal(grad, np.zeros_like(grad))

    def test_all_masked_ood(self, rng):
        weak = softmax_rows(rng.normal(scale=20.0, size=(6, 4)))  # confident
        strong = log_softmax_rows(rng.normal(size=(6, 4)))
        val, grad, count = loss_semi(weak, strong, np.zeros(6), tau=0.5)
        assert val == 0.0 and count == 0

    def test_single_qualifying_term(self):
        # one confident masked-ID sample with strong prob q on the pseudo-label
        weak = np.array([[0.98, 0.02], [0.6, 0.4]])
        q = 0.3
        strong = np.log(np.array([[q, 1 - q], [0.5, 0.5]]))
        gate = np.array([1.0, 1.0])
        val, _, count = loss_semi(weak, strong, gate, tau=0.95)
        assert count == 1
        assert val == pytest.approx(-np.log(q) / 2)

    def test_gradient_matches_fd(self, rng):
        weak = softmax_rows(rng.normal(scale=4.0, size=(5, 3)))
        logits = rng.normal(size=(5, 3))
        gate = (rng.random(5) > 0.4).astype(float)
        _, grad, _ = loss_semi(weak, log_softmax_rows(logits), gate, tau=0.6)
        fd = fd_logits(
            lambda l: loss_semi(weak, log_softmax_rows(l), gate, 0.6)[0], logits)
        assert np.allclose(grad, fd, atol=1e-8)

    def test_mask_gating_removes_value_and_gradient(self, rng):
        weak = softmax_rows(rng.normal(scale=20.0, size=(4, 3)))
        logits = rng.normal(size=(4, 3))
        gate = np.array([1.0, 0.0, 1.0, 1.0])
        val_all, grad_all, _ = loss_semi(weak, log_softmax_rows(logits),
                                         np.ones(4), tau=0.5)
        val_g, grad_g, _ = loss_semi(weak, log_softmax_rows(logits), gate, tau=0.5)
        assert np.array_equal(grad_g[1], np.zeros(3))
        assert val_g != val_all


class TestLossSelf:
    def test_identity_projection_self_cosine(self, rng):
        z = rng.normal(size=(5, 4))
        val, _, ndeg = loss_self(z, z)
        assert val == pytest.approx(-1.0)
        assert ndeg == 0

    def test_orthogonal_gives_zero(self):
        h = np.array([[1.0, 0.0], [0.0, 2.0]])
        z = np.array([[0.0, 3.0], [1.0, 0.0]])
        val, grad, _ = loss_self(h, z)
        assert val == pytest.approx(0.0)

    def test_range(self, rng):
        for _ in range(20):
            val, _, _ = loss_self(rng.normal(size=(8, 5)), rng.normal(size=(8, 5)))
            assert -1.0 <= val <= 1.0

    def test_zero_norm_term_is_dropped(self, rng):
        h = rng.normal(size=(3, 4))
        h[1] = 0.0
        z = rng.normal(size=(3, 4))
        val, grad, ndeg = loss_self(h, z)
        assert ndeg == 1
        assert np.array_equal(grad[1], np.zeros(4))

    def test_gradient_matches_fd(self, rng):
        h = rng.normal(size=(4, 5))
        z = rng.normal(size=(4, 5))
        _, grad, _ = loss_self(h, z)
        eps = 1e-6
        for i in range(4):
            for j in range(5):
                hp, hm = h.copy(), h.copy()
                hp[i, j] += eps
                hm[i, j] -= eps
                fd = (loss_self(hp, z)[0] - loss_self(hm, z)[0]) / (2 * eps)
                assert grad[i, j] == pytest.approx(fd, abs=1e-8)


def masked_loss_self(h_out, weak_z):
    """Reference: the masked-gather form, which computes only the healthy rows."""
    n = h_out.shape[0]
    hn = np.linalg.norm(h_out, axis=1)
    zn = np.linalg.norm(weak_z, axis=1)
    ok = (hn > 0) & (zn > 0)
    cos = np.zeros(n)
    d_h = np.zeros_like(h_out)
    dots = (h_out * weak_z).sum(axis=1)
    cos[ok] = dots[ok] / (hn[ok] * zn[ok])
    d_h[ok] = (weak_z[ok] / (hn[ok] * zn[ok])[:, None]
               - (dots[ok] / (hn[ok] ** 3 * zn[ok]))[:, None] * h_out[ok])
    return float(-cos.mean()), -d_h / n, int((~ok).sum())


class TestLossSelfDegenerateRows:
    @pytest.mark.parametrize("zero_rows", [False, True])
    def test_equals_masked_reference(self, rng, zero_rows):
        for _ in range(20):
            h = rng.normal(size=(32, 8))
            z = rng.normal(size=(32, 8))
            if zero_rows:
                h[3] = 0.0
                z[[5, 17]] = 0.0
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # degenerate rows divide by 0 silently
                got_v, got_d, got_n = loss_self(h, z)
            want_v, want_d, want_n = masked_loss_self(h, z)
            assert (got_v, got_n) == (want_v, want_n)
            assert got_d.tobytes() == want_d.tobytes()


class TestLossSub:
    def test_all_id_is_negative_mean_score(self, rng):
        basis = random_basis(rng, 5, 2)
        Z = rng.normal(size=(6, 5))
        val, _ = loss_sub(*subspace_score_grads(Z, basis), np.ones(6))
        from osslab.subspace import subspace_scores
        assert val == pytest.approx(-subspace_scores(Z, basis).mean())

    def test_all_ood_flips_sign(self, rng):
        basis = random_basis(rng, 5, 2)
        Z = rng.normal(size=(6, 5))
        v_id, _ = loss_sub(*subspace_score_grads(Z, basis), np.ones(6))
        v_ood, _ = loss_sub(*subspace_score_grads(Z, basis), np.zeros(6))
        assert v_ood == pytest.approx(-v_id)

    def test_hand_worked_mixed_batch(self):
        # scores (1, 0) with gates (1, 0), ID then OOD, signed by 1 - 2 gate:
        # (-1*1 + 1*0)/2 = -0.5
        basis = IdSubspaceBasis(Q=np.eye(3)[:, :1])
        Z = np.array([[2.0, 0.0, 0.0],   # in span, s = 1
                      [0.0, 1.0, 0.0]])  # orthogonal, s = 0
        val, _ = loss_sub(*subspace_score_grads(Z, basis), np.array([1.0, 0.0]))
        assert val == pytest.approx(-0.5)

    def test_gradient_matches_fd(self, rng):
        basis = random_basis(rng, 5, 2)
        Z = rng.normal(size=(4, 5))
        gate = rng.choice([0.0, 1.0], size=4)
        _, grad = loss_sub(*subspace_score_grads(Z, basis), gate)
        eps = 1e-6
        for i in range(4):
            for j in range(5):
                Zp, Zm = Z.copy(), Z.copy()
                Zp[i, j] += eps
                Zm[i, j] -= eps
                fd = (loss_sub(*subspace_score_grads(Zp, basis), gate)[0] - loss_sub(*subspace_score_grads(Zm, basis), gate)[0]) / (2 * eps)
                assert grad[i, j] == pytest.approx(fd, abs=1e-8)


class TestLossReg:
    def test_zero_params(self):
        assert loss_reg(np.zeros(7))[0] == 0.0

    def test_single_param(self):
        val, grad = loss_reg(np.array([2.0]))
        assert val == 2.0
        assert grad[0] == 2.0

    def test_nonnegative(self, rng):
        assert loss_reg(rng.normal(size=100))[0] >= 0.0


class TestLossWeights:
    def test_weights_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(w_semi=-1.0)
        with pytest.raises(ValueError):
            TrainingConfig(tau=0.0)
