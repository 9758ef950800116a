import numpy as np
import pytest

from osslab.config import TrainingConfig
from osslab.nn import NumericalError
from osslab.optim import ema_update, lr, sgd_step


class TestSchedule:
    def test_constant_during_warmup(self):
        s = TrainingConfig(eta0=0.5, K=100, K_p=20)
        for k in range(20):
            assert lr(s, k) == 0.5

    def test_cosine_endpoints(self):
        s = TrainingConfig(eta0=1.0, K=100, K_p=20, gamma=0.625)
        assert lr(s, 20) == pytest.approx(1.0)
        assert lr(s, 100) == pytest.approx(np.cos(0.625 * np.pi / 2))

    def test_hand_computed_midpoint(self):
        s = TrainingConfig(eta0=2.0, K=120, K_p=20, gamma=0.5)
        # k = 70: progress (70-20)/(2*(120-20)) = 0.25, cos(0.5*pi*0.25)
        assert lr(s, 70) == pytest.approx(2.0 * np.cos(0.125 * np.pi))

    def test_monotone_nonincreasing(self):
        s = TrainingConfig(eta0=0.03, K=500, K_p=50)
        vals = [lr(s, k) for k in range(501)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.0  # gamma < 1 keeps the final rate positive

    def test_out_of_range_rejected(self):
        s = TrainingConfig(eta0=0.1, K=10, K_p=2)
        with pytest.raises(ValueError):
            lr(s, -1)
        with pytest.raises(ValueError):
            lr(s, 11)

    def test_pure_warmup_schedule(self):
        s = TrainingConfig(eta0=0.1, K=10, K_p=10)
        assert lr(s, 9) == 0.1
        with pytest.raises(ValueError):
            lr(s, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(eta0=0.0, K=10, K_p=1)
        with pytest.raises(ValueError):
            TrainingConfig(eta0=0.1, K=10, K_p=11)
        with pytest.raises(ValueError):
            TrainingConfig(eta0=0.1, K=10, K_p=1, gamma=0.0)


class TestSgdStep:
    def test_zero_momentum_is_plain_sgd(self, rng):
        theta = rng.normal(size=5)
        g = rng.normal(size=5)
        new = sgd_step(theta.copy(), g, np.zeros(5), 0.0, 0.1)
        assert np.allclose(new, theta - 0.1 * g)

    def test_hand_computed_nesterov_sequence(self):
        # quadratic f = 0.5 x^2, grad = x, m = 0.5, lr = 0.1
        m, eta = 0.5, 0.1
        theta = np.array([1.0])
        velocity = np.zeros(1)
        v = 0.0
        x = 1.0
        for _ in range(4):
            g = x
            v = m * v + g
            x = x - eta * (m * v + g)
            theta = sgd_step(theta, np.array([theta[0]]), velocity, m, eta)
            assert theta[0] == pytest.approx(x, abs=1e-15)

    def test_converges_on_quadratic(self):
        velocity = np.zeros(3)
        theta = np.array([5.0, -3.0, 1.0])
        for _ in range(300):
            theta = sgd_step(theta, theta, velocity, 0.9, 0.05)
        assert np.abs(theta).max() < 1e-6

    def test_nonfinite_gradient_rejected(self):
        with pytest.raises(NumericalError):
            sgd_step(np.zeros(2), np.array([1.0, np.nan]), np.zeros(2), 0.9, 0.1)

    def test_updates_in_place(self, rng):
        theta, g = rng.normal(size=4), rng.normal(size=4)
        velocity = np.zeros(4)
        assert sgd_step(theta, g, velocity, 0.9, 0.1) is theta
        assert np.array_equal(velocity, g)

    def test_nonfinite_gradient_leaves_state_untouched(self, rng):
        # train() saves the live state as the end of the previous step
        theta = rng.normal(size=3)
        velocity = np.zeros(3)
        sgd_step(theta, rng.normal(size=3), velocity, 0.9, 0.1)
        before = theta.tobytes(), velocity.tobytes()
        with pytest.raises(NumericalError):
            sgd_step(theta, np.array([1.0, np.nan, 0.0]), velocity, 0.9, 0.1)
        assert (theta.tobytes(), velocity.tobytes()) == before

    def test_velocity_accumulates(self):
        velocity = np.zeros(1)
        sgd_step(np.zeros(1), np.ones(1), velocity, 0.9, 0.1)
        assert velocity[0] == pytest.approx(1.0)
        sgd_step(np.zeros(1), np.ones(1), velocity, 0.9, 0.1)
        assert velocity[0] == pytest.approx(1.9)


class TestEmaUpdate:
    def test_momentum_zero_tracks_exactly(self, rng):
        ema = np.zeros(4)
        theta = rng.normal(size=4)
        ema_update(ema, theta, 0.0)
        assert np.array_equal(ema, theta)

    def test_updates_in_place(self, rng):
        ema = np.zeros(4)
        assert ema_update(ema, np.ones(4), 0.5) is None
        assert np.array_equal(ema, np.full(4, 0.5))

    def test_momentum_one_freezes(self, rng):
        ema = np.ones(4)
        ema_update(ema, rng.normal(size=4), 1.0)
        assert np.array_equal(ema, np.ones(4))

    def test_hand_value(self):
        ema = np.full(1, 2.0)
        ema_update(ema, np.array([4.0]), 0.9)
        assert ema[0] == pytest.approx(0.9 * 2.0 + 0.1 * 4.0)

    def test_converges_to_constant(self):
        ema = np.zeros(1)
        for _ in range(500):
            ema_update(ema, np.array([3.0]), 0.9)
        assert ema[0] == pytest.approx(3.0, abs=1e-8)
