"""SGD with Nesterov momentum, two-phase cosine LR schedule, EMA shadow.

The Nesterov update uses the velocity form common in deep-learning
codebases: v <- m v + g; theta <- theta - lr (m v + g). The parameters,
velocity and EMA shadow are flat vectors in the layout of
``MlpParams.theta``, and every update writes them in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import NumericalError


def lr(config, k: int) -> float:
    """Constant ``config.eta0`` during the ``K_p`` warm-up steps, cosine decay
    afterwards."""
    if not (0 <= k <= config.K):
        raise ValueError(f"step {k} outside [0, {config.K}]")
    if k < config.K_p:
        return config.eta0
    if config.K == config.K_p:
        raise ValueError("cosine branch undefined for a pure warm-up schedule")
    frac = (k - config.K_p) / (config.K - config.K_p)
    return config.eta0 * float(np.cos(config.gamma * np.pi * frac / 2.0))


@dataclass
class OptimizerState:
    velocity: np.ndarray
    momentum: float
    ema_params: np.ndarray
    ema_momentum: float

    @classmethod
    def init(cls, theta: np.ndarray, momentum: float = 0.9,
             ema_momentum: float = 0.999) -> "OptimizerState":
        if not (0.0 <= momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")
        if not (0.0 <= ema_momentum <= 1.0):
            raise ValueError("ema_momentum must be in [0, 1]")
        return cls(velocity=np.zeros_like(theta), momentum=momentum,
                   ema_params=theta.copy(), ema_momentum=ema_momentum)


def sgd_step(theta: np.ndarray, grad: np.ndarray, state: OptimizerState,
             step_lr: float) -> np.ndarray:
    """One Nesterov step on ``theta`` and the velocity, both in place;
    returns ``theta``. A bad gradient raises before either is touched."""
    if theta.shape != grad.shape:
        raise ValueError("parameter/gradient shape mismatch")
    if not np.isfinite(grad).all():
        raise NumericalError("non-finite gradient in sgd_step")
    m, v = state.momentum, state.velocity
    v *= m
    v += grad
    theta -= step_lr * (m * v + grad)
    return theta


def ema_update(state: OptimizerState, theta: np.ndarray) -> None:
    """Moves the EMA shadow toward ``theta``, in place."""
    em, ema = state.ema_momentum, state.ema_params
    ema *= em
    ema += (1.0 - em) * theta
