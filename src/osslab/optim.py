"""SGD with Nesterov momentum, two-phase cosine LR schedule, EMA shadow.

The Nesterov update uses the velocity form common in deep-learning
codebases: v <- m v + g; theta <- theta - lr (m v + g). The parameters,
velocity and EMA shadow are flat vectors in the layout of
``MlpParams.theta``, held by the run's ``trainer.RunState``; every update
writes them in place, and the momenta come from the config.
"""

from __future__ import annotations

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


def sgd_step(theta: np.ndarray, grad: np.ndarray, velocity: np.ndarray, momentum: float,
             step_lr: float) -> np.ndarray:
    """One Nesterov step on ``theta`` and ``velocity``, both in place;
    returns ``theta``. A bad gradient raises before either is touched."""
    if theta.shape != grad.shape:
        raise ValueError("parameter/gradient shape mismatch")
    if not np.isfinite(grad).all():
        raise NumericalError("non-finite gradient in sgd_step")
    velocity *= momentum
    velocity += grad
    theta -= step_lr * (momentum * velocity + grad)
    return theta


def ema_update(ema: np.ndarray, theta: np.ndarray, ema_momentum: float) -> None:
    """Moves the EMA shadow ``ema`` toward ``theta``, in place."""
    ema *= ema_momentum
    ema += (1.0 - ema_momentum) * theta
