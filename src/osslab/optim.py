"""SGD with Nesterov momentum, two-phase cosine LR schedule, EMA shadow.

The Nesterov update uses the velocity form common in deep-learning
codebases: v <- m v + g; theta <- theta - lr (m v + g). Parameters are
handled as flat vectors; the model structure is reattached by callers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import NumericalError


@dataclass(frozen=True)
class Schedule:
    eta0: float
    K: int
    K_p: int
    gamma: float = 5.0 / 8.0

    def __post_init__(self):
        if self.eta0 <= 0:
            raise ValueError("eta0 must be positive")
        # K_p == K is allowed: a pure warm-up run never leaves the
        # constant branch.
        if not (0 <= self.K_p <= self.K):
            raise ValueError("need 0 <= K_p <= K")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must be in (0, 1]")


def lr(schedule: Schedule, k: int) -> float:
    """Constant eta0 during warm-up, cosine decay afterwards."""
    if not (0 <= k <= schedule.K):
        raise ValueError(f"step {k} outside [0, {schedule.K}]")
    if k < schedule.K_p:
        return schedule.eta0
    if schedule.K == schedule.K_p:
        raise ValueError("cosine branch undefined for a pure warm-up schedule")
    frac = (k - schedule.K_p) / (schedule.K - schedule.K_p)
    return schedule.eta0 * float(np.cos(schedule.gamma * np.pi * frac / 2.0))


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
    """One Nesterov step; mutates the velocity, returns new parameters."""
    if theta.shape != grad.shape:
        raise ValueError("parameter/gradient shape mismatch")
    if not np.isfinite(grad).all():
        raise NumericalError("non-finite gradient in sgd_step")
    m = state.momentum
    state.velocity = m * state.velocity + grad
    return theta - step_lr * (m * state.velocity + grad)


def ema_update(state: OptimizerState, theta: np.ndarray) -> None:
    em = state.ema_momentum
    state.ema_params = em * state.ema_params + (1.0 - em) * theta
