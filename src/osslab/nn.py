"""Small MLP with exact manual backprop, in double precision.

Backbone ``f`` maps inputs to features, linear head ``g`` maps features
to logits, bias-free linear head ``h`` projects features for the
self-supervision loss. Gradients are exact reverse-mode; callers realize
stop-gradient semantics by simply not sending upstream gradients into
frozen quantities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class NumericalError(RuntimeError):
    """Non-finite values encountered during a forward/backward pass."""


@dataclass
class MlpParams:
    f_weights: list[np.ndarray]  # each (out, in)
    f_biases: list[np.ndarray]   # each (out,)
    g_weight: np.ndarray         # (C, D)
    g_bias: np.ndarray           # (C,)
    h_weight: np.ndarray         # (D, D), no bias
    activation: str = "tanh"

    @property
    def feature_dim(self) -> int:
        return self.g_weight.shape[1]

    @property
    def num_classes(self) -> int:
        return self.g_weight.shape[0]

    def _arrays(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.f_weights, self.f_biases):
            out.extend([w, b])
        out.extend([self.g_weight, self.g_bias, self.h_weight])
        return out

    def to_vector(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self._arrays()])

    def from_vector(self, vec: np.ndarray) -> "MlpParams":
        """New params with this object's shapes filled from ``vec``."""
        arrays = []
        i = 0
        for a in self._arrays():
            arrays.append(vec[i:i + a.size].reshape(a.shape).copy())
            i += a.size
        if i != vec.size:
            raise ValueError(f"vector size {vec.size} != parameter count {i}")
        nf = len(self.f_weights)
        return MlpParams(
            f_weights=arrays[0:2 * nf:2], f_biases=arrays[1:2 * nf:2],
            g_weight=arrays[2 * nf], g_bias=arrays[2 * nf + 1],
            h_weight=arrays[2 * nf + 2], activation=self.activation)

    def zeros_like(self) -> "MlpParams":
        return self.from_vector(np.zeros(self.to_vector().size))

    def copy(self) -> "MlpParams":
        return self.from_vector(self.to_vector())


@dataclass
class ForwardTrace:
    x: np.ndarray                 # (N, input_dim)
    pre_acts: list[np.ndarray]    # per hidden layer, (N, width)
    acts: list[np.ndarray]        # inputs to each f layer, acts[0] = x
    z: np.ndarray                 # (N, D)
    logits: np.ndarray            # (N, C)
    probs: np.ndarray             # (N, C), rows sum to 1
    log_probs: np.ndarray         # (N, C)


_ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "tanh": (np.tanh, lambda pre, act: 1.0 - act ** 2),
    "relu": (lambda v: np.maximum(v, 0.0),
             lambda pre, act: (pre > 0.0).astype(float)),
}


def init_params(input_dim: int, hidden: tuple[int, ...], feature_dim: int,
                num_classes: int, rng: np.random.Generator,
                activation: str = "tanh") -> MlpParams:
    """Uniform init in [-a, a], a = sqrt(6/(fan_in+fan_out)); zero biases."""
    if feature_dim < num_classes:
        raise ValueError("feature_dim must be >= num_classes for a full-rank ID subspace")
    if activation not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    sizes = (input_dim, *hidden, feature_dim)

    def uni(n_out, n_in):
        a = np.sqrt(6.0 / (n_in + n_out))
        return rng.uniform(-a, a, size=(n_out, n_in))

    f_weights = [uni(sizes[i + 1], sizes[i]) for i in range(len(sizes) - 1)]
    f_biases = [np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)]
    return MlpParams(
        f_weights=f_weights, f_biases=f_biases,
        g_weight=uni(num_classes, feature_dim), g_bias=np.zeros(num_classes),
        h_weight=uni(feature_dim, feature_dim), activation=activation)


def forward(params: MlpParams, X: np.ndarray) -> ForwardTrace:
    """Full forward pass: features, logits, (log-)softmax, cached trace.

    The final f layer is linear (no nonlinearity), hidden layers use the
    configured activation.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    act_fn, _ = _ACTIVATIONS[params.activation]
    a = X
    acts = [a]
    pre_acts = []
    n_layers = len(params.f_weights)
    for i, (W, b) in enumerate(zip(params.f_weights, params.f_biases)):
        pre = a @ W.T + b
        pre_acts.append(pre)
        a = pre if i == n_layers - 1 else act_fn(pre)
        acts.append(a)
    z = a
    logits = z @ params.g_weight.T + params.g_bias
    if not (np.isfinite(z).all() and np.isfinite(logits).all()):
        raise NumericalError("non-finite values in forward pass "
                             f"(|z|max={np.abs(z).max():.3g})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - lse
    probs = np.exp(log_probs)
    return ForwardTrace(x=X, pre_acts=pre_acts, acts=acts, z=z,
                        logits=logits, probs=probs, log_probs=log_probs)


def h_forward(params: MlpParams, Z: np.ndarray) -> np.ndarray:
    return Z @ params.h_weight.T


def backward(params: MlpParams, trace: ForwardTrace, grads: MlpParams,
             d_z: np.ndarray | None = None,
             d_logits: np.ndarray | None = None) -> None:
    """Accumulate exact gradients into ``grads`` from upstream gradients.

    ``d_z`` and ``d_logits`` are gradients of the loss w.r.t. the trace's
    features and logits (batch-shaped). Outputs the caller treats as
    constants simply receive no upstream gradient here.
    """
    N = trace.x.shape[0]
    dz = np.zeros_like(trace.z) if d_z is None else np.asarray(d_z, dtype=float)
    if dz.shape != trace.z.shape:
        raise ValueError(f"d_z shape {dz.shape} != z shape {trace.z.shape}")
    if d_logits is not None:
        d_logits = np.asarray(d_logits, dtype=float)
        if d_logits.shape != trace.logits.shape:
            raise ValueError(f"d_logits shape {d_logits.shape} != logits shape "
                             f"{trace.logits.shape}")
        grads.g_weight += d_logits.T @ trace.z
        grads.g_bias += d_logits.sum(axis=0)
        dz = dz + d_logits @ params.g_weight

    _, act_grad = _ACTIVATIONS[params.activation]
    n_layers = len(params.f_weights)
    d_a = dz
    for i in range(n_layers - 1, -1, -1):
        # last layer is linear; hidden layers pass through the activation
        d_pre = d_a if i == n_layers - 1 else d_a * act_grad(trace.pre_acts[i], trace.acts[i + 1])
        grads.f_weights[i] += d_pre.T @ trace.acts[i]
        grads.f_biases[i] += d_pre.sum(axis=0)
        if i > 0:
            d_a = d_pre @ params.f_weights[i]


def h_backward(params: MlpParams, Z_in: np.ndarray, d_out: np.ndarray,
               grads: MlpParams) -> np.ndarray:
    """Backprop through h; returns the gradient w.r.t. its input features."""
    grads.h_weight += d_out.T @ Z_in
    return d_out @ params.h_weight


@dataclass
class GradCheckReport:
    max_rel_error: float
    num_checked: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def grad_check(params: MlpParams,
               loss_and_grad: Callable[[MlpParams], tuple[float, np.ndarray]],
               tolerance: float = 1e-4, rng: np.random.Generator | None = None,
               num_coords: int = 200, step: float = 1e-5) -> GradCheckReport:
    """Central finite differences against the analytic gradient.

    Checks a random subset of coordinates (all of them if the model is
    smaller than ``num_coords``).
    """
    rng = rng or np.random.default_rng(0)
    theta = params.to_vector()
    _, analytic = loss_and_grad(params)
    n = theta.size
    coords = np.arange(n) if n <= num_coords else rng.choice(n, size=num_coords, replace=False)
    max_rel = 0.0
    for j in coords:
        tp = theta.copy()
        tp[j] += step
        lp, _ = loss_and_grad(params.from_vector(tp))
        tp[j] -= 2 * step
        lm, _ = loss_and_grad(params.from_vector(tp))
        fd = (lp - lm) / (2 * step)
        denom = max(abs(analytic[j]) + abs(fd), 1e-8)
        max_rel = max(max_rel, abs(analytic[j] - fd) / denom)
    return GradCheckReport(max_rel_error=max_rel, num_checked=len(coords),
                           tolerance=tolerance)
