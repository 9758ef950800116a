"""Small MLP with exact manual backprop, in double precision.

Backbone ``f`` maps inputs to features, linear head ``g`` maps features
to logits, bias-free linear head ``h`` projects features for the
self-supervision loss. Gradients are exact reverse-mode; callers realize
stop-gradient semantics by simply not sending upstream gradients into
frozen quantities.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class NumericalError(RuntimeError):
    """Non-finite values encountered during a forward/backward pass."""


@dataclass
class MlpParams:
    """The network's weights, all stored in the one flat vector ``theta``.

    ``sizes`` is ``(input_dim, *hidden, feature_dim)``. The per-layer arrays
    are views into ``theta``, laid out as each f layer's weight (out, in) and
    bias, then g's weight (C, D) and bias, then h's weight (D, D); a write
    through either shows in the other.
    """
    theta: np.ndarray
    sizes: tuple[int, ...]
    num_classes: int
    activation: str = "tanh"

    def __post_init__(self):
        check_architecture(self.sizes, self.num_classes, self.activation)
        D, C = self.sizes[-1], self.num_classes
        shapes = []
        for n_in, n_out in zip(self.sizes, self.sizes[1:]):
            shapes += [(n_out, n_in), (n_out,)]
        shapes += [(C, D), (C,), (D, D)]
        views, i = [], 0
        for shape in shapes:
            n = math.prod(shape)
            views.append(self.theta[i:i + n].reshape(shape))
            i += n
        if i != self.theta.size:
            raise ValueError(f"vector size {self.theta.size} != parameter count {i}")
        self.f_weights = views[0:-3:2]  # each (out, in)
        self.f_biases = views[1:-3:2]   # each (out,)
        self.g_weight, self.g_bias, self.h_weight = views[-3:]

    def to_vector(self) -> np.ndarray:
        return self.theta

    def from_vector(self, vec: np.ndarray) -> "MlpParams":
        """Params of this shape that view ``vec``; nothing is copied."""
        return MlpParams(vec, self.sizes, self.num_classes, self.activation)

    def zeros_like(self) -> "MlpParams":
        return self.from_vector(np.zeros_like(self.theta))

    def copy(self) -> "MlpParams":
        return self.from_vector(self.theta.copy())

    def __deepcopy__(self, memo) -> "MlpParams":
        # the copy's layer arrays must view the copy's theta
        return self.from_vector(copy.deepcopy(self.theta, memo))


@dataclass
class ForwardTrace:
    x: np.ndarray                 # (N, input_dim)
    acts: list[np.ndarray]        # inputs to each f layer, acts[0] = x
    z: np.ndarray                 # (N, D)
    logits: np.ndarray            # (N, C)
    probs: np.ndarray             # (N, C), rows sum to 1
    log_probs: np.ndarray         # (N, C)


def _tanh_grad(d: np.ndarray, act: np.ndarray) -> None:
    """``d *= 1 - act ** 2`` in place, with one scratch buffer."""
    g = np.square(act)
    np.subtract(1.0, g, out=g)
    d *= g


# (in-place activation, in-place product of an upstream gradient with its
# derivative, taken from the activation's output); relu's act > 0 is the
# mask pre > 0, NaN included, since act = max(pre, 0)
_ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "tanh": (lambda v: np.tanh(v, out=v), _tanh_grad),
    "relu": (lambda v: np.maximum(v, 0.0, out=v),
             lambda d, act: np.multiply(d, act > 0.0, out=d)),
}


def check_architecture(sizes: tuple[int, ...], num_classes: int, activation: str) -> None:
    """Raises ``ValueError`` for an unknown activation, an empty layer or fewer
    features than classes."""
    if activation not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    if min(sizes) < 1:
        raise ValueError(f"every layer width must be >= 1, got {sizes}")
    if sizes[-1] < num_classes:
        raise ValueError("feature_dim must be >= num_classes for a full-rank ID subspace")


def init_params(input_dim: int, hidden: tuple[int, ...], feature_dim: int,
                num_classes: int, rng: np.random.Generator,
                activation: str = "tanh") -> MlpParams:
    """Uniform init in [-a, a], a = sqrt(6/(fan_in+fan_out)); zero biases."""
    sizes = (input_dim, *hidden, feature_dim)

    def uni(n_out, n_in):
        a = np.sqrt(6.0 / (n_in + n_out))
        return rng.uniform(-a, a, size=(n_out, n_in))

    # drawn in this order: the f weights, then g's, then h's
    f_weights = [uni(n_out, n_in) for n_in, n_out in zip(sizes, sizes[1:])]
    g_weight, h_weight = uni(num_classes, feature_dim), uni(feature_dim, feature_dim)
    theta = np.concatenate([a for w in f_weights for a in (w.ravel(), np.zeros(len(w)))]
                           + [g_weight.ravel(), np.zeros(num_classes), h_weight.ravel()])
    return MlpParams(theta, sizes, num_classes, activation)


def row_max(X: np.ndarray) -> np.ndarray:
    """``X.max(axis=1)`` of a 2-D array, taken down the columns of one
    contiguous copy of ``X.T``.

    numpy reduces each row of ``X`` with its own inner-loop call, which costs
    more than a short row's work: 49 µs for an (800, 8) array, against 6.4 µs
    down the copy's columns (numpy 2.4.6, 2-vCPU VM). A maximum is exact in
    any order, NaN included, so the values are ``X.max(axis=1)``'s; only the
    sign of a zero maximum may differ. (``X.argmax(axis=1)`` has no such
    overhead: 9.7 µs for the same array, less than any form taken down the
    columns.)
    """
    return np.ascontiguousarray(X.T).max(axis=0)


def forward(params: MlpParams, X: np.ndarray) -> ForwardTrace:
    """Full forward pass: features, logits, (log-)softmax, cached trace.

    The final f layer is linear (no nonlinearity), hidden layers use the
    configured activation. Each layer is one buffer: the product is a new
    array, and the bias and activation are applied to it in place, so
    ``X`` is never written.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    act_fn, _ = _ACTIVATIONS[params.activation]
    a = X
    acts = [a]
    n_layers = len(params.f_weights)
    for i, (W, b) in enumerate(zip(params.f_weights, params.f_biases)):
        a = a @ W.T
        a += b
        if i < n_layers - 1:
            act_fn(a)
        acts.append(a)
    z = a
    logits = z @ params.g_weight.T + params.g_bias
    if not (np.isfinite(z).all() and np.isfinite(logits).all()):
        raise NumericalError("non-finite values in forward pass "
                             f"(|z|max={np.abs(z).max():.3g})")
    # a zero maximum's sign can differ only in a row whose maximum is both +0.0
    # and -0.0; it flips a zero shifted logit, exp(-0.0) = exp(0.0) = 1, and
    # the row's log-sum-exp is at least log 2, so no output bit moves
    shifted = logits - row_max(logits)[:, None]
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - lse
    probs = np.exp(log_probs)
    return ForwardTrace(x=X, acts=acts, z=z,
                        logits=logits, probs=probs, log_probs=log_probs)


def h_forward(params: MlpParams, Z: np.ndarray) -> np.ndarray:
    return Z @ params.h_weight.T


def backward(params: MlpParams, trace: ForwardTrace, grads: MlpParams,
             d_z: np.ndarray | None = None,
             d_logits: np.ndarray | None = None) -> None:
    """Accumulate exact gradients into ``grads`` from upstream gradients.

    ``d_z`` and ``d_logits`` are gradients of the loss w.r.t. the trace's
    features and logits (batch-shaped); neither is written. Outputs the
    caller treats as constants simply receive no upstream gradient here.
    """
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
        # the last layer is linear, and its d_a may be the caller's d_z; a
        # hidden layer's d_a is this call's own product, scaled in place
        if i < n_layers - 1:
            act_grad(d_a, trace.acts[i + 1])
        grads.f_weights[i] += d_a.T @ trace.acts[i]
        grads.f_biases[i] += d_a.sum(axis=0)
        if i > 0:
            d_a = d_a @ params.f_weights[i]


def h_backward(params: MlpParams, Z_in: np.ndarray, d_out: np.ndarray,
               grads: MlpParams) -> np.ndarray:
    """Backprop through h; returns the gradient w.r.t. its input features."""
    grads.h_weight += d_out.T @ Z_in
    return d_out @ params.h_weight


def grad_check(params: MlpParams,
               loss_and_grad: Callable[[MlpParams], tuple[float, np.ndarray]],
               rng: np.random.Generator | None = None,
               num_coords: int = 200, step: float = 1e-5) -> float:
    """Central finite differences against the analytic gradient; returns the
    largest relative error, which the caller compares with its own bound.

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
    return max_rel
