import copy
import tracemalloc

import numpy as np
import pytest

from osslab import nn


def quadratic_loss(params):
    theta = params.to_vector()
    return 0.5 * theta @ theta, theta


def reference_grads(p, X, d_z, d_logits, derivative):
    """``backward``'s gradients from a forward pass recomputed here, keeping
    each layer's pre-activation; a hidden layer's gradient is ``d_a *
    derivative(pre, act)``, a new array. Returns them and the pre-activations."""
    act_fn = {"tanh": np.tanh, "relu": lambda v: np.maximum(v, 0.0)}[p.activation]
    ref = p.zeros_like()
    last = len(p.f_weights) - 1
    a, acts, pres = X, [X], []
    for i, (W, b) in enumerate(zip(p.f_weights, p.f_biases)):
        pres.append(a @ W.T + b)
        a = act_fn(pres[-1]) if i < last else pres[-1]
        acts.append(a)
    d_a = d_z
    if d_logits is not None:
        ref.g_weight += d_logits.T @ a
        ref.g_bias += d_logits.sum(axis=0)
        d_a = d_z + d_logits @ p.g_weight
    for i in range(last, -1, -1):
        d_pre = d_a if i == last else d_a * derivative(pres[i], acts[i + 1])
        ref.f_weights[i] += d_pre.T @ acts[i]
        ref.f_biases[i] += d_pre.sum(axis=0)
        d_a = d_pre @ p.f_weights[i]
    return ref, pres


class TestForward:
    def test_zero_weights_give_uniform_probs(self, small_params, rng):
        zeros = small_params.from_vector(np.zeros(small_params.to_vector().size))
        tr = nn.forward(zeros, rng.normal(size=(4, 5)))
        assert np.allclose(tr.logits, 0.0)
        assert np.allclose(tr.probs, 1.0 / 3.0)

    def test_identity_single_layer(self):
        # layout: f weight, f bias, g weight, g bias, h weight
        theta = np.concatenate([np.eye(4).ravel(), np.zeros(4), np.zeros(8),
                                np.zeros(2), np.eye(4).ravel()])
        p = nn.MlpParams(theta, sizes=(4, 4), num_classes=2)
        x = np.arange(8, dtype=float).reshape(2, 4)
        tr = nn.forward(p, x)
        assert np.array_equal(tr.z, x)

    def test_probs_sum_to_one(self, small_params, rng):
        tr = nn.forward(small_params, rng.normal(size=(100, 5)))
        assert np.allclose(tr.probs.sum(axis=1), 1.0, atol=1e-9)

    def test_nonfinite_aborts(self, small_params):
        bad = small_params.copy()
        bad.f_weights[0][0, 0] = np.nan
        with pytest.raises(nn.NumericalError):
            nn.forward(bad, np.ones((1, 5)))

    @pytest.mark.parametrize("activation", sorted(nn._ACTIVATIONS))
    def test_input_and_parameters_are_not_written(self, rng, activation):
        # bias and activation go into the layer's own product, in place
        p = nn.init_params(input_dim=5, hidden=(8, 7), feature_dim=6, num_classes=3,
                           rng=rng, activation=activation)
        p.theta[:] = rng.normal(size=p.theta.size)
        X = rng.normal(size=(9, 5))
        X_before, theta_before = X.copy(), p.theta.copy()
        tr = nn.forward(p, X)
        assert tr.x is X and tr.acts[0] is X
        assert X.tobytes() == X_before.tobytes()
        assert p.theta.tobytes() == theta_before.tobytes()


class TestBackward:
    def test_zero_upstream_zero_grads(self, small_params, rng):
        tr = nn.forward(small_params, rng.normal(size=(3, 5)))
        grads = small_params.zeros_like()
        nn.backward(small_params, tr, grads, d_z=np.zeros_like(tr.z),
                    d_logits=np.zeros_like(tr.logits))
        assert np.allclose(grads.to_vector(), 0.0)

    def test_linear_head_bias_gradient(self, small_params, rng):
        # d(0.5 ||logits||^2)/d g_bias = sum of logits over the batch
        tr = nn.forward(small_params, rng.normal(size=(3, 5)))
        grads = small_params.zeros_like()
        nn.backward(small_params, tr, grads, d_logits=tr.logits)
        assert np.allclose(grads.g_bias, tr.logits.sum(axis=0))

    def test_shape_mismatch_raises(self, small_params, rng):
        tr = nn.forward(small_params, rng.normal(size=(3, 5)))
        grads = small_params.zeros_like()
        with pytest.raises(ValueError):
            nn.backward(small_params, tr, grads, d_logits=np.zeros((2, 3)))

    def test_relu_mask_from_outputs_equals_pre_activation_mask(self, rng):
        # backward reads act > 0; the reference masks with pre > 0 on the
        # pre-activations recomputed here, including exact zeros, -0.0 and
        # large negatives in the first layer
        p = nn.init_params(input_dim=4, hidden=(4, 5), feature_dim=3, num_classes=2,
                           rng=rng, activation="relu")
        p.f_weights[0][:] = np.eye(4)
        X = np.array([[0.0, -0.0, -1e300, 2.0], [-0.0, 1.5, 0.0, -7e200],
                      [3.0, -1e-300, 1e-300, 0.0], *rng.normal(size=(5, 4))])
        tr = nn.forward(p, X)
        d_z, d_logits = rng.normal(size=tr.z.shape), rng.normal(size=tr.logits.shape)
        grads = p.zeros_like()
        nn.backward(p, tr, grads, d_z=d_z, d_logits=d_logits)
        ref, pres = reference_grads(p, X, d_z, d_logits,
                                    lambda pre, act: (pre > 0.0).astype(float))
        assert (pres[0] == 0.0).any() and (pres[0] < -1e200).any()
        assert grads.theta.tobytes() == ref.theta.tobytes()

    @pytest.mark.parametrize("hidden", [(), (8,), (8, 7)])
    @pytest.mark.parametrize("activation", sorted(nn._ACTIVATIONS))
    def test_in_place_derivative_equals_the_formula(self, rng, activation, hidden):
        # backward scales a hidden layer's gradient in place; the reference
        # multiplies by a new derivative array, with or without d_logits (then
        # the last layer's gradient is the caller's d_z itself)
        derivative = {"tanh": lambda pre, act: 1.0 - act ** 2,
                      "relu": lambda pre, act: (act > 0.0).astype(float)}[activation]
        p = nn.init_params(input_dim=5, hidden=hidden, feature_dim=6, num_classes=3,
                           rng=rng, activation=activation)
        p.theta[:] = rng.normal(size=p.theta.size)  # saturates some tanh units
        X = rng.normal(size=(9, 5))
        tr = nn.forward(p, X)
        d_z, d_logits = rng.normal(size=tr.z.shape), rng.normal(size=tr.logits.shape)
        d_z_before, d_logits_before = d_z.copy(), d_logits.copy()
        for upstream in (d_logits, None):
            grads = p.zeros_like()
            nn.backward(p, tr, grads, d_z=d_z, d_logits=upstream)
            ref, _ = reference_grads(p, X, d_z, upstream, derivative)
            assert grads.theta.tobytes() == ref.theta.tobytes()
            assert d_z.tobytes() == d_z_before.tobytes()
            assert d_logits.tobytes() == d_logits_before.tobytes()

    @pytest.mark.parametrize("activation", sorted(nn._ACTIVATIONS))
    def test_peak_memory_of_one_backward(self, rng, activation):
        # the wide_mlp benchmark shapes, a strong-view batch (mu * B = 896
        # rows) with both upstream gradients; numpy reports its buffers to
        # tracemalloc, so the peak counts every array the call allocates
        N, hidden = 896, (256, 256)
        p = nn.init_params(input_dim=128, hidden=hidden, feature_dim=64, num_classes=16,
                           rng=rng, activation=activation)
        tr = nn.forward(p, rng.normal(size=(N, 128)))
        d_z, d_logits = rng.normal(size=tr.z.shape), rng.normal(size=tr.logits.shape)
        grads = p.zeros_like()
        layer_bytes = N * max(hidden) * 8
        tracemalloc.start()
        try:
            nn.backward(p, tr, grads, d_z=d_z, d_logits=d_logits)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * layer_bytes, f"peak {peak / layer_bytes:.2f}x one hidden layer"

    @pytest.mark.parametrize("activation", sorted(nn._ACTIVATIONS))
    def test_full_loss_matches_finite_differences(self, rng, activation):
        small_params = nn.init_params(input_dim=5, hidden=(8,), feature_dim=6,
                                      num_classes=3, rng=rng, activation=activation)
        X = rng.normal(size=(4, 5))
        y = rng.integers(0, 3, size=4)

        def loss_and_grad(p):
            tr = nn.forward(p, X)
            val = float(-tr.log_probs[np.arange(4), y].mean())
            d_logits = tr.probs.copy()
            d_logits[np.arange(4), y] -= 1.0
            grads = p.zeros_like()
            nn.backward(p, tr, grads, d_logits=d_logits / 4)
            return val, grads.to_vector()

        err = nn.grad_check(small_params, loss_and_grad, rng=rng)
        assert err < 1e-4, err


class TestGradCheck:
    def test_quadratic_exact(self, small_params, rng):
        # keep all coordinates O(1) so cancellation error stays tiny
        n = small_params.to_vector().size
        vec = rng.uniform(0.5, 1.5, size=n) * rng.choice([-1.0, 1.0], size=n)
        params = small_params.from_vector(vec)
        err = nn.grad_check(params, quadratic_loss, rng=rng, step=1e-2)
        assert err < 1e-8, err

    def test_checks_requested_coordinate_count(self, small_params, rng):
        calls = []

        def counted(p):
            calls.append(p)
            return quadratic_loss(p)

        nn.grad_check(small_params, counted, rng=rng, num_coords=50)
        assert len(calls) == 1 + 2 * 50  # the analytic gradient, then two per coordinate


def test_vector_roundtrip(small_params, rng):
    vec = rng.normal(size=small_params.to_vector().size)
    back = small_params.from_vector(vec)
    assert np.array_equal(back.to_vector(), vec)
    with pytest.raises(ValueError):
        small_params.from_vector(vec[:-1])


class TestOneBuffer:
    def test_layer_arrays_are_views_in_layout_order(self, small_params):
        p = small_params
        arrays = [p.f_weights[0], p.f_biases[0], p.f_weights[1], p.f_biases[1],
                  p.g_weight, p.g_bias, p.h_weight]
        assert np.array_equal(np.concatenate([a.ravel() for a in arrays]), p.theta)
        assert all(np.shares_memory(a, p.theta) for a in arrays)

    def test_writes_show_both_ways(self, small_params):
        p = small_params.copy()
        p.theta[0] = 7.0
        assert p.f_weights[0][0, 0] == 7.0
        p.f_weights[0][0, 1] = -3.0
        assert p.theta[1] == -3.0
        p.h_weight[-1, -1] = 5.0
        assert p.theta[-1] == 5.0

    def test_from_vector_views_its_argument(self, small_params, rng):
        vec = rng.normal(size=small_params.theta.size)
        p = small_params.from_vector(vec)
        assert p.theta is vec and p.to_vector() is vec
        vec[-1] = 11.0
        assert p.h_weight[-1, -1] == 11.0

    def test_copy_and_zeros_like_own_their_buffers(self, small_params):
        before = small_params.theta.copy()
        for other in (small_params.copy(), small_params.zeros_like()):
            assert not np.shares_memory(other.theta, small_params.theta)
            other.theta[:] = 3.0
        assert np.array_equal(small_params.theta, before)

    def test_deep_copy_views_its_own_buffer(self, small_params):
        # also inside a container, as when a run's state is deep-copied
        before = small_params.theta.copy()
        (p,) = copy.deepcopy([small_params])
        p.theta[0] = 7.0
        assert p.f_weights[0][0, 0] == 7.0
        assert small_params.f_weights[0][0, 0] == before[0]
        assert np.array_equal(small_params.theta, before)
        assert (p.sizes, p.num_classes, p.activation) == (
            small_params.sizes, small_params.num_classes, small_params.activation)

    def test_unknown_activation_rejected(self, small_params):
        with pytest.raises(ValueError):
            nn.MlpParams(small_params.theta, small_params.sizes, 3, activation="sigmoid")


class TestRowMax:
    @staticmethod
    def same(X):
        assert nn.row_max(X).tobytes() == X.max(axis=1).tobytes()

    @pytest.mark.parametrize("shape", [(800, 8), (37, 5), (3, 200), (5, 1), (1, 7)])
    def test_equals_numpy_with_exact_ties(self, rng, shape):
        # values on a coarse grid, so most rows hold their maximum more than once
        self.same(rng.integers(-3, 4, size=shape).astype(float))
        self.same(rng.normal(size=shape))

    def test_nan_and_infinities(self, rng):
        X = rng.normal(size=(6, 4))
        X[0, 2] = np.nan
        X[1, 0] = np.inf
        X[2, 3] = -np.inf
        X[3] = -np.inf
        X[4, [1, 3]] = np.nan, np.inf
        X[5, [0, 1]] = np.inf, -np.inf
        self.same(X)
        assert np.isnan(nn.row_max(X)[[0, 4]]).all()

    def test_non_contiguous_column_slice(self, rng):
        X = rng.normal(size=(50, 12))
        self.same(X[:, 2:9:3])
        self.same(X[::2, 1:])

    def test_mixed_signed_zeros_are_equal(self):
        # the sign of a zero maximum may differ from numpy's. No caller can
        # see it: forward's shift only flips a zero shifted logit, whose exp is
        # 1 either way, in a row whose log-sum-exp is at least log 2; the max
        # logit and max cosine scores reach outputs only through AUROC
        # comparisons, where -0.0 == 0.0
        X = np.array([[0.0, -0.0, -1.0], [-0.0, 0.0, -2.0], [-0.0, -3.0, -0.0]])
        assert np.array_equal(nn.row_max(X), X.max(axis=1))
        assert (nn.row_max(X) == 0.0).all()
