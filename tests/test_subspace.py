import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osslab import subspace
from osslab.subspace import (
    ClassMeanTable, ScoreKind, SubspaceUndefinedError, alt_scores, compute_basis,
    subspace_score_grads, subspace_scores, update_class_means,
)


def table_from_means(means):
    means = np.atleast_2d(np.asarray(means, dtype=float))
    return ClassMeanTable(means=means.copy(),
                          initialized=np.ones(means.shape[0], dtype=bool))


def random_basis(rng, dim, rank):
    Q, _ = np.linalg.qr(rng.normal(size=(dim, rank)))
    return subspace.IdSubspaceBasis(Q=Q)


class TestUpdateClassMeans:
    def test_momentum_one_is_identity(self, rng):
        t = ClassMeanTable.empty(2, 3)
        t.means[:] = rng.normal(size=(2, 3))
        t.initialized[:] = True
        before = t.means.copy()
        update_class_means(t, rng.normal(size=(4, 3)), np.array([0, 0, 1, 1]), 1.0)
        assert np.array_equal(t.means, before)

    def test_momentum_zero_takes_batch_mean(self, rng):
        t = ClassMeanTable.empty(2, 3)
        t.initialized[:] = True
        Z = rng.normal(size=(4, 3))
        update_class_means(t, Z, np.array([0, 0, 1, 1]), 0.0)
        assert np.allclose(t.means[0], Z[:2].mean(axis=0))

    def test_ema_arithmetic(self):
        t = ClassMeanTable.empty(1, 2)
        t.means[0] = [1.0, 0.0]
        t.initialized[0] = True
        update_class_means(t, np.array([[0.0, 1.0]]), np.array([0]), 0.9)
        assert np.allclose(t.means[0], [0.9, 0.1])

    def test_first_sighting_initializes_directly(self):
        t = ClassMeanTable.empty(2, 2)
        update_class_means(t, np.array([[3.0, 4.0]]), np.array([1]), 0.9)
        assert np.allclose(t.means[1], [3.0, 4.0])
        assert t.initialized[1] and not t.initialized[0]

    def test_absent_classes_unchanged(self, rng):
        t = ClassMeanTable.empty(3, 2)
        t.means[:] = rng.normal(size=(3, 2))
        t.initialized[:] = True
        before = t.means[2].copy()
        update_class_means(t, rng.normal(size=(2, 2)), np.array([0, 1]), 0.5)
        assert np.array_equal(t.means[2], before)


def masked_subspace_score_grads(Z, basis):
    """Reference: the masked-gather form, which computes only the healthy rows."""
    U = Z @ basis.Q
    proj = U @ basis.Q.T
    u_norm = np.linalg.norm(U, axis=1)
    z_norm = np.linalg.norm(Z, axis=1)
    scores = np.zeros(Z.shape[0])
    grads = np.zeros_like(Z)
    ok = (z_norm > 0) & (u_norm > 0)
    scores[z_norm > 0] = np.minimum(u_norm[z_norm > 0] / z_norm[z_norm > 0], 1.0)
    zn = z_norm[ok]
    grads[ok] = (proj[ok] / (u_norm[ok] * zn)[:, None]
                 - (scores[ok] / zn ** 2)[:, None] * Z[ok])
    return scores, grads


class TestDegenerateRows:
    @pytest.mark.parametrize("degenerate", ["none", "zero_rows", "orthogonal_rows"])
    def test_scores_and_grads_equal_masked_reference(self, rng, degenerate):
        # an axis-aligned basis, so zeroed coordinates give an exactly zero projection
        basis = (subspace.IdSubspaceBasis(Q=np.eye(6)[:, :3]) if degenerate == "orthogonal_rows"
                 else random_basis(rng, 6, 3))
        for _ in range(20):
            Z = rng.normal(size=(32, 6))
            rows = np.arange(32) % 5 == 0
            if degenerate == "zero_rows":
                Z[rows] = 0.0
            elif degenerate == "orthogonal_rows":
                Z[rows, :3] = 0.0
            want_s, want_g = masked_subspace_score_grads(Z, basis)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # degenerate rows divide by 0 silently
                got_s, got_g = subspace_score_grads(Z, basis)
                plain = subspace_scores(Z, basis)
            assert got_s.tobytes() == want_s.tobytes()
            assert got_g.tobytes() == want_g.tobytes()
            assert plain.tobytes() == want_s.tobytes()


class TestComputeBasis:
    def test_standard_basis_vectors(self):
        basis = compute_basis(table_from_means([[1, 0, 0], [0, 1, 0]]))
        assert basis.rank == 2
        span = basis.Q @ basis.Q.T
        assert np.allclose(span, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    def test_duplicated_means_drop_rank(self, rng):
        v = rng.normal(size=4)
        w = rng.normal(size=4)
        basis = compute_basis(table_from_means([v, w, v]))
        # oracle: rank from an independent SVD
        svd_rank = np.linalg.matrix_rank(np.stack([v, w, v]).T)
        assert basis.rank == svd_rank == 2

    def test_orthonormality_random_tables(self, rng):
        for _ in range(100):
            means = rng.normal(size=(rng.integers(1, 5), 6))
            basis = compute_basis(table_from_means(means))
            QtQ = basis.Q.T @ basis.Q
            assert np.allclose(QtQ, np.eye(basis.rank), atol=1e-10)

    def test_undefined_without_initialized_means(self):
        with pytest.raises(SubspaceUndefinedError):
            compute_basis(ClassMeanTable.empty(3, 4))


class TestSubspaceScore:
    def test_in_span_scores_one(self, rng):
        basis = random_basis(rng, 5, 2)
        z = basis.Q @ rng.normal(size=2)
        assert subspace_scores(z[None], basis)[0] == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_scores_zero(self):
        basis = subspace.IdSubspaceBasis(Q=np.eye(3)[:, :2])
        z = np.array([0.0, 0.0, 2.0])
        assert subspace_scores(z[None], basis)[0] == pytest.approx(0.0, abs=1e-10)

    def test_hand_worked_projection(self):
        # span{e1, e2} in 3 dims, z = (1, 1, sqrt 2): s = 1/sqrt 2
        basis = subspace.IdSubspaceBasis(Q=np.eye(3)[:, :2])
        z = np.array([1.0, 1.0, np.sqrt(2.0)])
        assert subspace_scores(z[None], basis)[0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_zero_vector_clamps_to_zero(self, rng):
        basis = random_basis(rng, 4, 2)
        assert subspace_scores(np.zeros((1, 4)), basis)[0] == 0.0

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_score_in_unit_interval(self, seed):
        r = np.random.default_rng(seed)
        basis = random_basis(r, 6, int(r.integers(1, 5)))
        z = r.normal(size=6) * 10.0 ** float(r.integers(-3, 4))
        s = subspace_scores(z[None], basis)[0]
        assert 0.0 <= s <= 1.0

    def test_scale_invariance(self, rng):
        basis = random_basis(rng, 6, 3)
        z = rng.normal(size=6)
        for alpha in (1e-6, 0.5, 3.0, 1e6):
            assert subspace_scores((alpha * z)[None], basis)[0] == pytest.approx(
                subspace_scores(z[None], basis)[0], rel=1e-12)

    def test_projection_idempotent(self, rng):
        basis = random_basis(rng, 6, 3)
        P = basis.Q @ basis.Q.T
        assert np.allclose(P @ P, P, atol=1e-10)

    def test_basis_rotation_invariance(self, rng):
        basis = random_basis(rng, 6, 3)
        R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotated = subspace.IdSubspaceBasis(Q=basis.Q @ R)
        z = rng.normal(size=6)
        assert subspace_scores(z[None], rotated)[0] == pytest.approx(
            subspace_scores(z[None], basis)[0], abs=1e-9)

    def test_orientation_near_means_scores_higher(self, rng):
        table = table_from_means(np.eye(4)[:2])
        basis = compute_basis(table)
        near = table.means[0] + 0.05 * rng.normal(size=4)
        ortho = np.array([0.0, 0.0, 1.0, 1.0])
        assert subspace_scores(near[None], basis)[0] > subspace_scores(ortho[None], basis)[0]


class TestScoreGradients:
    def test_matches_finite_differences(self, rng):
        basis = random_basis(rng, 6, 3)
        Z = rng.normal(size=(5, 6))
        scores, grads = subspace_score_grads(Z, basis)
        eps = 1e-6
        for i in range(5):
            for j in range(6):
                zp, zm = Z[i].copy(), Z[i].copy()
                zp[j] += eps
                zm[j] -= eps
                fd = (subspace_scores(zp[None], basis)[0]
                      - subspace_scores(zm[None], basis)[0]) / (2 * eps)
                assert grads[i, j] == pytest.approx(fd, abs=1e-7)

    def test_zero_projection_gives_zero_grad(self):
        basis = subspace.IdSubspaceBasis(Q=np.eye(3)[:, :1])
        scores, grads = subspace_score_grads(np.array([[0.0, 1.0, 0.0]]), basis)
        assert scores[0] == 0.0
        assert np.array_equal(grads, np.zeros((1, 3)))


LOGIT_SCORES = (ScoreKind.MSP, ScoreKind.ENERGY, ScoreKind.MAX_LOGIT)


def per_kind_scores(Z, logits, table, basis):
    """Each score kind from its own formula, sharing nothing with another
    kind; the min-Euclid score takes the full (N, C, D) difference block."""
    u_norm = np.linalg.norm(Z @ basis.Q, axis=1)
    z_norm = np.linalg.norm(Z, axis=1)
    means = table.means[table.initialized]
    zn = np.linalg.norm(Z, axis=1, keepdims=True)
    mn = np.linalg.norm(means, axis=1)
    shifted = logits - logits.max(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        subspace_s = np.where(z_norm > 0, np.minimum(u_norm / z_norm, 1.0), 0.0)
    return {
        ScoreKind.SUBSPACE: subspace_s,
        ScoreKind.MIN_EUCLID_TO_MEAN: -np.linalg.norm(Z[:, None, :] - means[None], axis=2).min(axis=1),
        ScoreKind.RESIDUAL_TO_SUBSPACE: -np.linalg.norm(Z - (Z @ basis.Q) @ basis.Q.T, axis=1),
        ScoreKind.MAX_COSINE_TO_MEAN: ((Z @ means.T) / np.where(zn * mn[None, :] > 0,
                                                                zn * mn[None, :], 1.0)).max(axis=1),
        ScoreKind.MSP: np.exp(shifted.max(axis=1) - np.log(np.exp(shifted).sum(axis=1))),
        ScoreKind.ENERGY: np.log(np.exp(shifted).sum(axis=1)) + logits.max(axis=1),
        ScoreKind.MAX_LOGIT: logits.max(axis=1),
    }


def forward_log_probs(logits):
    """The log-softmax of ``logits``, computed as ``nn.forward`` computes it."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def some_scores(Z=None, logits=None, table=None, basis=None, num_classes=3, dim=4):
    """``alt_scores`` with random stand-ins for the inputs a test leaves out."""
    r = np.random.default_rng(7)
    Z = r.normal(size=(1, dim)) if Z is None else np.atleast_2d(Z)
    logits = np.zeros((len(Z), num_classes)) if logits is None else logits
    table = table_from_means(r.normal(size=(num_classes, Z.shape[1]))) if table is None else table
    basis = compute_basis(table) if basis is None else basis
    return alt_scores(Z, logits, forward_log_probs(logits), table, basis)


class TestAltScores:
    def test_every_kind_in_order(self):
        assert list(some_scores()) == list(ScoreKind)

    @pytest.mark.parametrize("n, c, d", [(1, 1, 1), (40, 5, 6), (100, 16, 64), (30, 7, 200)])
    def test_equals_per_kind_formulas_bit_for_bit(self, rng, n, c, d):
        means = rng.normal(size=(c + 2, d)) * 10.0
        initialized = np.ones(c + 2, dtype=bool)
        initialized[[0, -1]] = False  # uninitialized rows are skipped
        table = ClassMeanTable(means=means, initialized=initialized)
        basis = compute_basis(table)
        Z = rng.normal(size=(n + 3, d)) * 10.0
        Z[0] = 0.0                                      # a zero row
        Z[1] = basis.Q @ rng.normal(size=basis.rank)    # in the span
        Z[2] -= basis.Q @ (basis.Q.T @ Z[2])            # orthogonal to the span
        logits = rng.normal(size=(n + 3, c)) * 5.0
        logits[-1, 1:] = -1e4  # the other classes underflow: the log-sum-exp is exactly 0
        assert forward_log_probs(logits)[-1, 0] == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the zero row divides by 0 silently
            got = alt_scores(Z, logits, forward_log_probs(logits), table, basis)
        want = per_kind_scores(Z, logits, table, basis)
        for kind in ScoreKind:
            assert got[kind].tobytes() == want[kind].tobytes(), kind

    def test_msp_uniform_logits(self):
        s = some_scores(logits=np.zeros((1, 5)), num_classes=5)[ScoreKind.MSP]
        assert s[0] == pytest.approx(0.2)

    def test_energy_hand_value(self):
        # the score is -E(x) = logsumexp(logits)
        s = some_scores(logits=np.array([[0.0, 0.0]]), num_classes=2)[ScoreKind.ENERGY]
        assert s[0] == pytest.approx(np.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("kind", LOGIT_SCORES)
    @pytest.mark.parametrize("num_classes", [2, 5])
    def test_logit_scores_grow_with_the_winning_logit(self, kind, num_classes):
        # rows [t, 0, ..., 0]: a larger winning logit is more ID for every kind
        t = np.linspace(0.0, 40.0, 401)
        logits = np.zeros((t.size, num_classes))
        logits[:, 0] = t
        s = some_scores(Z=np.ones((t.size, 4)), logits=logits, num_classes=num_classes)[kind]
        assert np.all(np.diff(s) >= 0.0)
        assert s[-1] > s[0]

    def test_max_logit(self, rng):
        logits = rng.normal(size=(7, 4))
        s = some_scores(Z=np.ones((7, 4)), logits=logits, num_classes=4)[ScoreKind.MAX_LOGIT]
        assert np.array_equal(s, logits.max(axis=1))

    def test_min_euclid_at_mean_is_maximal_zero(self, rng):
        table = table_from_means(rng.normal(size=(3, 4)))
        s = some_scores(Z=table.means[1], table=table)[ScoreKind.MIN_EUCLID_TO_MEAN]
        assert s[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n, c, d", [(50, 1, 1), (40, 5, 1), (100, 16, 64),
                                         (7, 3, 129), (30, 7, 200)])
    def test_min_euclid_running_minimum_equals_block_reference(self, rng, n, c, d):
        # the (N, C, D) difference block the running minimum replaced; two
        # uninitialized rows must be skipped by both
        means = rng.normal(size=(c + 2, d)) * 10.0
        initialized = np.ones(c + 2, dtype=bool)
        initialized[[0, -1]] = False
        table = ClassMeanTable(means=means, initialized=initialized)
        Z = rng.normal(size=(n, d)) * 10.0
        Z[0] = means[1]
        block = Z[:, None, :] - means[initialized][None, :, :]
        ref = -np.linalg.norm(block, axis=2).min(axis=1)
        s = some_scores(Z=Z, table=table, num_classes=c)[ScoreKind.MIN_EUCLID_TO_MEAN]
        assert s.tobytes() == ref.tobytes()

    def test_residual_in_span_is_zero(self, rng):
        basis = random_basis(rng, 5, 2)
        z = basis.Q @ rng.normal(size=2)
        s = some_scores(Z=z, basis=basis, dim=5)[ScoreKind.RESIDUAL_TO_SUBSPACE]
        assert s[0] == pytest.approx(0.0, abs=1e-12)

    def test_max_cosine_at_mean_is_one(self, rng):
        table = table_from_means(rng.normal(size=(3, 4)))
        s = some_scores(Z=2.0 * table.means[0], table=table)[ScoreKind.MAX_COSINE_TO_MEAN]
        assert s[0] == pytest.approx(1.0, abs=1e-12)
