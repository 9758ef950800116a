import numpy as np
import pytest

from osslab.decide import (
    DecisionRule, RuleKind, decide, otsu_threshold, sample_mask,
)


class TestSampleMask:
    def test_degenerate_probabilities(self, rng):
        m1 = sample_mask(np.ones(500), rng)
        m0 = sample_mask(np.zeros(500), rng)
        assert m1.all()
        assert not m0.any()

    def test_complementarity(self, rng):
        # every sample is ID or OOD: the subspace weight is m_ood - m_id
        d = decide(DecisionRule(kind=RuleKind.SAMPLED_MASK), np.zeros(100),
                   rng.random(100), rng)
        assert d.m_id.dtype == bool
        assert np.array_equal(d.sub_weights, (~d.m_id).astype(float) - d.m_id)

    def test_binomial_concentration(self, rng):
        n = 100_000
        m = sample_mask(np.full(n, 0.3), rng)
        assert abs(m.mean() - 0.3) < 3 * np.sqrt(0.3 * 0.7 / n)

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.9])
    def test_unbiased_at_each_level(self, p, rng):
        n = 100_000
        m = sample_mask(np.full(n, p), rng)
        assert abs(m.mean() - p) < 4 * np.sqrt(p * (1 - p) / n)

    def test_determinism_given_rng_state(self):
        a = sample_mask(np.full(50, 0.4), np.random.default_rng(9))
        b = sample_mask(np.full(50, 0.4), np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_rejects_out_of_range(self, rng):
        with pytest.raises(ValueError):
            sample_mask(np.array([1.2]), rng)


def brute_force_otsu(scores, num_bins):
    """Independent oracle: between-class variance over every bin edge."""
    counts, edges = np.histogram(scores, bins=num_bins, range=(0.0, 1.0))
    centers = 0.5 * (edges[:-1] + edges[1:])
    best_edge, best_var = edges[1], -1.0
    for b in range(1, num_bins):
        left, right = counts[:b], counts[b:]
        if left.sum() == 0 or right.sum() == 0:
            continue
        w0 = left.sum() / counts.sum()
        mu0 = (left * centers[:b]).sum() / left.sum()
        mu1 = (right * centers[b:]).sum() / right.sum()
        v = w0 * (1 - w0) * (mu0 - mu1) ** 2
        if v > best_var:
            best_var, best_edge = v, edges[b]
    return best_edge


class TestOtsu:
    def test_two_point_clusters(self):
        scores = np.array([0.1, 0.1, 0.9, 0.9])
        t = otsu_threshold(scores, num_bins=128)
        assert 0.1 < t < 0.9
        assert t == pytest.approx(brute_force_otsu(scores, 128))

    def test_matches_brute_force_on_clusters(self, rng):
        scores = np.concatenate([rng.normal(0.2, 0.03, 100),
                                 rng.normal(0.8, 0.03, 100)])
        scores = np.clip(scores, 0.0, 1.0)
        t = otsu_threshold(scores, num_bins=64)
        assert 0.2 < t < 0.8
        assert t == pytest.approx(brute_force_otsu(scores, 64))

    def test_matches_brute_force_random(self, rng):
        for _ in range(50):
            scores = rng.random(rng.integers(2, 200))
            assert otsu_threshold(scores, 32) == pytest.approx(
                brute_force_otsu(scores, 32))

    def test_degenerate_identical_scores(self):
        assert otsu_threshold(np.full(10, 0.42)) == pytest.approx(0.42)


class TestDecide:
    def test_sampled_equals_unmodified_path(self, rng):
        p = rng.random(64)
        rule = DecisionRule(kind=RuleKind.SAMPLED_MASK)
        d = decide(rule, np.zeros(64), p, np.random.default_rng(5))
        ref = sample_mask(p, np.random.default_rng(5))
        assert np.array_equal(d.m_id, ref)
        m = ref.astype(float)
        assert np.array_equal(d.sub_weights, 1.0 - 2.0 * m)
        assert np.array_equal(d.semi_gate, m)

    def test_direct_weight_half_probability_zeroes_sub(self, rng):
        rule = DecisionRule(kind=RuleKind.DIRECT_WEIGHT)
        d = decide(rule, np.zeros(8), np.full(8, 0.5), rng)
        assert np.allclose(d.sub_weights, 0.0)
        assert np.allclose(d.semi_gate, 0.5)
        assert d.m_id is None
        assert d.id_rate == 0.5

    def test_otsu_momentum_one_freezes_threshold(self, rng):
        rule = DecisionRule(kind=RuleKind.OTSU_THRESHOLD, ema_threshold=0.5,
                            momentum=1.0)
        scores = rng.random(64)
        d = decide(rule, scores, scores, rng)
        assert d.threshold == 0.5
        assert rule.ema_threshold == 0.5

    def test_otsu_thresholds_scores(self, rng):
        rule = DecisionRule(kind=RuleKind.OTSU_THRESHOLD, ema_threshold=0.5,
                            momentum=0.0)
        scores = np.concatenate([np.full(32, 0.1), np.full(32, 0.9)])
        d = decide(rule, scores, scores, rng)
        assert d.m_id.sum() == 32
        assert np.array_equal(d.m_id, scores >= rule.ema_threshold)
        assert d.id_rate == 0.5

    def test_mask_complementarity_all_rules(self, rng):
        for kind in (RuleKind.SAMPLED_MASK, RuleKind.OTSU_THRESHOLD):
            rule = DecisionRule(kind=kind)
            d = decide(rule, rng.random(32), rng.random(32), rng)
            assert np.array_equal(d.semi_gate, d.m_id.astype(float))
            assert np.array_equal(d.sub_weights, 1.0 - 2.0 * d.semi_gate)

    def test_hash_is_stable(self, rng):
        p = rng.random(16)
        d1 = decide(DecisionRule(kind=RuleKind.DIRECT_WEIGHT), None, p, rng)
        d2 = decide(DecisionRule(kind=RuleKind.DIRECT_WEIGHT), None, p, rng)
        assert d1.hash() == d2.hash()
