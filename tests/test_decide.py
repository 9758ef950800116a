import hashlib

import numpy as np
import pytest

from osslab.decide import (
    OTSU_START, RuleKind, decide, mask_hash, otsu_threshold, sample_mask,
)
from osslab.losses import loss_sub


def decide_at_start(kind, scores, posteriors, rng):
    """``decide`` with the Otsu EMA at its start value and momentum 0.999."""
    return decide(kind, scores, posteriors, rng, OTSU_START, 0.999)


class TestSampleMask:
    def test_degenerate_probabilities(self, rng):
        m1 = sample_mask(np.ones(500), rng)
        m0 = sample_mask(np.zeros(500), rng)
        assert m1.all()
        assert not m0.any()

    def test_complementarity(self, rng):
        # every sample is ID or OOD: m_id is 0 or 1, so m_ood = 1 - m_id
        gate, _ = decide_at_start(RuleKind.SAMPLED_MASK, np.zeros(100), rng.random(100), rng)
        assert set(np.unique(gate)) <= {0.0, 1.0}

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


def loop_otsu(scores, num_bins):
    """Bit-exact reference: the one-bin-at-a-time scan that the vectorized
    ``otsu_threshold`` replaced, with the same clipping and degenerate case."""
    scores = np.asarray(scores, dtype=float)
    if np.all(scores == scores[0]):
        return float(scores[0])
    counts, edges = np.histogram(np.clip(scores, 0.0, 1.0), bins=num_bins, range=(0.0, 1.0))
    centers = 0.5 * (edges[:-1] + edges[1:])
    total = counts.sum()
    best_edge, best_var = edges[1], -1.0
    cum = 0.0
    cum_mean = 0.0
    grand_mean = float((counts * centers).sum()) / total
    for b in range(num_bins - 1):
        cum += counts[b]
        cum_mean += counts[b] * centers[b]
        w0 = cum / total
        w1 = 1.0 - w0
        if w0 == 0.0 or w1 == 0.0:
            continue
        mu0 = cum_mean / cum
        mu1 = (grand_mean * total - cum_mean) / (total - cum)
        var_b = w0 * w1 * (mu0 - mu1) ** 2
        if var_b > best_var:
            best_var = var_b
            best_edge = edges[b + 1]
    return float(best_edge)


def otsu_score_sets(rng, count):
    """Beta, quantized (many exact ties), two-cluster and out-of-range sets."""
    for i in range(count):
        n = int(rng.integers(2, 400))
        kind = i % 4
        if kind == 0:
            yield rng.beta(rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0), n)
        elif kind == 1:
            yield np.round(rng.random(n) * rng.integers(1, 20)) / 20.0
        elif kind == 2:
            yield np.concatenate([rng.normal(0.2, 0.05, n), rng.normal(0.8, 0.05, n)])
        else:
            yield rng.normal(0.5, 1.0, n)


class TestOtsu:
    @pytest.mark.parametrize("num_bins", [128, 32, 2])
    def test_bit_exact_against_the_loop(self, rng, num_bins):
        for scores in otsu_score_sets(rng, 400):
            assert otsu_threshold(scores, num_bins) == loop_otsu(scores, num_bins)

    def test_ties_go_to_the_lower_edge(self):
        # symmetric two-point histogram over four bins: edges 0.25 and 0.75 tie
        scores = np.array([0.1, 0.1, 0.9, 0.9, 0.4, 0.6])
        assert otsu_threshold(scores, 4) == loop_otsu(scores, 4)
        assert otsu_threshold(np.array([0.1, 0.9]), 4) == 0.25

    def test_nan_never_wins(self):
        scores = np.array([0.1, np.nan, 0.2, 0.85, np.nan, 0.9])
        t = otsu_threshold(scores, 16)
        assert t == loop_otsu(scores, 16) and 0.2 < t <= 0.85
        # every score NaN: no edge has a finite variance, so the first edge
        assert otsu_threshold(np.full(3, np.nan), 16) == 1.0 / 16

    def test_one_occupied_bin_returns_the_first_edge(self):
        assert otsu_threshold(np.array([0.5, 0.501]), 8) == loop_otsu([0.5, 0.501], 8) == 0.125

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
        gate, threshold = decide_at_start(RuleKind.SAMPLED_MASK, np.zeros(64), p,
                                          np.random.default_rng(5))
        ref = sample_mask(p, np.random.default_rng(5))
        assert np.array_equal(gate, ref)
        assert gate.dtype == float
        assert np.isnan(threshold)  # only the Otsu rule moves the EMA

    def test_direct_weight_half_probability_zeroes_sub(self, rng):
        gate, threshold = decide_at_start(RuleKind.DIRECT_WEIGHT, np.zeros(8),
                                          np.full(8, 0.5), rng)
        assert np.array_equal(gate, np.full(8, 0.5))  # the posteriors, no mask
        assert gate.mean() == 0.5
        assert np.isnan(threshold)
        # p_id = 0.5 signs every subspace score by 1 - 2 p_id = 0
        val, d_z = loss_sub(rng.random(8), rng.normal(size=(8, 3)), gate)
        assert val == 0.0 and not d_z.any()

    def test_otsu_momentum_one_freezes_threshold(self, rng):
        scores = rng.random(64)
        _, threshold = decide(RuleKind.OTSU_THRESHOLD, scores, scores, rng, 0.5, 1.0)
        assert threshold == 0.5  # the EMA after the batch

    def test_otsu_thresholds_scores(self, rng):
        scores = np.concatenate([np.full(32, 0.1), np.full(32, 0.9)])
        gate, threshold = decide(RuleKind.OTSU_THRESHOLD, scores, scores, rng, 0.5, 0.0)
        assert threshold == otsu_threshold(scores)
        assert gate.sum() == 32
        assert np.array_equal(gate, scores >= threshold)
        assert gate.mean() == 0.5

    def test_mask_complementarity_all_rules(self, rng):
        for kind in (RuleKind.SAMPLED_MASK, RuleKind.OTSU_THRESHOLD):
            gate, _ = decide_at_start(kind, rng.random(32), rng.random(32), rng)
            assert set(np.unique(gate)) <= {0.0, 1.0}

    def test_mask_hash_definition(self, rng):
        # the logged column: the signs 1 - 2 gate, then the gate, as float64
        # bytes; digests are not pinned across numpy builds, so this pins it
        for kind in RuleKind:
            gate, _ = decide_at_start(kind, rng.random(16), rng.random(16), rng)
            want = hashlib.sha256((1.0 - 2.0 * gate).tobytes()
                                  + gate.tobytes()).hexdigest()[:16]
            assert mask_hash(gate) == want
            assert mask_hash(gate.copy()) == want
