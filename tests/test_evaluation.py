import numpy as np
import pytest

from osslab.betamix import BetaMixtureModel, beta_density_grid
from osslab.evaluation import accuracy, auroc, score_snapshot


def pairwise_auroc(id_scores, ood_scores):
    """Brute-force U-statistic: wins plus half credit for ties."""
    total = 0.0
    for a in id_scores:
        for b in ood_scores:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (len(id_scores) * len(ood_scores))


class TestAccuracy:
    def test_perfect(self):
        probs = np.eye(4)
        assert accuracy(probs, np.arange(4)) == 1.0

    def test_all_wrong(self):
        probs = np.eye(3)[[1, 2, 0]]
        assert accuracy(probs, np.arange(3)) == 0.0

    def test_partial(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3], [0.4, 0.6]])
        assert accuracy(probs, np.array([0, 1, 1, 0])) == 0.5

    def test_tie_goes_to_lowest_index(self):
        probs = np.array([[0.5, 0.5]])
        assert accuracy(probs, np.array([0])) == 1.0
        assert accuracy(probs, np.array([1])) == 0.0


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc(np.array([0.9, 0.8]), np.array([0.1, 0.2])) == 1.0

    def test_perfectly_inverted(self):
        assert auroc(np.array([0.1, 0.2]), np.array([0.9, 0.8])) == 0.0

    def test_identical_scores_give_half(self, rng):
        assert auroc(np.full(5, 0.3), np.full(7, 0.3)) == 0.5
        for _ in range(20):
            v = rng.normal()
            assert auroc(np.full(int(rng.integers(1, 40)), v),
                         np.full(int(rng.integers(1, 40)), v)) == 0.5

    def test_hand_worked_with_tie(self):
        # pairs: (0.5>0.2)=1, (0.5=0.5)=0.5, (0.9>0.2)=1, (0.9>0.5)=1
        got = auroc(np.array([0.5, 0.9]), np.array([0.2, 0.5]))
        assert got == 3.5 / 4

    def test_matches_pairwise_oracle_exactly(self, rng):
        for _ in range(200):
            n_id = int(rng.integers(1, 30))
            n_ood = int(rng.integers(1, 30))
            # quantized scores force plenty of ties
            a = np.round(rng.random(n_id), 1)
            b = np.round(rng.random(n_ood), 1)
            assert auroc(a, b) == pairwise_auroc(a, b)

    def test_monotone_transform_invariance(self, rng):
        a, b = rng.random(50), rng.random(40)
        assert auroc(a, b) == auroc(np.exp(3 * a), np.exp(3 * b))

    @pytest.mark.parametrize("a, b, want", [(0.7, 0.2, 1.0), (0.2, 0.7, 0.0), (0.4, 0.4, 0.5)])
    def test_one_row_on_each_side(self, a, b, want):
        assert auroc(np.array([a]), np.array([b])) == want

    def test_infinite_scores(self):
        inf = np.inf
        a, b = np.array([inf, -inf, 0.5, inf]), np.array([-inf, inf, 0.5, 0.1])
        assert auroc(a, b) == pairwise_auroc(a, b) == 10.0 / 16
        assert auroc(np.array([inf]), np.array([-inf])) == 1.0
        assert auroc(np.full(3, -inf), np.full(2, -inf)) == 0.5

    def test_heavy_ties_match_pairwise_oracle_exactly(self, rng):
        for _ in range(200):
            # two or three distinct values, so almost every pair ties or inverts
            levels = rng.normal(size=int(rng.integers(1, 4)))
            a = levels[rng.integers(0, levels.size, size=int(rng.integers(1, 60)))]
            b = levels[rng.integers(0, levels.size, size=int(rng.integers(1, 60)))]
            assert auroc(a, b) == pairwise_auroc(a, b)

    def test_nan_gives_nan(self):
        assert np.isnan(auroc(np.array([0.9, np.nan]), np.array([0.1, 0.2])))
        assert np.isnan(auroc(np.array([0.9, 0.8]), np.array([np.nan])))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            auroc(np.array([]), np.array([0.5]))


class TestSnapshots:
    def test_histogram_masses(self, rng):
        edges, id_hist, ood_hist = score_snapshot(rng.random(500), rng.random(300))
        assert id_hist.sum() == 500
        assert ood_hist.sum() == 300
        assert len(edges) == len(id_hist) + 1 == len(ood_hist) + 1

    def test_counts_land_in_right_bins(self):
        _, id_hist, ood_hist = score_snapshot(np.array([0.999]), np.array([0.001]))
        assert id_hist[-1] == 1
        assert ood_hist[0] == 1

    def test_density_grid_shapes(self):
        model = BetaMixtureModel.default_init(pi=0.5)
        grid = beta_density_grid(model.id, model.ood)
        assert grid.shape == (256, 3)
        s, p_id, p_ood = grid.T
        assert np.all(s > 0) and np.all(s < 1)
        assert np.all(p_id >= 0) and np.all(p_ood >= 0)
