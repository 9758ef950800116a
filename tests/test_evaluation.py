import numpy as np
import pytest

from osslab.betamix import BetaMixtureModel
from osslab.subspace import ScoreKind
from osslab.evaluation import accuracy, auroc, beta_density_grid, score_snapshot


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

    def test_identical_scores_give_half(self):
        assert auroc(np.full(5, 0.3), np.full(7, 0.3)) == 0.5

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

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            auroc(np.array([]), np.array([0.5]))


class TestSnapshots:
    def test_histogram_masses(self, rng):
        snap = score_snapshot(rng.random(500), rng.random(300), step=7,
                              score_kind=ScoreKind.SUBSPACE)
        assert snap.id_hist.sum() == 500
        assert snap.ood_hist.sum() == 300
        assert snap.step == 7
        assert len(snap.bin_edges) == len(snap.id_hist) + 1

    def test_counts_land_in_right_bins(self):
        snap = score_snapshot(np.array([0.999]), np.array([0.001]), step=0,
                              score_kind=ScoreKind.SUBSPACE)
        assert snap.id_hist[-1] == 1
        assert snap.ood_hist[0] == 1

    def test_density_grid_shapes(self):
        model = BetaMixtureModel.default_init(pi=0.5)
        grid = beta_density_grid(model)
        assert grid.shape == (256, 3)
        s, p_id, p_ood = grid.T
        assert np.all(s > 0) and np.all(s < 1)
        assert np.all(p_id >= 0) and np.all(p_ood >= 0)

