import dataclasses

import numpy as np
import pytest

from osslab.data import (
    SPLITS, AugmentConfig, BatchPair, DatasetSpec, InfeasibleSpecError, OOD_LABEL,
    _place_centers, batches, export_dataset, generate, import_dataset, strong_augment,
    weak_augment,
)
from osslab.rng import stream


def per_row_generate(spec):
    """Reference: the documented draw order, one row at a time."""
    rng = stream(spec.seed, "data")
    centers = _place_centers(spec.num_id_classes + spec.num_ood_clusters,
                             spec.input_dim, spec.cluster_separation, rng)
    id_centers, ood_centers = centers[:spec.num_id_classes], centers[spec.num_id_classes:]
    rows = {split: [] for split in SPLITS}

    def draw(center, n):
        return center + rng.normal(0.0, spec.cluster_spread, size=(n, spec.input_dim))

    def add_ood(n, split):
        k = spec.num_ood_clusters
        for j in range(k):
            rows[split] += [(x, OOD_LABEL) for x in draw(ood_centers[j], n // k + (j < n % k))]

    for c in range(spec.num_id_classes):
        for i, x in enumerate(draw(id_centers[c], spec.samples_per_class)):
            if i < spec.labeled_per_class:
                rows["labeled"].append((x, c))
            rows["unlabeled"].append((x, c))
    f = spec.ood_fraction
    add_ood(int(round(len(rows["unlabeled"]) * f / (1.0 - f))), "unlabeled")
    for c in range(spec.num_id_classes):
        rows["test_id"] += [(x, c) for x in draw(id_centers[c], spec.samples_per_class)]
    add_ood(len(rows["test_id"]), "test_ood")
    return rows


def make_spec(**kw):
    base = dict(input_dim=6, num_id_classes=4, num_ood_clusters=4,
                samples_per_class=50, labeled_per_class=10, ood_fraction=0.5,
                cluster_spread=0.5, cluster_separation=4.0, seed=7)
    base.update(kw)
    return DatasetSpec(**base)


class TestSpecValidation:
    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            make_spec(ood_fraction=0.0)
        with pytest.raises(ValueError):
            make_spec(ood_fraction=1.0)

    def test_rejects_too_many_labels(self):
        with pytest.raises(ValueError):
            make_spec(labeled_per_class=51)

    def test_sample_consistency(self, tmp_path):
        # an is_id flag that contradicts the label is malformed input
        for row in ("labeled 2 0 0.5 1.5", "test_ood -1 1 0.5 1.5"):
            path = tmp_path / "bad.txt"
            path.write_text(f"# osslab dataset v1\nlabeled 1 1 0.0 1.0\n{row}\n")
            with pytest.raises(ValueError):
                import_dataset(str(path))

    def test_malformed_rows_rejected(self, tmp_path):
        # unknown split tag, a missing coordinate, no coordinates, no rows
        for text in ("labeled 1 1 0.0 1.0\ntrain 1 1 0.0 1.0\n",
                     "labeled 1 1 0.0 1.0\nlabeled 1 1 0.0\n",
                     "labeled 1 1\n", "# osslab dataset v1\n"):
            path = tmp_path / "bad.txt"
            path.write_text(text)
            with pytest.raises(ValueError):
                import_dataset(str(path))


class TestGenerate:
    def test_ood_fraction_within_one_sample(self):
        ds = generate(make_spec())
        _, y = ds.unlabeled
        n_ood = int((y == OOD_LABEL).sum())
        assert abs(n_ood - 0.5 * len(y)) <= 1
        assert np.all(ds.test_ood[1] == OOD_LABEL)
        assert np.all(ds.test_id[1] >= 0)

    def test_determinism_bitwise(self):
        a, b = generate(make_spec()), generate(make_spec())
        for split in SPLITS:
            (Xa, ya), (Xb, yb) = getattr(a, split), getattr(b, split)
            assert Xa.tobytes() == Xb.tobytes()
            assert np.array_equal(ya, yb)

    @pytest.mark.parametrize("kw", [{}, {"ood_fraction": 0.3, "num_ood_clusters": 3}])
    def test_matches_per_row_reference(self, kw):
        spec = make_spec(**kw)
        ds, ref = generate(spec), per_row_generate(spec)
        for split in SPLITS:
            X, y = getattr(ds, split)
            assert X.tobytes() == np.array([x for x, _ in ref[split]]).tobytes()
            assert y.tolist() == [label for _, label in ref[split]]

    def test_labeled_class_balance(self):
        ds = generate(make_spec())
        _, labels = ds.labeled
        assert np.array_equal(np.bincount(labels), np.full(4, 10))

    def test_separable_spec_nearest_center_is_perfect(self):
        # oracle: brute-force 1-nearest-center on empirical class centers
        ds = generate(make_spec(cluster_spread=0.1, cluster_separation=10.0))
        Xl, yl = ds.labeled
        centers = np.stack([Xl[yl == c].mean(axis=0) for c in range(4)])
        Xt, yt = ds.test_id
        d = np.linalg.norm(Xt[:, None, :] - centers[None, :, :], axis=2)
        assert np.array_equal(d.argmin(axis=1), yt)

    def test_infeasible_spec_raises(self):
        with pytest.raises(InfeasibleSpecError):
            generate(make_spec(input_dim=1, num_id_classes=40, num_ood_clusters=40,
                               cluster_separation=1e6))

    def test_unlabeled_contains_labeled_copies(self):
        ds = generate(make_spec())
        (Xl, _), (Xu, yu) = ds.labeled, ds.unlabeled
        assert len(Xu) >= len(Xl)
        assert int((yu >= 0).sum()) == 4 * 50
        # every labeled row reappears, unlabeled, in the pool
        pool = {row.tobytes() for row in Xu[yu >= 0]}
        assert all(row.tobytes() in pool for row in Xl)


class TestAugment:
    def test_weak_zero_sigma_is_identity(self, rng):
        x = rng.normal(size=6)
        assert np.array_equal(weak_augment(x, rng, sigma=0.0), x)

    def test_weak_jitter_mean(self, rng):
        # Monte Carlo: empirical mean within 3 sigma / sqrt(N) per coordinate
        x = rng.normal(size=4)
        sigma = 0.3
        n = 10_000
        draws = np.stack([weak_augment(x, rng, sigma) for _ in range(n)])
        assert np.all(np.abs(draws.mean(axis=0) - x) < 3 * sigma / np.sqrt(n))

    def test_strong_identity_and_zero(self, rng):
        x = rng.normal(size=6)
        assert np.array_equal(strong_augment(x, rng, sigma=0.0, p_drop=0.0), x)
        assert np.array_equal(strong_augment(x, rng, sigma=0.0, p_drop=1.0),
                              np.zeros(6))

    def test_strong_dropout_rate(self, rng):
        x = np.ones(8)
        p = 0.2
        n = 10_000
        zeroed = sum((strong_augment(x, rng, sigma=0.0, p_drop=p) == 0).sum()
                     for _ in range(n))
        frac = zeroed / (n * 8)
        assert abs(frac - p) < 3 * np.sqrt(p * (1 - p) / (n * 8))

    def test_preserves_shape(self, rng):
        x = rng.normal(size=9)
        assert weak_augment(x, rng, 0.1).shape == x.shape
        assert strong_augment(x, rng, 0.5, 0.2).shape == x.shape


class TestBatches:
    def setup_method(self):
        self.ds = generate(make_spec())
        self.aug = AugmentConfig(sigma_weak=0.05, sigma_strong=0.25)

    def test_batch_sizes(self):
        it = batches(self.ds, B=4, mu=2, seed=1, augment=self.aug)
        b = next(it)
        assert b.labeled_weak.shape == (4, 6)
        assert b.labels.shape == (4,)
        assert b.unlabeled_weak.shape == (8, 6)
        assert b.unlabeled_strong.shape == (8, 6)

    def test_determinism(self):
        a = batches(self.ds, B=4, mu=2, seed=1, augment=self.aug)
        b = batches(self.ds, B=4, mu=2, seed=1, augment=self.aug)
        for _ in range(5):
            x, y = next(a), next(b)
            assert np.array_equal(x.labeled_weak, y.labeled_weak)
            assert np.array_equal(x.unlabeled_strong, y.unlabeled_strong)

    def test_every_labeled_sample_seen_each_epoch(self):
        # count label multiset over exactly one epoch of labeled draws
        it = batches(self.ds, B=8, mu=1, seed=3, augment=self.aug)
        n_lab = len(self.ds.labeled[1])
        seen = []
        for _ in range(n_lab // 8):
            seen.extend(next(it).labels.tolist())
        # every class appears exactly labeled_per_class times per epoch
        for c in range(4):
            assert seen.count(c) == 10

    def test_no_identity_leakage(self):
        # the training-path batch object must not expose unlabeled identity
        fields = {f.name for f in dataclasses.fields(BatchPair)}
        assert fields == {"labeled_weak", "labels", "unlabeled_weak", "unlabeled_strong"}

    def test_empty_or_oversized_rejected(self):
        with pytest.raises(ValueError):
            next(batches(self.ds, B=1000, mu=1, seed=0, augment=self.aug))


def test_export_import_roundtrip(tmp_path):
    ds = generate(make_spec())
    path = tmp_path / "ds.txt"
    export_dataset(ds, str(path))
    back = import_dataset(str(path))
    for split in SPLITS:
        (X, y), (Xb, yb) = getattr(ds, split), getattr(back, split)
        assert Xb.tobytes() == X.tobytes()
        assert np.array_equal(yb, y)
