import copy
import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from osslab import data, trainer
from osslab.config import TrainingConfig
from osslab.data import (
    BatchCursor, BatchPair, InfeasibleSpecError, OOD_LABEL,
    _place_centers, batches, generate, strong_augment, weak_augment,
)
from osslab.rng import stream

from test_harness import TINY

SPLITS = ["labeled", "unlabeled", "test_id", "test_ood"]

# the noise that ``batches`` derives from the cluster_spread = 0.5 of ``batch_config``
SIGMA_WEAK, SIGMA_STRONG, P_DROP = 0.05, 0.25, 0.2


def batch_config(B, mu):
    """The settings ``batches`` reads from a ``TrainingConfig``."""
    return SimpleNamespace(B=B, mu=mu, cluster_spread=0.5, p_drop=P_DROP)


def fresh_generate(config):
    """``generate`` with its cache cleared first, so the dataset is drawn anew."""
    data._cache.clear()
    return generate(config)


def per_row_generate(config):
    """Reference: the documented draw order, one row at a time. Returns the
    rows of each split and the ``"data"`` stream's state after the pools."""
    rng = stream(config.seed, "data")
    centers = _place_centers(config.num_id_classes + config.num_ood_clusters,
                             config.input_dim, config.cluster_separation, rng)
    id_centers, ood_centers = centers[:config.num_id_classes], centers[config.num_id_classes:]
    rows = {split: [] for split in SPLITS}

    def draw(center, n):
        return center + rng.normal(0.0, config.cluster_spread, size=(n, config.input_dim))

    def add_ood(n, split):
        k = config.num_ood_clusters
        for j in range(k):
            rows[split] += [(x, OOD_LABEL) for x in draw(ood_centers[j], n // k + (j < n % k))]

    for c in range(config.num_id_classes):
        for i, x in enumerate(draw(id_centers[c], config.samples_per_class)):
            if i < config.labeled_per_class:
                rows["labeled"].append((x, c))
            rows["unlabeled"].append((x, c))
    f = config.ood_fraction
    add_ood(int(round(len(rows["unlabeled"]) * f / (1.0 - f))), "unlabeled")
    after_pools = rng.bit_generator.state
    for c in range(config.num_id_classes):
        rows["test_id"] += [(x, c) for x in draw(id_centers[c], config.samples_per_class)]
    add_ood(len(rows["test_id"]), "test_ood")
    return rows, after_pools


def per_index_batches(dataset, B, mu, seed):
    """Reference: shuffle indices pushed one at a time through a generator,
    each pool's next shuffle drawn when its first index is needed."""
    Xl, yl = dataset.labeled
    Xu, _ = dataset.unlabeled
    order_rng = stream(seed, "batch")
    aug_rng = stream(seed, "augment")

    def index_stream(n):
        while True:
            yield from order_rng.permutation(n)

    lab_idx, unl_idx = index_stream(len(Xl)), index_stream(len(Xu))
    while True:
        li = np.fromiter(lab_idx, dtype=int, count=B)
        ui = np.fromiter(unl_idx, dtype=int, count=mu * B)
        yield (weak_augment(Xl[li], aug_rng, SIGMA_WEAK), yl[li],
               weak_augment(Xu[ui], aug_rng, SIGMA_WEAK),
               strong_augment(Xu[ui], aug_rng, SIGMA_STRONG, P_DROP))


def make_config(**kw):
    """A small ``TrainingConfig``; ``feature_dim`` follows ``num_id_classes``
    unless given."""
    base = dict(input_dim=6, num_id_classes=4, num_ood_clusters=4,
                samples_per_class=50, labeled_per_class=10, ood_fraction=0.5,
                cluster_spread=0.5, cluster_separation=4.0, seed=7, B=8)
    base.update(kw)
    base.setdefault("feature_dim", max(16, base["num_id_classes"]))
    return TrainingConfig(**base)


# another valid value of each field that ``generate`` reads
DATASET_FIELDS = dict(input_dim=7, num_id_classes=3, num_ood_clusters=3, samples_per_class=40,
                      labeled_per_class=8, ood_fraction=0.4, cluster_spread=0.6,
                      cluster_separation=5.0, seed=8)
# another valid value of each field that it must not read
OTHER_FIELDS = dict(hidden=(8,), feature_dim=5, activation="relu", w_semi=0.5, w_self=0.5,
                    w_sub=0.5, w_reg=1e-3, tau=0.9, eta0=0.1, K=30000, K_p=10, gamma=0.5,
                    momentum=0.5, B=4, mu=2, pi=0.3, epsilon=0.2, lambda_means=0.9,
                    lambda_beta=0.9, ema_momentum=0.9, decision_rule="otsu_threshold",
                    otsu_momentum=0.9, p_drop=0.5, eval_every=7)


def dataset_arrays(ds):
    return [(a.shape, a.tobytes()) for split in SPLITS for a in getattr(ds, split)]


class TestSpecValidation:
    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            make_config(ood_fraction=0.0)
        with pytest.raises(ValueError):
            make_config(ood_fraction=1.0)

    def test_rejects_too_many_labels(self):
        with pytest.raises(ValueError):
            make_config(labeled_per_class=51)



class TestGeneratePurity:
    """The dataset is a function of the nine dataset fields alone."""

    def test_every_field_is_listed_once(self):
        assert DATASET_FIELDS.keys().isdisjoint(OTHER_FIELDS)
        assert DATASET_FIELDS.keys() | OTHER_FIELDS.keys() == {
            f.name for f in dataclasses.fields(TrainingConfig)}
        assert set(data.DATASET_FIELDS) == DATASET_FIELDS.keys()

    # each side drawn anew: the cache would hand back one object for both
    @pytest.mark.parametrize("key", sorted(OTHER_FIELDS))
    def test_other_field_leaves_the_arrays(self, key):
        config = make_config(**{key: OTHER_FIELDS[key]})
        assert getattr(config, key) != getattr(make_config(), key)
        assert dataset_arrays(fresh_generate(config)) == \
            dataset_arrays(fresh_generate(make_config()))

    @pytest.mark.parametrize("key", sorted(DATASET_FIELDS))
    def test_dataset_field_changes_the_arrays(self, key):
        config = make_config(**{key: DATASET_FIELDS[key]})
        assert dataset_arrays(fresh_generate(config)) != \
            dataset_arrays(fresh_generate(make_config()))


class TestLazyTestSplits:
    """The test splits are drawn on first read, from the ``"data"`` stream's
    state after the pools, and one dataset is kept per process."""

    def test_a_first_read_of_test_ood_draws_the_reference_splits(self):
        # test_matches_per_row_reference reads test_id first
        config = make_config()
        ds = fresh_generate(config)
        ref, _ = per_row_generate(config)
        for split in ("test_ood", *SPLITS):
            X, y = getattr(ds, split)
            assert X.tobytes() == np.array([x for x, _ in ref[split]]).tobytes()
            assert y.tolist() == [label for _, label in ref[split]]

    @staticmethod
    def data_streams(monkeypatch) -> list:
        """Every ``"data"`` generator that ``osslab.data`` makes from here on."""
        made = []

        def recorded(seed, name):
            generator = stream(seed, name)
            if name == "data":
                made.append(generator)
            return generator
        monkeypatch.setattr(data, "stream", recorded)
        return made

    def test_nothing_is_drawn_for_the_test_splits_before_they_are_read(self, monkeypatch):
        streams = self.data_streams(monkeypatch)
        config = make_config()
        ds = fresh_generate(config)
        _, after_pools = per_row_generate(config)
        assert len(streams) == 1
        assert streams[0].bit_generator.state == after_pools
        ds.test_ood  # the first read draws both test splits
        assert len(streams) == 2 and streams[0].bit_generator.state == after_pools

    def test_equal_dataset_fields_share_one_dataset(self):
        ds = fresh_generate(make_config())
        assert generate(make_config(**OTHER_FIELDS)) is ds
        other = generate(make_config(seed=8))
        assert other is not ds
        assert generate(make_config(seed=8)) is other
        assert generate(make_config()) is not ds  # only the last dataset is kept

    def test_every_split_is_read_only(self):
        ds = fresh_generate(make_config())
        for split in SPLITS:
            for a in getattr(ds, split):
                with pytest.raises(ValueError):
                    a[0] = 0

    def test_an_ablation_draws_the_test_splits_once(self, monkeypatch):
        streams = self.data_streams(monkeypatch)
        data._cache.clear()
        trainer.ablate(TrainingConfig(**TINY))
        assert len(streams) == 2  # one for the pools, one for the test splits


class TestGenerate:
    def test_ood_fraction_within_one_sample(self):
        ds = generate(make_config())
        _, y = ds.unlabeled
        n_ood = int((y == OOD_LABEL).sum())
        assert abs(n_ood - 0.5 * len(y)) <= 1
        assert np.all(ds.test_ood[1] == OOD_LABEL)
        assert np.all(ds.test_id[1] >= 0)

    def test_determinism_bitwise(self):
        a, b = fresh_generate(make_config()), fresh_generate(make_config())
        assert a is not b
        for split in SPLITS:
            (Xa, ya), (Xb, yb) = getattr(a, split), getattr(b, split)
            assert Xa.tobytes() == Xb.tobytes()
            assert np.array_equal(ya, yb)

    @pytest.mark.parametrize("kw", [{}, {"ood_fraction": 0.3, "num_ood_clusters": 3}])
    def test_matches_per_row_reference(self, kw):
        config = make_config(**kw)
        ds, (ref, _) = fresh_generate(config), per_row_generate(config)
        for split in SPLITS:
            X, y = getattr(ds, split)
            assert X.tobytes() == np.array([x for x, _ in ref[split]]).tobytes()
            assert y.tolist() == [label for _, label in ref[split]]

    def test_labeled_class_balance(self):
        ds = generate(make_config())
        _, labels = ds.labeled
        assert np.array_equal(np.bincount(labels), np.full(4, 10))

    def test_separable_spec_nearest_center_is_perfect(self):
        # oracle: brute-force 1-nearest-center on empirical class centers
        ds = generate(make_config(cluster_spread=0.1, cluster_separation=10.0))
        Xl, yl = ds.labeled
        centers = np.stack([Xl[yl == c].mean(axis=0) for c in range(4)])
        Xt, yt = ds.test_id
        d = np.linalg.norm(Xt[:, None, :] - centers[None, :, :], axis=2)
        assert np.array_equal(d.argmin(axis=1), yt)

    def test_infeasible_spec_raises(self):
        with pytest.raises(InfeasibleSpecError):
            generate(make_config(input_dim=1, num_id_classes=40, num_ood_clusters=40,
                               cluster_separation=1e6))

    def test_unlabeled_contains_labeled_copies(self):
        ds = generate(make_config())
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
        self.ds = generate(make_config())

    def test_batch_sizes(self):
        it = batches(self.ds, batch_config(4, 2), cursor=BatchCursor.start(1))
        b = next(it)
        assert b.labeled_weak.shape == (4, 6)
        assert b.labels.shape == (4,)
        assert b.unlabeled_weak.shape == (8, 6)
        assert b.unlabeled_strong.shape == (8, 6)

    def test_determinism(self):
        a = batches(self.ds, batch_config(4, 2), cursor=BatchCursor.start(1))
        b = batches(self.ds, batch_config(4, 2), cursor=BatchCursor.start(1))
        for _ in range(5):
            x, y = next(a), next(b)
            assert np.array_equal(x.labeled_weak, y.labeled_weak)
            assert np.array_equal(x.unlabeled_strong, y.unlabeled_strong)

    def test_every_labeled_sample_seen_each_epoch(self):
        # count label multiset over exactly one epoch of labeled draws
        it = batches(self.ds, batch_config(8, 1), cursor=BatchCursor.start(3))
        n_lab = len(self.ds.labeled[1])
        seen = []
        for _ in range(n_lab // 8):
            seen.extend(next(it).labels.tolist())
        # every class appears exactly labeled_per_class times per epoch
        for c in range(4):
            assert seen.count(c) == 10

    # 40 labeled and 400 unlabeled rows; "equal" trains on the labeled pool twice
    @pytest.mark.parametrize("B, mu, pools", [
        (7, 3, "generated"),   # neither pool divisible
        (8, 5, "generated"),   # B divides both pools exactly
        (40, 1, "generated"),  # one labeled batch is the whole pool
        (6, 1, "equal"),       # equal pools, both reshuffled in the same batch
        (8, 1, "equal"),       # equal pools, B divides them
        (4, 3, "equal"),
    ])
    def test_matches_per_index_reference(self, B, mu, pools):
        ds = self.ds if pools == "generated" else dataclasses.replace(
            self.ds, unlabeled=self.ds.labeled)
        ref = per_index_batches(ds, B, mu, 5)
        it = batches(ds, batch_config(B, mu), cursor=BatchCursor.start(5))
        for _ in range(60):
            b, want = next(it), next(ref)
            got = (b.labeled_weak, b.labels, b.unlabeled_weak, b.unlabeled_strong)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    # 40 labeled and 400 unlabeled rows, which B = 7 and mu * B = 35 do not
    # divide: copied mid-epoch, or right after a batch that drew both pools'
    # second shuffle; either way the next 20 batches cross reshuffles
    @pytest.mark.parametrize("taken", [3, 12])
    def test_stream_continues_from_a_copied_cursor(self, taken):
        cursor = BatchCursor.start(5)
        it = batches(self.ds, batch_config(7, 5), cursor=cursor)
        for _ in range(taken):
            next(it)
        resumed = batches(self.ds, batch_config(7, 5), cursor=copy.deepcopy(cursor))
        for _ in range(20):
            a, b = next(it), next(resumed)
            assert [x.tobytes() for x in dataclasses.astuple(a)] == \
                [x.tobytes() for x in dataclasses.astuple(b)]

    def test_no_identity_leakage(self):
        # the training-path batch object must not expose unlabeled identity
        fields = {f.name for f in dataclasses.fields(BatchPair)}
        assert fields == {"labeled_weak", "labels", "unlabeled_weak", "unlabeled_strong"}
