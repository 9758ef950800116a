"""Synthetic open-set datasets: Gaussian ID classes plus OOD clusters.

Stands in for the image benchmarks: ID classes are isotropic Gaussians,
OOD data come from extra Gaussian clusters that appear only in the
unlabeled pool and the OOD test set. Weak/strong augmentation analogues
are small/large jitter (strong adds coordinate dropout).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .rng import stream

OOD_LABEL = -1

_CENTER_RETRIES = 1000

# the config fields that ``generate`` reads
DATASET_FIELDS = ("input_dim", "num_id_classes", "num_ood_clusters", "samples_per_class",
                  "labeled_per_class", "ood_fraction", "cluster_spread", "cluster_separation",
                  "seed")

Split = tuple[np.ndarray, np.ndarray]


class InfeasibleSpecError(ValueError):
    """Center placement cannot satisfy the separation constraint."""


@dataclass
class OpenSetDataset:
    """One ``(X, y)`` array pair per split; ``y`` is the class index of an ID
    row and ``OOD_LABEL`` for an OOD row. The unlabeled split keeps its
    labels for evaluation only. Only evaluation reads the two test splits, so
    ``draw_tests`` draws both on the first read of either, and the dataset
    keeps them. Every array is read-only."""

    labeled: Split
    unlabeled: Split
    draw_tests: Callable[[], tuple[Split, Split]] = field(repr=False)

    @cached_property
    def _tests(self) -> tuple[Split, Split]:
        return self.draw_tests()

    @property
    def test_id(self) -> Split:
        return self._tests[0]

    @property
    def test_ood(self) -> Split:
        return self._tests[1]


@dataclass(frozen=True)
class BatchPair:
    """One training step's data; carries no identity of unlabeled samples.

    The training path must never see is_id or labels of unlabeled data,
    so only raw coordinates (already augmented) are exposed here.
    """

    labeled_weak: np.ndarray   # (B, input_dim)
    labels: np.ndarray         # (B,)
    unlabeled_weak: np.ndarray   # (mu*B, input_dim)
    unlabeled_strong: np.ndarray  # (mu*B, input_dim)


def _place_centers(n: int, dim: int, separation: float, rng: np.random.Generator) -> np.ndarray:
    # Draw centers one by one from an isotropic Gaussian whose scale grows
    # with the separation requirement; reject draws too close to earlier ones.
    scale = separation * max(1.0, np.sqrt(n) / np.sqrt(dim))
    centers = []
    for _ in range(n):
        for _ in range(_CENTER_RETRIES):
            c = rng.normal(0.0, scale, size=dim)
            if all(np.linalg.norm(c - p) >= separation for p in centers):
                centers.append(c)
                break
        else:
            raise InfeasibleSpecError(
                f"could not place {n} centers at separation {separation} "
                f"in {dim} dims after {_CENTER_RETRIES} retries each"
            )
    return np.asarray(centers)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _draw(rng: np.random.Generator, centers: np.ndarray, counts, spread: float) -> np.ndarray:
    """Clusters in order, one ``(n, dim)`` normal draw around each center."""
    return np.concatenate([c + rng.normal(0.0, spread, size=(int(n), len(c)))
                           for c, n in zip(centers, counts)])


def _ood_counts(n: int, clusters: int) -> np.ndarray:
    """``n`` rows over ``clusters`` clusters, the first ``n % clusters`` one larger."""
    per_cluster = np.full(clusters, n // clusters)
    per_cluster[: n % clusters] += 1
    return per_cluster


# the last dataset ``generate`` built, under its DATASET_FIELDS values
_cache: dict[tuple, OpenSetDataset] = {}


def generate(config) -> OpenSetDataset:
    """Generate a reproducible open-set dataset from ``config``'s nine dataset
    fields (``DATASET_FIELDS``) and its pool sizes ``n_id`` and ``n_ood``;
    nothing else of it is read.

    The unlabeled pool contains every ID training sample (including
    unlabeled copies of the labeled ones) plus OOD samples sized so the
    pool's OOD fraction matches ``config.ood_fraction`` within one sample.
    The ``"data"`` stream draws the centers, the ID training rows, the pool's
    OOD rows and then the two test splits; the test splits are drawn from its
    state after the pool when they are first read.

    The last dataset is kept and returned again for equal dataset fields, so
    the runs of one process share it; it is dropped before a different one
    is drawn.
    """
    key = tuple(getattr(config, name) for name in DATASET_FIELDS)
    if key not in _cache:
        _cache.clear()
        _cache[key] = _generate(config)
    return _cache[key]


def _generate(config) -> OpenSetDataset:
    seed, spread, n_id = config.seed, config.cluster_spread, config.n_id
    k_ood = config.num_ood_clusters
    rng = stream(seed, "data")
    n_centers = config.num_id_classes + k_ood
    centers = _place_centers(n_centers, config.input_dim, config.cluster_separation, rng)
    id_centers = centers[: config.num_id_classes]
    ood_centers = centers[config.num_id_classes:]

    id_counts = np.full(config.num_id_classes, config.samples_per_class)
    (y_id,) = _read_only(np.repeat(np.arange(config.num_id_classes), config.samples_per_class))
    X_train = _draw(rng, id_centers, id_counts, spread)
    is_labeled = np.arange(n_id) % config.samples_per_class < config.labeled_per_class
    X_ood = _draw(rng, ood_centers, _ood_counts(config.n_ood, k_ood), spread)
    after_pools = rng.bit_generator.state

    def draw_tests() -> tuple[Split, Split]:
        rng = stream(seed, "data")
        rng.bit_generator.state = after_pools
        X_test = _draw(rng, id_centers, id_counts, spread)
        X_test_ood = _draw(rng, ood_centers, _ood_counts(n_id, k_ood), spread)
        return (_read_only(X_test, y_id),
                _read_only(X_test_ood, np.full(n_id, OOD_LABEL)))

    return OpenSetDataset(
        labeled=_read_only(X_train[is_labeled], y_id[is_labeled]),
        unlabeled=_read_only(np.concatenate([X_train, X_ood]),
                             np.concatenate([y_id, np.full(config.n_ood, OOD_LABEL)])),
        draw_tests=draw_tests)


def weak_augment(x: np.ndarray, rng: np.random.Generator, sigma: float) -> np.ndarray:
    """Gaussian jitter with standard deviation ``sigma``."""
    return x + rng.normal(0.0, sigma, size=x.shape)


def strong_augment(x: np.ndarray, rng: np.random.Generator, sigma: float,
                   p_drop: float) -> np.ndarray:
    """Large Gaussian jitter plus independent coordinate dropout."""
    out = x + rng.normal(0.0, sigma, size=x.shape)
    if p_drop > 0.0:
        keep = rng.random(size=x.shape) >= p_drop
        out = out * keep
    return out


@dataclass
class _Shuffle:
    """One pool's current permutation and the next position in it; the first
    permutation is drawn when the first batch needs rows."""
    perm: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    pos: int = 0

    def take(self, n: int, count: int, rng: np.random.Generator) -> np.ndarray:
        # count <= n; the next shuffle is drawn only once a batch needs rows
        # past the end of the current one
        perm, pos = self.perm, self.pos
        if pos + count <= len(perm):
            self.pos = pos + count
            return perm[pos:pos + count]
        self.perm = rng.permutation(n)
        self.pos = count - (len(perm) - pos)
        return np.concatenate([perm[pos:], self.perm[:self.pos]])


@dataclass
class BatchCursor:
    """Where a batch stream stands: its two generators and each pool's
    shuffle. ``batches`` advances it in place, so a deep copy taken between
    two batches continues the stream from there."""
    order_rng: np.random.Generator
    aug_rng: np.random.Generator
    labeled: _Shuffle = field(default_factory=_Shuffle)
    unlabeled: _Shuffle = field(default_factory=_Shuffle)

    @classmethod
    def start(cls, seed: int) -> "BatchCursor":
        return cls(stream(seed, "batch"), stream(seed, "augment"))


def batches(dataset: OpenSetDataset, config, cursor: BatchCursor) -> Iterator[BatchPair]:
    """Infinite stream of (labeled, unlabeled) batches with augmented views.

    ``config`` gives the batch sizes ``B`` and ``mu * B``, the dropout rate
    ``p_drop``, and ``cluster_spread``, which scales the noise: weak views
    get 0.1 times it, strong views 0.5 times. Each epoch is a fresh shuffle of
    the pool; batches run through the permutation so every sample appears
    exactly once per epoch (across epochs samples repeat). The stream starts
    where ``cursor`` stands (``BatchCursor.start(seed)`` for a fresh one), and
    each batch advances it in place.
    """
    Xl, yl = dataset.labeled
    Xu, _ = dataset.unlabeled
    B, n_u, p_drop = config.B, config.mu * config.B, config.p_drop
    sigma_weak, sigma_strong = 0.1 * config.cluster_spread, 0.5 * config.cluster_spread
    order_rng, aug_rng = cursor.order_rng, cursor.aug_rng

    while True:
        li = cursor.labeled.take(len(Xl), B, order_rng)
        xu = Xu[cursor.unlabeled.take(len(Xu), n_u, order_rng)]
        lw = weak_augment(Xl[li], aug_rng, sigma_weak)
        uw = weak_augment(xu, aug_rng, sigma_weak)
        us = strong_augment(xu, aug_rng, sigma_strong, p_drop)
        del xu  # not held while the step runs
        yield BatchPair(labeled_weak=lw, labels=yl[li],
                        unlabeled_weak=uw, unlabeled_strong=us)
