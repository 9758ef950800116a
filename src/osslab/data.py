"""Synthetic open-set datasets: Gaussian ID classes plus OOD clusters.

Stands in for the image benchmarks: ID classes are isotropic Gaussians,
OOD data come from extra Gaussian clusters that appear only in the
unlabeled pool and the OOD test set. Weak/strong augmentation analogues
are small/large jitter (strong adds coordinate dropout).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .rng import stream

OOD_LABEL = -1

_CENTER_RETRIES = 1000


class InfeasibleSpecError(ValueError):
    """Center placement cannot satisfy the separation constraint."""


@dataclass
class OpenSetDataset:
    """One ``(X, y)`` array pair per split; ``y`` is the class index of an ID
    row and ``OOD_LABEL`` for an OOD row. The unlabeled split keeps its
    labels for evaluation only."""

    labeled: tuple[np.ndarray, np.ndarray]
    unlabeled: tuple[np.ndarray, np.ndarray]
    test_id: tuple[np.ndarray, np.ndarray]
    test_ood: tuple[np.ndarray, np.ndarray]


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


def generate(config) -> OpenSetDataset:
    """Generate a reproducible open-set dataset from ``config``'s nine dataset
    fields (``input_dim`` through ``cluster_separation``, and ``seed``) and its
    pool sizes ``n_id`` and ``n_ood``; nothing else of it is read.

    The unlabeled pool contains every ID training sample (including
    unlabeled copies of the labeled ones) plus OOD samples sized so the
    pool's OOD fraction matches ``config.ood_fraction`` within one sample.
    """
    rng = stream(config.seed, "data")
    n_centers = config.num_id_classes + config.num_ood_clusters
    centers = _place_centers(n_centers, config.input_dim, config.cluster_separation, rng)
    id_centers = centers[: config.num_id_classes]
    ood_centers = centers[config.num_id_classes:]

    def draw(cluster_centers: np.ndarray, counts) -> np.ndarray:
        # clusters in order, one (n, input_dim) normal draw each
        return np.concatenate([
            c + rng.normal(0.0, config.cluster_spread, size=(int(n), config.input_dim))
            for c, n in zip(cluster_centers, counts)])

    def ood_counts(n: int) -> np.ndarray:
        per_cluster = np.full(config.num_ood_clusters, n // config.num_ood_clusters)
        per_cluster[: n % config.num_ood_clusters] += 1
        return per_cluster

    id_counts = np.full(config.num_id_classes, config.samples_per_class)
    y_id = np.repeat(np.arange(config.num_id_classes), config.samples_per_class)
    X_train = draw(id_centers, id_counts)
    is_labeled = np.arange(config.n_id) % config.samples_per_class < config.labeled_per_class

    X_ood = draw(ood_centers, ood_counts(config.n_ood))
    X_test = draw(id_centers, id_counts)
    X_test_ood = draw(ood_centers, ood_counts(config.n_id))

    return OpenSetDataset(
        labeled=(X_train[is_labeled], y_id[is_labeled]),
        unlabeled=(np.concatenate([X_train, X_ood]),
                   np.concatenate([y_id, np.full(config.n_ood, OOD_LABEL)])),
        test_id=(X_test, y_id.copy()),
        test_ood=(X_test_ood, np.full(config.n_id, OOD_LABEL)))


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
        yield BatchPair(labeled_weak=lw, labels=yl[li],
                        unlabeled_weak=uw, unlabeled_strong=us)
