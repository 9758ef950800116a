"""Synthetic open-set datasets: Gaussian ID classes plus OOD clusters.

Stands in for the image benchmarks: ID classes are isotropic Gaussians,
OOD data come from extra Gaussian clusters that appear only in the
unlabeled pool and the OOD test set. Weak/strong augmentation analogues
are small/large jitter (strong adds coordinate dropout).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .rng import stream

OOD_LABEL = -1

_CENTER_RETRIES = 1000


class InfeasibleSpecError(ValueError):
    """Center placement cannot satisfy the separation constraint."""


@dataclass(frozen=True)
class DatasetSpec:
    input_dim: int
    num_id_classes: int
    num_ood_clusters: int
    samples_per_class: int
    labeled_per_class: int
    ood_fraction: float
    cluster_spread: float
    cluster_separation: float
    seed: int

    def __post_init__(self):
        if min(self.input_dim, self.num_id_classes, self.num_ood_clusters,
               self.samples_per_class, self.labeled_per_class) < 1:
            raise ValueError("all counts must be >= 1")
        if not (0.0 < self.ood_fraction < 1.0):
            raise ValueError("ood_fraction must be strictly inside (0, 1)")
        if self.labeled_per_class > self.samples_per_class:
            raise ValueError("labeled_per_class must be <= samples_per_class")
        if self.cluster_spread <= 0 or self.cluster_separation <= 0:
            raise ValueError("cluster_spread and cluster_separation must be positive")


@dataclass
class OpenSetDataset:
    """One ``(X, y)`` array pair per split; ``y`` is the class index of an ID
    row and ``OOD_LABEL`` for an OOD row. The unlabeled split keeps its
    labels for evaluation only."""

    labeled: tuple[np.ndarray, np.ndarray]
    unlabeled: tuple[np.ndarray, np.ndarray]
    test_id: tuple[np.ndarray, np.ndarray]
    test_ood: tuple[np.ndarray, np.ndarray]


SPLITS = tuple(OpenSetDataset.__dataclass_fields__)


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
        for attempt in range(_CENTER_RETRIES):
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


def generate(spec: DatasetSpec) -> OpenSetDataset:
    """Generate a reproducible open-set dataset from ``spec``.

    The unlabeled pool contains every ID training sample (including
    unlabeled copies of the labeled ones) plus OOD samples sized so the
    pool's OOD fraction matches ``spec.ood_fraction`` within one sample.
    """
    rng = stream(spec.seed, "data")
    n_centers = spec.num_id_classes + spec.num_ood_clusters
    centers = _place_centers(n_centers, spec.input_dim, spec.cluster_separation, rng)
    id_centers = centers[: spec.num_id_classes]
    ood_centers = centers[spec.num_id_classes:]

    def draw(cluster_centers: np.ndarray, counts) -> np.ndarray:
        # clusters in order, one (n, input_dim) normal draw each
        return np.concatenate([
            c + rng.normal(0.0, spec.cluster_spread, size=(int(n), spec.input_dim))
            for c, n in zip(cluster_centers, counts)])

    def ood_counts(n: int) -> np.ndarray:
        per_cluster = np.full(spec.num_ood_clusters, n // spec.num_ood_clusters)
        per_cluster[: n % spec.num_ood_clusters] += 1
        return per_cluster

    id_counts = np.full(spec.num_id_classes, spec.samples_per_class)
    y_id = np.repeat(np.arange(spec.num_id_classes), spec.samples_per_class)
    X_train = draw(id_centers, id_counts)
    is_labeled = np.arange(y_id.size) % spec.samples_per_class < spec.labeled_per_class

    f = spec.ood_fraction
    n_ood = int(round(y_id.size * f / (1.0 - f)))
    X_ood = draw(ood_centers, ood_counts(n_ood))
    X_test = draw(id_centers, id_counts)
    X_test_ood = draw(ood_centers, ood_counts(y_id.size))

    return OpenSetDataset(
        labeled=(X_train[is_labeled], y_id[is_labeled]),
        unlabeled=(np.concatenate([X_train, X_ood]),
                   np.concatenate([y_id, np.full(n_ood, OOD_LABEL)])),
        test_id=(X_test, y_id.copy()),
        test_ood=(X_test_ood, np.full(y_id.size, OOD_LABEL)))


def weak_augment(x: np.ndarray, rng: np.random.Generator, sigma: float) -> np.ndarray:
    """Gaussian jitter with standard deviation ``sigma``."""
    if sigma == 0.0:
        return x.copy()
    return x + rng.normal(0.0, sigma, size=x.shape)


def strong_augment(x: np.ndarray, rng: np.random.Generator, sigma: float,
                   p_drop: float) -> np.ndarray:
    """Large Gaussian jitter plus independent coordinate dropout."""
    out = x + rng.normal(0.0, sigma, size=x.shape) if sigma > 0.0 else x.copy()
    if p_drop > 0.0:
        keep = rng.random(size=x.shape) >= p_drop
        out = out * keep
    return out


@dataclass
class AugmentConfig:
    sigma_weak: float
    sigma_strong: float
    p_drop: float = 0.2

    @classmethod
    def from_spread(cls, cluster_spread: float, p_drop: float = 0.2) -> "AugmentConfig":
        return cls(sigma_weak=0.1 * cluster_spread,
                   sigma_strong=0.5 * cluster_spread, p_drop=p_drop)


def batches(dataset: OpenSetDataset, B: int, mu: int, seed: int,
            augment: AugmentConfig) -> Iterator[BatchPair]:
    """Infinite stream of (labeled, unlabeled) batches with augmented views.

    Each epoch is a fresh shuffle of the pool; batches run through the
    permutation so every sample appears exactly once per epoch (across
    epochs samples repeat). Deterministic given ``seed``.
    """
    Xl, yl = dataset.labeled
    Xu, _ = dataset.unlabeled
    if len(Xl) == 0 or len(Xu) == 0:
        raise ValueError("empty dataset")
    if B > len(Xl) or mu * B > len(Xu):
        raise ValueError("batch size exceeds pool size")

    order_rng = stream(seed, "batch")
    aug_rng = stream(seed, "augment")

    def index_stream(n: int) -> Iterator[int]:
        while True:
            yield from order_rng.permutation(n)

    lab_idx = index_stream(len(Xl))
    unl_idx = index_stream(len(Xu))

    while True:
        li = np.fromiter(lab_idx, dtype=int, count=B)
        ui = np.fromiter(unl_idx, dtype=int, count=mu * B)
        lw = weak_augment(Xl[li], aug_rng, augment.sigma_weak)
        uw = weak_augment(Xu[ui], aug_rng, augment.sigma_weak)
        us = strong_augment(Xu[ui], aug_rng, augment.sigma_strong, augment.p_drop)
        yield BatchPair(labeled_weak=lw, labels=yl[li],
                        unlabeled_weak=uw, unlabeled_strong=us)


# --- columnar text export -------------------------------------------------
# One sample per row: split tag, label, is_id (0/1), then coordinates,
# whitespace-separated. Lines starting with '#' are comments.

def export_dataset(dataset: OpenSetDataset, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("# osslab dataset v1\n")
        fh.write("# columns: split label is_id x0 x1 ...\n")
        for split in SPLITS:
            X, y = getattr(dataset, split)
            fh.writelines(f"{split} {label} {int(label >= 0)} {' '.join(map(repr, row))}\n"
                          for label, row in zip(y.tolist(), X.tolist()))


def import_dataset(path: str) -> OpenSetDataset:
    """Read an ``export_dataset`` file; a row whose is_id flag contradicts
    its label, or whose split tag is unknown, is a ``ValueError``."""
    with open(path) as fh:
        rows = [ln.split() for ln in map(str.strip, fh) if ln and not ln.startswith("#")]
    table = np.array(rows)  # ragged rows raise ValueError
    if table.ndim != 2 or table.shape[1] < 4:
        raise ValueError(f"{path}: expected rows of 'split label is_id x0 ...'")
    tags, y, is_id = table[:, 0], table[:, 1].astype(int), table[:, 2].astype(int)
    unknown = sorted(set(tags.tolist()) - set(SPLITS))
    if unknown:
        raise ValueError(f"unknown split tag {unknown[0]!r}")
    if np.any((is_id != 0) != (y >= 0)):
        raise ValueError("is_id must match label validity")
    X = table[:, 3:].astype(float)
    return OpenSetDataset(**{split: (X[tags == split], y[tags == split])
                             for split in SPLITS})
