"""Training configuration: defaults, flat key=value files, CLI overrides."""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, fields

import numpy as np

from . import nn
from .decide import RuleKind


@dataclass
class TrainingConfig:
    # dataset
    input_dim: int = 32
    num_id_classes: int = 8
    num_ood_clusters: int = 8
    samples_per_class: int = 200
    labeled_per_class: int = 40
    ood_fraction: float = 0.5
    cluster_spread: float = 1.0
    cluster_separation: float = 6.0
    # architecture
    hidden: tuple[int, ...] = (64, 64)
    feature_dim: int = 16
    activation: str = "tanh"
    # losses
    w_semi: float = 1.0
    w_self: float = 1.0
    w_sub: float = 1.0
    w_reg: float = 5e-4
    tau: float = 0.95
    # schedule / optimizer
    eta0: float = 0.03
    K: int = 20000
    K_p: int = 2000
    gamma: float = 5.0 / 8.0
    momentum: float = 0.9
    # batch sizes
    B: int = 32
    mu: int = 4
    # mixture / decisions
    pi: float | None = None       # default: 1 - ood_fraction
    epsilon: float = 0.1
    lambda_means: float = 0.999
    lambda_beta: float = 0.999
    ema_momentum: float = 0.999
    decision_rule: str = "sampled_mask"
    otsu_momentum: float = 0.999
    # augmentation (noise sigmas derived from cluster_spread in data.batches)
    p_drop: float = 0.2
    # bookkeeping
    eval_every: int = 1000
    seed: int = 0

    def __post_init__(self):
        if min(self.K, self.B, self.mu, self.eval_every) < 1:
            raise ValueError("K, B, mu and eval_every must be >= 1")
        if min(self.input_dim, self.num_id_classes, self.num_ood_clusters,
               self.samples_per_class, self.labeled_per_class) < 1:
            raise ValueError("all counts must be >= 1")
        if not (0.0 < self.ood_fraction < 1.0):
            raise ValueError("ood_fraction must be strictly inside (0, 1)")
        if self.labeled_per_class > self.samples_per_class:
            raise ValueError("labeled_per_class must be <= samples_per_class")
        if not (0.0 < self.cluster_spread < np.inf and 0.0 < self.cluster_separation < np.inf):
            raise ValueError("cluster_spread and cluster_separation must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.B > self.n_labeled or self.mu * self.B > self.n_unlabeled:
            raise ValueError(f"B and mu * B must fit the pools of {self.n_labeled} labeled "
                             f"and {self.n_unlabeled} unlabeled rows")
        # NaN fails each range check below
        if not (0.0 <= self.p_drop <= 1.0):
            raise ValueError("p_drop must be in [0, 1]")
        if not 0.0 < self.eta0 < np.inf:
            raise ValueError("eta0 must be positive and finite")
        # K_p == K is allowed: a pure warm-up run never leaves the
        # constant branch.
        if not (0 <= self.K_p <= self.K):
            raise ValueError("need 0 <= K_p <= K")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must be in (0, 1]")
        for name in ("w_semi", "w_self", "w_sub", "w_reg"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be a nonnegative finite real")
        if not (0.0 < self.tau <= 1.0):
            raise ValueError("tau must be in (0, 1]")
        if not (0.0 < self.resolved_pi() < 1.0):
            raise ValueError("pi must be strictly inside (0, 1)")
        if not 0.0 <= self.epsilon < np.inf:
            raise ValueError("epsilon must be nonnegative and finite")
        if not (0.0 <= self.lambda_beta <= 1.0):
            raise ValueError("Beta EMA weight lambda_beta must be in [0, 1]")
        RuleKind(self.decision_rule)  # an unknown rule is a ValueError
        if not (0.0 <= self.otsu_momentum <= 1.0):
            raise ValueError("Otsu momentum must be in [0, 1]")
        if not (0.0 <= self.lambda_means <= 1.0):
            raise ValueError("class-mean momentum must be in [0, 1]")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")
        if not (0.0 <= self.ema_momentum <= 1.0):
            raise ValueError("ema_momentum must be in [0, 1]")
        nn.check_architecture((self.input_dim, *self.hidden, self.feature_dim),
                              self.num_id_classes, self.activation)

    @property
    def n_id(self) -> int:
        """Rows of the ID training set and of each test set."""
        return self.num_id_classes * self.samples_per_class

    @property
    def n_labeled(self) -> int:
        return self.num_id_classes * self.labeled_per_class

    @property
    def n_ood(self) -> int:
        """OOD rows of the unlabeled pool: an ``ood_fraction`` share, within one."""
        return int(round(self.n_id * self.ood_fraction / (1.0 - self.ood_fraction)))

    @property
    def n_unlabeled(self) -> int:
        return self.n_id + self.n_ood

    def resolved_pi(self) -> float:
        return 1.0 - self.ood_fraction if self.pi is None else self.pi

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:12]

    def replace(self, **kwargs) -> "TrainingConfig":
        return dataclasses.replace(self, **kwargs)


# one parser per declared field type, of a config and of a run log's cells
PARSERS = {
    "int": int,
    "float": float,
    "float | None": lambda raw: None if raw == "None" else float(raw),
    "str": str,
    # only the empty string is the empty tuple; an empty entry does not parse
    "tuple[int, ...]": lambda raw: tuple(int(x) for x in raw.split(",")) if raw else (),
}
_FIELD_TYPES = {f.name: f.type for f in fields(TrainingConfig)}


def parse_value(name: str, raw: str) -> object:
    """``raw`` parsed by the declared type of field ``name``; an unknown name
    is a ``ValueError``."""
    if name not in _FIELD_TYPES:
        raise ValueError(f"unknown config key {name!r}")
    kind = _FIELD_TYPES[name]
    try:
        return PARSERS[kind](raw.strip())
    except ValueError:
        raise ValueError(f"bad {kind} for {name}: {raw!r}") from None


def parse_overrides(config: TrainingConfig, pairs: dict[str, str]) -> TrainingConfig:
    """Apply string key/value overrides, each parsed by its field's declared
    type; unknown keys are errors."""
    return config.replace(**{key: parse_value(key, raw) for key, raw in pairs.items()})


def load_config(path: str) -> TrainingConfig:
    """Read a flat ``key = value`` file ('#' starts a comment); a key set twice
    is a ``ValueError``."""
    pairs, lines = {}, {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key in pairs:
                raise ValueError(f"{path}:{lineno}: {key!r} is set again, "
                                 f"first on line {lines[key]}")
            pairs[key], lines[key] = raw, lineno
    return parse_overrides(TrainingConfig(), pairs)
