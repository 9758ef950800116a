"""Training configuration: defaults, flat key=value files, CLI overrides."""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, fields

from .data import AugmentConfig, DatasetSpec
from .decide import DecisionRule, RuleKind
from .losses import LossWeights
from .optim import Schedule


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
    otsu_bins: int = 128
    otsu_momentum: float = 0.999
    # augmentation (None: derived from cluster_spread)
    sigma_weak: float | None = None
    sigma_strong: float | None = None
    p_drop: float = 0.2
    # ablation switches
    drop_self: bool = False
    drop_sub: bool = False
    # bookkeeping
    eval_every: int = 1000
    seed: int = 0

    def __post_init__(self):
        if min(self.K, self.B, self.mu, self.eval_every) < 1:
            raise ValueError("K, B, mu and eval_every must be >= 1")
        if not (0 <= self.K_p <= self.K):
            raise ValueError("need 0 <= K_p <= K")
        # construct eagerly so invalid configs fail before any work
        self.dataset_spec()
        self.schedule()
        self.loss_weights()
        self.resolved_pi()
        RuleKind(self.decision_rule)

    def dataset_spec(self) -> DatasetSpec:
        return DatasetSpec(
            input_dim=self.input_dim, num_id_classes=self.num_id_classes,
            num_ood_clusters=self.num_ood_clusters,
            samples_per_class=self.samples_per_class,
            labeled_per_class=self.labeled_per_class,
            ood_fraction=self.ood_fraction, cluster_spread=self.cluster_spread,
            cluster_separation=self.cluster_separation, seed=self.seed)

    def augment_config(self) -> AugmentConfig:
        base = AugmentConfig.from_spread(self.cluster_spread, self.p_drop)
        if self.sigma_weak is not None:
            base.sigma_weak = self.sigma_weak
        if self.sigma_strong is not None:
            base.sigma_strong = self.sigma_strong
        return base

    def schedule(self) -> Schedule:
        return Schedule(eta0=self.eta0, K=self.K, K_p=self.K_p, gamma=self.gamma)

    def loss_weights(self) -> LossWeights:
        return LossWeights(w_semi=self.w_semi,
                           w_self=0.0 if self.drop_self else self.w_self,
                           w_sub=0.0 if self.drop_sub else self.w_sub,
                           w_reg=self.w_reg, tau=self.tau)

    def resolved_pi(self) -> float:
        pi = 1.0 - self.ood_fraction if self.pi is None else self.pi
        if not (0.0 < pi < 1.0):
            raise ValueError("pi must be strictly inside (0, 1)")
        return pi

    def decision(self) -> DecisionRule:
        return DecisionRule(kind=RuleKind(self.decision_rule),
                            momentum=self.otsu_momentum, num_bins=self.otsu_bins)

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


_BOOL_KEYS = ("drop_self", "drop_sub")
_INT_KEYS = ("input_dim", "num_id_classes", "num_ood_clusters", "samples_per_class",
             "labeled_per_class", "K", "K_p", "B", "mu", "otsu_bins", "eval_every",
             "seed", "feature_dim")


def _parse_value(name: str, raw: str) -> object:
    raw = raw.strip()
    if name == "hidden":
        return tuple(int(x) for x in raw.split(",") if x)
    if name in _BOOL_KEYS:
        if raw.lower() in ("true", "1"):
            return True
        if raw.lower() in ("false", "0"):
            return False
        raise ValueError(f"bad boolean for {name}: {raw!r}")
    if raw == "None":
        return None
    if name in _INT_KEYS:
        return int(raw)
    try:
        return float(raw)
    except ValueError:
        return raw


def parse_overrides(config: TrainingConfig, pairs: dict[str, str]) -> TrainingConfig:
    """Apply string key/value overrides; unknown keys are errors."""
    known = {f.name for f in fields(TrainingConfig)}
    updates = {}
    for key, raw in pairs.items():
        if key not in known:
            raise KeyError(f"unknown config key {key!r}")
        updates[key] = _parse_value(key, raw)
    return config.replace(**updates)


def load_config(path: str, base: TrainingConfig | None = None) -> TrainingConfig:
    """Read a flat ``key = value`` file ('#' starts a comment)."""
    pairs = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            pairs[key] = raw
    return parse_overrides(base or TrainingConfig(), pairs)
