"""Versioned text checkpoints.

Layout (line-oriented, '#' comments allowed at the top):
    osslab-checkpoint v1
    step <k>
    activation <name>
    arch <input_dim> <hidden,csv> <feature_dim> <num_classes>
    theta <n>        followed by one line of n floats (flat parameters)
    ema <n>          same layout, EMA shadow parameters
    velocity <n>     same layout, optimizer velocity
    means <C> <D>    followed by C rows of D floats
    initialized <C 0/1 flags>
    lambda_means <float>
    beta <alpha_id> <beta_id> <alpha_ood> <beta_ood> <pi> <epsilon> <lambda>

Floats are written with repr() so reloads are bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .betamix import BetaMixtureModel, BetaParams
from .nn import MlpParams
from .subspace import ClassMeanTable

VERSION = "osslab-checkpoint v1"


@dataclass
class Checkpoint:
    step: int
    params: MlpParams
    ema_params: MlpParams
    velocity: np.ndarray
    means: ClassMeanTable
    beta_model: BetaMixtureModel


def _fmt(vec: np.ndarray) -> str:
    return " ".join(repr(float(v)) for v in np.asarray(vec).ravel())


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    p = ckpt.params
    input_dim, *hidden, feature_dim = p.sizes
    hidden = ",".join(map(str, hidden))
    theta = p.theta
    with open(path, "w") as fh:
        fh.write(VERSION + "\n")
        fh.write(f"step {ckpt.step}\n")
        fh.write(f"activation {p.activation}\n")
        fh.write(f"arch {input_dim} {hidden or '-'} {feature_dim} {p.num_classes}\n")
        fh.write(f"theta {theta.size}\n{_fmt(theta)}\n")
        fh.write(f"ema {theta.size}\n{_fmt(ckpt.ema_params.theta)}\n")
        fh.write(f"velocity {theta.size}\n{_fmt(ckpt.velocity)}\n")
        C, D = ckpt.means.means.shape
        fh.write(f"means {C} {D}\n")
        for row in ckpt.means.means:
            fh.write(_fmt(row) + "\n")
        fh.write("initialized " + " ".join(str(int(v)) for v in ckpt.means.initialized) + "\n")
        fh.write(f"lambda_means {ckpt.means.momentum!r}\n")
        b = ckpt.beta_model
        fh.write(f"beta {b.id.alpha!r} {b.id.beta!r} {b.ood.alpha!r} {b.ood.beta!r} "
                 f"{b.pi!r} {b.epsilon!r} {b.lambda_ema!r}\n")


def load_checkpoint(path: str) -> Checkpoint:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    it = iter(lines)

    def values(section: str) -> list[str]:
        """The fields of the next line, which belongs to ``section``."""
        line = next(it, None)
        if line is None:
            raise ValueError(f"{path}: file ends before section {section!r}")
        return line.split()

    def header(tag: str, n: int) -> list[str]:
        """The ``n`` values of the next line, which must be tagged ``tag``."""
        head = values(tag)
        if head[:1] != [tag]:
            raise ValueError(f"{path}: expected section {tag!r}, got {' '.join(head[:1])!r}")
        if len(head) != n + 1:
            raise ValueError(f"{path}: section {tag} has {len(head) - 1} values, expected {n}")
        return head[1:]

    if next(it, None) != VERSION:
        raise ValueError(f"{path}: not a {VERSION} file")
    step = int(header("step", 1)[0])
    activation = header("activation", 1)[0]
    arch = header("arch", 4)
    input_dim = int(arch[0])
    hidden = tuple(int(x) for x in arch[1].split(",")) if arch[1] != "-" else ()
    feature_dim, num_classes = int(arch[2]), int(arch[3])

    def read_vec(tag: str) -> np.ndarray:
        n = int(header(tag, 1)[0])
        vec = np.asarray([float(v) for v in values(tag)])
        if vec.size != n:
            raise ValueError(f"{path}: section {tag} has {vec.size} values, expected {n}")
        return vec

    sizes = (input_dim, *hidden, feature_dim)
    params = MlpParams(read_vec("theta"), sizes, num_classes, activation)
    ema = MlpParams(read_vec("ema"), sizes, num_classes, activation)
    velocity = read_vec("velocity")

    C, D = (int(v) for v in header("means", 2))
    if (C, D) != (num_classes, feature_dim):
        raise ValueError(f"{path}: means are {C}x{D}, the arch needs "
                         f"{num_classes}x{feature_dim}")
    rows = [[float(v) for v in values("means")] for _ in range(C)]
    if any(len(row) != D for row in rows):
        raise ValueError(f"{path}: every means row must have {D} values")
    means = np.asarray(rows)
    initialized = np.asarray([bool(int(v)) for v in header("initialized", C)])
    lambda_means = float(header("lambda_means", 1)[0])
    b = [float(v) for v in header("beta", 7)]
    beta_model = BetaMixtureModel(id=BetaParams(b[0], b[1]), ood=BetaParams(b[2], b[3]),
                                  pi=b[4], epsilon=b[5], lambda_ema=b[6])
    table = ClassMeanTable(means=means, initialized=initialized, momentum=lambda_means)
    return Checkpoint(step=step, params=params, ema_params=ema, velocity=velocity,
                      means=table, beta_model=beta_model)
