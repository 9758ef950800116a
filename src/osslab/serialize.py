"""Checkpoints as one JSON object with the keys ``version``, ``step``,
``activation``, ``sizes`` (input, hidden..., feature widths), ``num_classes``,
``theta``, ``ema`` and ``velocity`` (flat parameter vectors), ``means`` (C rows
of D floats), ``initialized`` (C bools), ``lambda_means`` and ``beta``
(``alpha_id``, ``beta_id``, ``alpha_ood``, ``beta_ood``, ``pi``, ``epsilon``,
``lambda_ema``). ``json`` writes each float as its shortest repr,
``NaN``/``Infinity`` included, so reloads are bit-exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .betamix import BetaMixtureModel, BetaParams
from .nn import MlpParams
from .subspace import ClassMeanTable

VERSION = "osslab-checkpoint v2"
BETA_KEYS = ("alpha_id", "beta_id", "alpha_ood", "beta_ood", "pi", "epsilon", "lambda_ema")
SEP = (",", ":")  # compact: no space after each of a vector's commas


def _floats(values) -> np.ndarray:
    """A list of JSON numbers (``NaN``/``Infinity`` too) as a 1-d float array."""
    if not set(map(type, values)) <= {int, float}:  # no null, string, bool or list
        raise ValueError("holds a value that is not a number")
    return np.fromiter(values, dtype=float)


@dataclass
class Checkpoint:
    step: int
    params: MlpParams
    ema_params: MlpParams
    velocity: np.ndarray
    means: ClassMeanTable
    beta_model: BetaMixtureModel


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    p, b, table = ckpt.params, ckpt.beta_model, ckpt.means
    beta = (b.id.alpha, b.id.beta, b.ood.alpha, b.ood.beta, b.pi, b.epsilon, b.lambda_ema)
    fields = {"version": VERSION, "step": int(ckpt.step), "activation": p.activation,
              "sizes": [int(n) for n in p.sizes], "num_classes": int(p.num_classes),
              "theta": p.theta, "ema": ckpt.ema_params.theta, "velocity": ckpt.velocity,
              "means": table.means, "initialized": table.initialized,
              "lambda_means": float(table.momentum), "beta": dict(zip(BETA_KEYS, map(float, beta)))}
    with open(path, "w") as fh:
        # one array's list at a time; json.dumps is the C encoder, json.dump is not
        for i, (key, value) in enumerate(fields.items()):
            value = value.tolist() if isinstance(value, np.ndarray) else value
            fh.write(f"{',' if i else '{'}\n{json.dumps(key)}: {json.dumps(value, separators=SEP)}")
        fh.write("\n}\n")


def _get(obj, key: str, kind, convert=None):
    """``obj[key]``, which must be a ``kind``, passed through ``convert`` if given."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"missing key {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{key!r} has the wrong type {type(value).__name__}")
    try:
        return value if convert is None else convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{key!r}: {exc}") from None


def load_checkpoint(path: str) -> Checkpoint:
    """Reads ``path``; a bad or missing field is a ``ValueError`` that names it."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
        if _get(obj, "version", str) != VERSION:
            raise ValueError(f"not a {VERSION} file")
        sizes, C = tuple(_get(obj, "sizes", list)), _get(obj, "num_classes", int)
        activation = _get(obj, "activation", str)
        params, ema, velocity = (MlpParams(_get(obj, key, list, _floats), sizes, C, activation)
                                 for key in ("theta", "ema", "velocity"))
        means = _get(obj, "means", list, lambda rows: np.array([_floats(r) for r in rows]))
        if means.shape != (C, sizes[-1]):
            raise ValueError(f"means are {means.shape}, the arch needs {(C, sizes[-1])}")
        initialized = np.asarray(_get(obj, "initialized", list))
        if initialized.dtype != bool or initialized.shape != (C,) or not initialized.any():
            raise ValueError(f"'initialized' must be {C} bools, at least one of them true")
        b = [float(_get(_get(obj, "beta", dict), key, (int, float))) for key in BETA_KEYS]
        table = ClassMeanTable(means, initialized, float(_get(obj, "lambda_means", (int, float))))
        return Checkpoint(_get(obj, "step", int), params, ema, velocity.theta, table,
                          BetaMixtureModel(BetaParams(*b[:2]), BetaParams(*b[2:4]), *b[4:]))
    except (TypeError, ValueError, OverflowError) as exc:  # e.g. strings as ``sizes``
        raise ValueError(f"{path}: {exc}") from None
