"""Checkpoints: what a ``trainer.RunState`` holds beyond ``config.txt`` and the
runlog CSVs, as one JSON object with the keys ``version``, ``theta``, ``ema``,
``velocity`` (flat parameter vectors), ``means`` (C rows of D floats),
``initialized`` (C bools), ``beta`` (``alpha_id``, ``beta_id``, ``alpha_ood``,
``beta_ood``), ``threshold`` (the Otsu EMA), ``mask_rng``, ``order_rng``,
``aug_rng`` (``bit_generator.state`` dicts), and ``labeled``, ``unlabeled``
(each pool's shuffle: ``perm`` and ``pos``). ``json`` writes each float as its
shortest repr, ``NaN``/``Infinity`` included, so reloads are bit-exact.
"""

from __future__ import annotations

import json
from functools import partial

import numpy as np

from .betamix import BetaParams

VERSION = "osslab-checkpoint v3"
BETA_KEYS = ("alpha_id", "beta_id", "alpha_ood", "beta_ood")
POOLS = ("labeled", "unlabeled")
SEP = (",", ":")  # compact: no space after each of a vector's commas


def _rngs(state) -> dict:
    return {"mask_rng": state.mask_rng, "order_rng": state.cursor.order_rng,
            "aug_rng": state.cursor.aug_rng}


def save_checkpoint(state, path: str) -> None:
    b = state.beta_model
    beta = dict(zip(BETA_KEYS, map(float, (b.id.alpha, b.id.beta, b.ood.alpha, b.ood.beta))))
    fields = {"version": VERSION, "theta": state.params.theta, "ema": state.opt_state.ema_params,
              "velocity": state.opt_state.velocity, "means": state.table.means,
              "initialized": state.table.initialized, "beta": beta,
              "threshold": float(state.rule.ema_threshold),
              **{key: rng.bit_generator.state for key, rng in _rngs(state).items()},
              **{pool: {"perm": getattr(state.cursor, pool).perm.tolist(),
                        "pos": getattr(state.cursor, pool).pos} for pool in POOLS}}
    with open(path, "w") as fh:
        # one array's list at a time; json.dumps is the C encoder, json.dump is not
        for i, (key, value) in enumerate(fields.items()):
            value = value.tolist() if isinstance(value, np.ndarray) else value
            fh.write(f"{',' if i else '{'}\n{json.dumps(key)}: {json.dumps(value, separators=SEP)}")
        fh.write("\n}\n")


def _values(values, kinds: set, dtype, what: str) -> np.ndarray:
    """A list of JSON values whose types are all in ``kinds`` as a 1-d array."""
    if not set(map(type, values)) <= kinds:  # a bool is not an int here
        raise ValueError(f"holds a value that is not {what}")
    return np.fromiter(values, dtype=dtype)


_floats = partial(_values, kinds={int, float}, dtype=float, what="a number")  # NaN/Infinity too
_ints = partial(_values, kinds={int}, dtype=np.intp, what="an int")
_bools = partial(_values, kinds={bool}, dtype=bool, what="a bool")


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


def _fill(into: np.ndarray, key: str, values: np.ndarray) -> None:
    if values.shape != into.shape:
        raise ValueError(f"{key!r} is {values.shape}, the config needs {into.shape}")
    into[...] = values


def load_checkpoint(path: str, state) -> None:
    """Writes the values of ``path`` into ``state``, which ``RunState.start``
    built from the run's config; a bad or missing field is a ``ValueError``
    that names ``path``."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
        if _get(obj, "version", str) != VERSION:
            raise ValueError(f"not a {VERSION} file")
        opt, table = state.opt_state, state.table
        for key, into in (("theta", state.params.theta), ("ema", opt.ema_params),
                          ("velocity", opt.velocity)):
            _fill(into, key, _get(obj, key, list, _floats))
        _fill(table.means, "means",
              _get(obj, "means", list, lambda rows: np.array([_floats(r) for r in rows])))
        _fill(table.initialized, "initialized", _get(obj, "initialized", list, _bools))
        if not table.initialized.any():
            raise ValueError("no class mean is initialized")
        b = [float(_get(_get(obj, "beta", dict), key, (int, float))) for key in BETA_KEYS]
        state.beta_model.id, state.beta_model.ood = BetaParams(*b[:2]), BetaParams(*b[2:])
        state.rule.ema_threshold = float(_get(obj, "threshold", (int, float)))
        for key, rng in _rngs(state).items():
            rng.bit_generator.state = _get(obj, key, dict)
        spec = state.config.dataset_spec()
        for pool, n in zip(POOLS, (spec.n_labeled, spec.n_unlabeled)):
            entry = _get(obj, pool, dict)
            perm, pos = _get(entry, "perm", list, _ints), _get(entry, "pos", int)
            if len(perm) and not np.array_equal(np.sort(perm), np.arange(n)):
                raise ValueError(f"{pool!r} perm is not a permutation of its {n} rows")
            if not 0 <= pos <= len(perm):
                raise ValueError(f"{pool!r} pos {pos} is outside [0, {len(perm)}]")
            getattr(state.cursor, pool).perm, getattr(state.cursor, pool).pos = perm, pos
    except (TypeError, ValueError, OverflowError, KeyError) as exc:  # e.g. a malformed rng state
        raise ValueError(f"{path}: {exc}") from None
