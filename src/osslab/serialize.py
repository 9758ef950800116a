"""Checkpoints: what a ``trainer.RunState`` holds beyond ``config.txt`` and the
runlog CSVs, as one JSON object with the keys ``version``, ``theta``, ``ema``,
``velocity`` (flat parameter vectors), ``means`` (the C x D class means, row
by row), ``initialized`` (C bools), ``mask_rng``, ``order_rng``, ``aug_rng``
(``bit_generator.state`` dicts of ints), and ``labeled``, ``unlabeled`` (each
pool's shuffle: ``perm`` and ``pos``). The four float arrays are base64
strings of their little-endian float64 bytes, so every bit pattern, NaN
payloads and signs included, reloads exactly. No setting is stored here, nor
the Beta mixture or the Otsu EMA, which the last ``metrics.csv`` row holds.
"""

from __future__ import annotations

import base64
import json
from functools import partial

import numpy as np

VERSION = "osslab-checkpoint v5"
POOLS = ("labeled", "unlabeled")
SEP = (",", ":")  # compact: no space after each of a list's commas


def _rngs(state) -> dict:
    return {"mask_rng": state.mask_rng, "order_rng": state.cursor.order_rng,
            "aug_rng": state.cursor.aug_rng}


def _float_arrays(state) -> dict:
    return {"theta": state.params.theta, "ema": state.ema,
            "velocity": state.velocity, "means": state.table.means}


def save_checkpoint(state, path: str) -> None:
    fields = {"version": VERSION, **_float_arrays(state),
              "initialized": state.table.initialized.tolist(),
              **{key: rng.bit_generator.state for key, rng in _rngs(state).items()},
              **{pool: {"perm": getattr(state.cursor, pool).perm.tolist(),
                        "pos": getattr(state.cursor, pool).pos} for pool in POOLS}}
    with open(path, "w") as fh:
        # one array's text at a time; json.dumps is the C encoder, json.dump is not
        for i, (key, value) in enumerate(fields.items()):
            if isinstance(value, np.ndarray):  # the float arrays
                value = base64.b64encode(value.astype("<f8", copy=False).tobytes()).decode("ascii")
            fh.write(f"{',' if i else '{'}\n{json.dumps(key)}: {json.dumps(value, separators=SEP)}")
        fh.write("\n}\n")


def _values(values, kinds: set, dtype, what: str) -> np.ndarray:
    """A list of JSON values whose types are all in ``kinds`` as a 1-d array."""
    if not set(map(type, values)) <= kinds:  # a bool is not an int here
        raise ValueError(f"holds a value that is not {what}")
    return np.fromiter(values, dtype=dtype)


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


def _int_state(state: dict) -> dict:
    """A ``bit_generator.state`` whose every value but the generator's name is
    an int (numpy's setter would truncate a float and take a bool)."""
    for name, value in state.items():
        if isinstance(value, dict):
            _int_state(value)
        elif name != "bit_generator" and (isinstance(value, bool) or not isinstance(value, int)):
            raise ValueError(f"{name!r} is {value!r}, not an int")
    return state


def _float64s(text: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text, validate=True), "<f8")


def _fill(into: np.ndarray, key: str, values: np.ndarray) -> None:
    if values.size != into.size:
        raise ValueError(f"{key!r} holds {values.size} values, the config needs {into.size}")
    into[...] = values.reshape(into.shape)


def load_checkpoint(path: str, state) -> None:
    """Writes the values of ``path`` into ``state``, which ``RunState.start``
    built from the run's config; a bad or missing field is a ``ValueError``
    that names ``path``."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
        if _get(obj, "version", str) != VERSION:
            raise ValueError(f"not a {VERSION} file")
        for key, into in _float_arrays(state).items():
            _fill(into, key, _get(obj, key, str, _float64s))
        _fill(state.table.initialized, "initialized", _get(obj, "initialized", list, _bools))
        if not state.table.initialized.any():
            raise ValueError("no class mean is initialized")
        for key, rng in _rngs(state).items():
            rng.bit_generator.state = _get(obj, key, dict, _int_state)
        for pool, n in zip(POOLS, (state.config.n_labeled, state.config.n_unlabeled)):
            entry = _get(obj, pool, dict)
            perm, pos = _get(entry, "perm", list, _ints), _get(entry, "pos", int)
            if len(perm) and not np.array_equal(np.sort(perm), np.arange(n)):
                raise ValueError(f"{pool!r} perm is not a permutation of its {n} rows")
            if not 0 <= pos <= len(perm):
                raise ValueError(f"{pool!r} pos {pos} is outside [0, {len(perm)}]")
            getattr(state.cursor, pool).perm, getattr(state.cursor, pool).pos = perm, pos
    except (TypeError, ValueError, OverflowError, KeyError) as exc:  # e.g. a malformed rng state
        raise ValueError(f"{path}: {exc}") from None
