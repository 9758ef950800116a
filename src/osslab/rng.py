"""Named, independent random streams derived from one master seed.

Each consumer (data generation, weight init, batch order, augmentation,
mask sampling) gets its own stream so that disabling one consumer in an
ablation does not shift the draws seen by the others.
"""

from __future__ import annotations

import numpy as np

# Fixed registry: stream name -> spawn index. Never reorder.
_STREAMS = {
    "data": 0,
    "init": 1,
    "batch": 2,
    "augment": 3,
    "mask": 4,
}


def stream(master_seed: int, name: str) -> np.random.Generator:
    """Return the named child generator of ``master_seed``."""
    try:
        idx = _STREAMS[name]
    except KeyError:
        raise ValueError(f"unknown rng stream {name!r}; known: {sorted(_STREAMS)}")
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(idx,))
    return np.random.default_rng(ss)
