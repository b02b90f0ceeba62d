"""Deterministic random streams keyed by a seed and tags.

Every random choice of the program draws from a stream named by the run
seed and a few tags: the simulator's four components (mobility, channel,
traffic, noise), and training's initialization, batch order and dropout
masks.  A stream depends on its key alone, not on which process draws it
or on what other streams drew before -- the property the split runtime
relies on to stay bit-identical with centralized training.
"""

from __future__ import annotations

import zlib

import numpy as np


def tagged_rng(seed, *tags):
    """Deterministic Generator keyed by seed plus arbitrary int/str tags."""
    keys = [int(seed) & 0xFFFFFFFF]
    for tag in tags:
        if isinstance(tag, str):
            keys.append(zlib.crc32(tag.encode("utf-8")))
        else:
            keys.append(int(tag) & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(keys))
