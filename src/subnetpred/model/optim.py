"""Adam optimizer and deterministic tagged RNG helpers.

The tagged RNG makes every stochastic choice (shuffling, dropout masks)
reproducible from (seed, epoch, batch, tag) alone, independent of which
process evaluates it -- the property the split runtime relies on to stay
bit-identical with centralized training.
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


class DropoutMasks:
    """Per-batch dropout mask factory with stable per-tag draws."""

    def __init__(self, rate, seed, epoch, batch):
        self.rate = rate
        self.key = (seed, epoch, batch)

    def mask(self, tag, shape):
        if self.rate <= 0.0:
            return None
        rng = tagged_rng(self.key[0], "dropout", self.key[1], self.key[2], tag)
        keep = rng.random(shape) >= self.rate
        return keep / (1.0 - self.rate)


class Adam:
    """Elementwise Adam over a dict of parameter arrays (updates in place)."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params, lr):
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads):
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for key, g in grads.items():
            m = self.m[key]
            v = self.v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            params[key] -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)
