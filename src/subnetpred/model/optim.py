"""Adam optimizer and per-batch dropout masks.

Each mask draws from its own stream (rng.tagged_rng), keyed by (seed,
epoch, batch, tag) alone, so it is the same in whichever process evaluates
it -- the property the split runtime relies on to stay bit-identical with
centralized training.
"""

from __future__ import annotations

import numpy as np

from ..rng import tagged_rng


class DropoutMasks:
    """Per-batch dropout mask factory with stable per-tag draws."""

    def __init__(self, rate, seed, epoch, batch):
        self.rate = rate
        self.key = (seed, epoch, batch)

    def mask(self, tag, shape):
        """Inverted-dropout mask: 1 / (1 - rate) where a uniform draw is at
        least rate, else 0.  Built in the draw's own buffer; a kept entry is
        1.0 times the rounded reciprocal, the bits of 1.0 / (1 - rate)."""
        if self.rate <= 0.0:
            return None
        rng = tagged_rng(self.key[0], "dropout", self.key[1], self.key[2], tag)
        mask = rng.random(shape)
        np.greater_equal(mask, self.rate, out=mask)
        mask *= 1.0 / (1.0 - self.rate)
        return mask


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
