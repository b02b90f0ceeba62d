"""Centralized training loop: Adam on the pinball loss, deterministic per seed."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import pinball_grad, pinball_loss
from .network import backward, forward, init_params
from .optim import Adam, DropoutMasks, tagged_rng


class TrainingDivergedError(RuntimeError):
    """Non-finite loss encountered; carries epoch/batch diagnostics."""

    def __init__(self, epoch, batch, loss):
        super().__init__(f"non-finite loss {loss!r} at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


@dataclass
class TrainResult:
    params: dict
    loss_curve: list


def batch_schedule(n_instances, batch_size, seed, epoch):
    """Deterministic shuffled batch index lists for one epoch (shared by the
    split runtime so both execution modes visit identical batches)."""
    perm = tagged_rng(seed, "shuffle", epoch).permutation(n_instances)
    return [perm[i:i + batch_size] for i in range(0, n_instances, batch_size)]


def lr_at(train_cfg, epoch):
    """Learning rate of one epoch: geometric from lr down to lr * lr_decay
    at the last epoch (shared by the split runtime)."""
    if train_cfg.epochs < 2:
        return train_cfg.lr
    return train_cfg.lr * train_cfg.lr_decay ** (epoch / (train_cfg.epochs - 1))


def train(cfg, x, y, train_cfg, seed, params=None, log=None):
    """Minimize the mean pinball loss at quantile 1 - cfg.alpha.

    x [L x S x M], y [L x M] must already be normalized.  seed drives the
    initialization (when params is omitted), the batch order and the
    dropout masks.  Returns the trained parameters and the per-epoch mean
    loss curve; epochs=0 returns the untouched initialization.
    """
    if params is None:
        params = init_params(cfg, seed)
    opt = Adam(params, lr=train_cfg.lr)
    curve = []
    for epoch in range(train_cfg.epochs):
        opt.lr = lr_at(train_cfg, epoch)
        losses = []
        for bi, idx in enumerate(batch_schedule(x.shape[0], train_cfg.batch_size,
                                                seed, epoch)):
            masks = DropoutMasks(cfg.dropout, seed, epoch, bi)
            pred, cache = forward(params, cfg, x[idx], masks)
            loss = pinball_loss(pred, y[idx], cfg.alpha)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, bi, loss)
            grads = backward(params, cfg, cache, pinball_grad(pred, y[idx], cfg.alpha))
            opt.step(params, grads)
            losses.append(loss)
        curve.append(float(np.mean(losses)))
        if log is not None:
            log(epoch, curve[-1])
    return TrainResult(params=params, loss_curve=curve)
