"""The training loop: Adam on the pinball loss, deterministic per seed.

run_epochs owns everything the centralized and the split execution share
(learning-rate schedule, batch order, dropout masks, divergence check, loss
curve); each mode supplies only its per-batch step.
"""

from __future__ import annotations

import numpy as np

from ..rng import tagged_rng
from .losses import pinball_grad, pinball_loss
from .network import backward, forward
from .optim import Adam, DropoutMasks

# the precision a model trains in; its checkpoint and every prediction and
# decision made from it stay float64 (pipeline.stage_train casts the
# parameters both ways, and each training batch is cast to it)
TRAIN_DTYPE = np.float32


class TrainingDivergedError(RuntimeError):
    """Non-finite loss encountered; carries epoch/batch diagnostics."""

    def __init__(self, epoch, batch, loss):
        super().__init__(f"non-finite loss {loss!r} at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


def batch_schedule(n_instances, batch_size, seed, epoch):
    """Deterministic shuffled batch index lists for one epoch."""
    perm = tagged_rng(seed, "shuffle", epoch).permutation(n_instances)
    return [perm[i:i + batch_size] for i in range(0, n_instances, batch_size)]


def lr_at(train_cfg, epoch):
    """Learning rate of one epoch: geometric from lr down to lr * lr_decay
    at the last epoch."""
    if train_cfg.epochs < 2:
        return train_cfg.lr
    return train_cfg.lr * train_cfg.lr_decay ** (epoch / (train_cfg.epochs - 1))


def run_epochs(n_instances, train_cfg, seed, dropout, optimizers, step):
    """Drive step(idx, masks), which returns the batch loss, over every
    batch of every epoch.

    Sets each optimizer's learning rate per epoch, draws the batch order and
    one DropoutMasks per batch from seed, and raises TrainingDivergedError
    on the first non-finite batch loss.  Returns the per-epoch mean loss
    curve.
    """
    curve = []
    for epoch in range(train_cfg.epochs):
        lr = lr_at(train_cfg, epoch)
        for opt in optimizers:
            opt.lr = lr
        losses = []
        for bi, idx in enumerate(batch_schedule(n_instances, train_cfg.batch_size,
                                                seed, epoch)):
            loss = step(idx, DropoutMasks(dropout, seed, epoch, bi))
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, bi, loss)
            losses.append(loss)
        curve.append(float(np.mean(losses)))
    return curve


def train(cfg, x, y, train_cfg, seed, params):
    """Minimize the mean pinball loss at quantile 1 - cfg.alpha, updating
    the initial params in place.

    x [L x S x M], y [L x M] must already be normalized.  They are held as
    given, read-only views of the dataset's float64 windows included: each
    batch is gathered from them and cast to the dtype of params, which
    every step runs in (every kernel keeps it).  seed drives the batch
    order and the dropout masks.  Returns (trained parameters, per-epoch
    mean loss curve); epochs=0 returns params untouched.
    """
    opt = Adam(params, lr=train_cfg.lr)
    dtype = params["head.b"].dtype
    cache = None

    def step(idx, masks):
        # keep the last batch's cache until this forward returns, as the
        # split participants do: freed earlier, glibc's malloc hands its
        # pages back to the OS and the forward faults them in again, which
        # made a desk-shape epoch about 25% slower
        nonlocal cache
        y_b = y[idx].astype(dtype, copy=False)
        pred, cache = forward(params, cfg, x[idx].astype(dtype, copy=False), masks)
        loss = pinball_loss(pred, y_b, cfg.alpha)
        grads = backward(params, cfg, cache, pinball_grad(pred, y_b, cfg.alpha))
        opt.step(params, grads)
        return loss

    return params, run_epochs(x.shape[0], train_cfg, seed, cfg.dropout, [opt],
                              step)
