"""Bulk-synchronous U-shaped split training: train's epoch loop driving one
per-batch step that moves the cut tensors.

Every forward/backward step evaluates exactly the operations of the
centralized network: client m (SA pair "sa{m}") runs the network's client
and tail halves on its one-series slice (windows [b x S x 1], weights
[1 x ...]) and adds its series' term of pinball_loss; the server runs the
same body kernels on the stacked tokens.  Split training from a
partitioned checkpoint therefore reproduces centralized training,
parameters and loss curve, bit for bit given the same seed and data order.
Labels and raw windows never leave their client; only cut activations and
cut gradients cross the channel, each crossing through _cross.
"""

from __future__ import annotations

import numpy as np

from ..model.losses import pinball_grad, pinball_loss
from ..model.network import (body_backward, body_forward, client_backward,
                             client_forward, tail_backward, tail_forward)
from ..model.optim import Adam
from ..model.train import run_epochs
from .messages import KIND_ACTIVATION, KIND_GRADIENT, SplitMessage
from .partition import merge

SERVER = "server"


def _cross(channel, kind, edges, payloads):
    """Carry one cut: send payload k along edges[k] = (source, dest) as a
    SplitMessage, then receive each in turn; returns the received payloads."""
    for (source, dest), payload in zip(edges, payloads):
        channel.send(SplitMessage(kind, source, dest, payload))
    return [channel.recv(dest, source, kind).payload for source, dest in edges]


def split_train(part, x, y, train_cfg, channel, seed):
    """Full split training run from the partition's weights, which it trains
    in place; the epoch loop is train's (run_epochs), so seed drives the
    batch order and the dropout masks as there.  Client m gathers each batch
    from its column of x [L x S x M] and y [L x M] and casts it to the dtype
    of its parameters, as train casts it.  Returns (merged parameters,
    per-epoch loss curve)."""
    cfg, n = part.cfg, part.cfg.n_series
    up = [(f"sa{m}", SERVER) for m in range(n)]
    down = [(SERVER, f"sa{m}") for m in range(n)]
    body_opt = Adam(part.body, lr=train_cfg.lr)
    client_opts = [Adam(params, lr=train_cfg.lr) for params in part.clients]
    # each client's cache and then the body's, kept until the next batch's
    # forward has made its own, as train keeps its cache
    kept = [None] * (n + 1)

    def step(idx, masks):
        tokens, levels = [], []
        for m, params in enumerate(part.clients):
            x_b = x[idx, :, m:m + 1].astype(params["head.b"].dtype, copy=False)
            token, level, kept[m] = client_forward(params, x_b, masks, first=m)
            tokens.append(token[:, 0])
            levels.append(level)
        tokens = np.stack(_cross(channel, KIND_ACTIVATION, up, tokens), axis=1)
        hs, kept[n] = body_forward(part.body, cfg, tokens, masks)
        hidden = _cross(channel, KIND_ACTIVATION, down, hs.swapaxes(0, 1))
        loss, dhs, grads = 0.0, [], []
        for m, (params, h_m) in enumerate(zip(part.clients, hidden)):
            y_b = y[idx, m:m + 1].astype(params["head.b"].dtype, copy=False)
            pred, tail = tail_forward(params, h_m[:, None], levels[m])
            dpred = pinball_grad(pred, y_b, cfg.alpha, count=pred.size * n)
            dh, dw, db = tail_backward(params, tail, dpred)
            grads.append({"head.w": dw, "head.b": db})
            loss += pinball_loss(pred, y_b, cfg.alpha) / n
            dhs.append(dh[:, 0])
        dtokens, body_grads = body_backward(
            part.body, cfg, kept[n],
            np.stack(_cross(channel, KIND_GRADIENT, up, dhs), axis=1))
        dtokens = _cross(channel, KIND_GRADIENT, down, dtokens.swapaxes(0, 1))
        for m, dtoken in enumerate(dtokens):
            grads[m]["embed.w"], grads[m]["embed.b"] = client_backward(
                kept[m], dtoken[:, None])
        body_opt.step(part.body, body_grads)
        for opt, params, g in zip(client_opts, part.clients, grads):
            opt.step(params, g)
        return loss

    curve = run_epochs(x.shape[0], train_cfg, seed, cfg.dropout,
                       [body_opt] + client_opts, step)
    return merge(part), curve
