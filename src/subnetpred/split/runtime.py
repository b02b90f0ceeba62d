"""Bulk-synchronous U-shaped split execution.

Every forward/backward step evaluates exactly the operations of the
centralized network: a client runs the network's client and tail halves
on its one-series slice (windows [b x S x 1], weights [1 x ...]) and adds
its series' term of pinball_loss; the server calls the same body kernels.
Split training from a partitioned checkpoint therefore reproduces
centralized training, parameters and loss curve, bit for bit given the
same seed and data order.  Labels and raw windows never leave their
client; only cut activations and cut gradients cross the channel.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..model.losses import pinball_grad, pinball_loss
from ..model.network import (body_backward, body_forward, client_backward,
                             client_forward, tail_backward, tail_forward)
from ..model.optim import Adam
from ..model.train import run_epochs
from .messages import KIND_ACTIVATION, KIND_GRADIENT, SplitMessage
from .partition import merge

SERVER = "server"


def client_name(index):
    return f"sa{index}"


class SplitClient:
    """One SA pair: its one-series slices of the embedding and quantile-head
    tensors, under the centralized names, and the private data (windows
    [n x S x 1], labels [n x 1]).  The data is held as given, views into
    the training tensors included; each batch is gathered from it and cast
    to the dtype of the client's parameters, as train casts it."""

    def __init__(self, index, params, x_col, y_col, cfg, lr):
        self.index = index
        self.name = client_name(index)
        self.cfg = cfg
        self.params = params
        self.x = x_col
        self.y = y_col
        self.opt = Adam(self.params, lr=lr)
        self.dtype = params["head.b"].dtype
        self._cache = None
        self._grads = None

    def head_forward(self, idx, masks):
        """The client half of this series' batch idx; returns the token to send."""
        x_b = self.x[idx].astype(self.dtype, copy=False)
        tokens, level, client = client_forward(self.params, x_b, masks,
                                               first=self.index)
        self._cache = {"client": client, "idx": idx, "level": level}
        return tokens[:, 0]

    def tail_step(self, h_m):
        """The tail half of this series: return its term of the batch loss
        and the gradient w.r.t. the received hidden state."""
        y_b = self.y[self._cache["idx"]].astype(self.dtype, copy=False)
        pred, tail = tail_forward(self.params, h_m[:, None], self._cache["level"])
        alpha, m = self.cfg.alpha, self.cfg.n_series
        dpred = pinball_grad(pred, y_b, alpha, count=pred.size * m)
        dhs, dw, db = tail_backward(self.params, tail, dpred)
        self._grads = {"head.w": dw, "head.b": db}
        return pinball_loss(pred, y_b, alpha) / m, dhs[:, 0]

    def head_backward(self, dtoken):
        self._grads["embed.w"], self._grads["embed.b"] = client_backward(
            self._cache["client"], dtoken[:, None])

    def apply_update(self):
        self.opt.step(self.params, self._grads)
        self._grads = None


class SplitServer:
    """The sub-network controller: encoder stack and LSTM."""

    def __init__(self, body, cfg, lr):
        self.params = body
        self.cfg = cfg
        self.opt = Adam(self.params, lr=lr)
        self._cache = None
        self._grads = None

    def body_forward(self, tokens, masks):
        hs, cache = body_forward(self.params, self.cfg, tokens, masks)
        self._cache = cache
        return hs

    def body_backward(self, dhs):
        dtokens, self._grads = body_backward(self.params, self.cfg,
                                             self._cache, dhs)
        return dtokens

    def apply_update(self):
        self.opt.step(self.params, self._grads)
        self._grads = None


def build_participants(part, x, y, lr):
    """Instantiate clients (one per series, holding its data column) and the
    server from a SplitPartition plus the training tensors.  The participants
    hold the partition's arrays and update them in place; each client's
    column is a view of x and y, never a copy."""
    cfg = part.cfg
    clients = [SplitClient(m, params, x[:, :, m:m + 1], y[:, m:m + 1], cfg, lr)
               for m, params in enumerate(part.clients)]
    server = SplitServer(part.body, cfg, lr)
    return clients, server


def _gather(channel, dest, sources, kind):
    return [channel.recv(dest, src, kind).payload for src in sources]


def split_forward_batch(clients, server, channel, idx, masks):
    """One forward sweep: head activations up, body, hidden states down.

    Returns the per-client hidden states (each client keeps its own copy)."""
    for cl in clients:
        token = cl.head_forward(idx, masks)
        channel.send(SplitMessage(KIND_ACTIVATION, cl.name, SERVER, token))
    tokens = np.stack(_gather(channel, SERVER, [c.name for c in clients],
                              KIND_ACTIVATION), axis=1)
    hs = server.body_forward(tokens, masks)
    for m, cl in enumerate(clients):
        channel.send(SplitMessage(KIND_ACTIVATION, SERVER, cl.name, hs[:, m]))
    return [channel.recv(cl.name, SERVER, KIND_ACTIVATION).payload
            for cl in clients]


def split_step(clients, server, channel, idx, masks):
    """One synchronous batch of U-shaped split training.

    M head activations up, one body pass, M hidden states down, M cut
    gradients up, one body backward, M cut gradients down, then every
    participant applies its local Adam step.  Returns the batch loss, the
    clients' terms added in series order.
    """
    hidden = split_forward_batch(clients, server, channel, idx, masks)
    batch_loss = 0.0
    for cl, h_m in zip(clients, hidden):
        loss_m, dh = cl.tail_step(h_m)
        batch_loss += loss_m
        channel.send(SplitMessage(KIND_GRADIENT, cl.name, SERVER, dh))
    dhs = np.stack(_gather(channel, SERVER, [c.name for c in clients],
                           KIND_GRADIENT), axis=1)
    dtokens = server.body_backward(dhs)
    for m, cl in enumerate(clients):
        channel.send(SplitMessage(KIND_GRADIENT, SERVER, cl.name, dtokens[:, m]))
    for cl in clients:
        cl.head_backward(channel.recv(cl.name, SERVER, KIND_GRADIENT).payload)
    server.apply_update()
    for cl in clients:
        cl.apply_update()
    return batch_loss


def split_train(part, x, y, train_cfg, channel, seed):
    """Full split training run from the partition's weights, which it trains
    in place; the epoch loop is train's (run_epochs), so seed drives the
    batch order and the dropout masks as there.  Returns (merged
    parameters, per-epoch loss curve)."""
    clients, server = build_participants(part, x, y, train_cfg.lr)
    curve = run_epochs(x.shape[0], train_cfg, seed, part.cfg.dropout,
                       [server.opt] + [cl.opt for cl in clients],
                       partial(split_step, clients, server, channel))
    return merge(part), curve
