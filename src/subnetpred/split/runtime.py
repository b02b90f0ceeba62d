"""Bulk-synchronous U-shaped split execution.

Every forward/backward step evaluates exactly the operations of the
centralized network (the clients call the same per-series kernels, the
server the same body kernels), so split training from a partitioned
checkpoint reproduces centralized training bit-for-bit given the same seed
and data order.  Labels and raw windows never leave their client; only cut
activations and cut gradients cross the channel.
"""

from __future__ import annotations

import numpy as np

from ..model import layers
from ..model.losses import pinball_grad, pinball_loss
from ..model.network import body_backward, body_forward, embed_dropout
from ..model.optim import Adam, DropoutMasks
from ..model.train import batch_schedule, lr_at
from .messages import KIND_ACTIVATION, KIND_GRADIENT, SplitMessage
from .partition import merge

SERVER = "server"


def client_name(index):
    return f"sa{index}"


class SplitClient:
    """One SA pair: embedding head, quantile tail, and the private data."""

    def __init__(self, index, head, tail, x_col, y_col, cfg, lr):
        self.index = index
        self.name = client_name(index)
        self.cfg = cfg
        self.params = {"embed.w": head["w"], "embed.b": head["b"],
                       "head.w": tail["w"], "head.b": tail["b"]}
        self.x = x_col
        self.y = y_col
        self.opt = Adam(self.params, lr=lr)
        self._cache = None
        self._grads = None

    def head_forward(self, idx, masks):
        """Embed this series' windows of batch idx; returns the token to send."""
        x_b = self.x[idx]
        level = None
        if self.cfg.center_windows:
            x_b, level = layers.center_windows(x_b)
        token = layers.embed_series(x_b, self.params["embed.w"],
                                    self.params["embed.b"])
        mask = embed_dropout(masks, self.index, token.shape)
        self._cache = {"x": x_b, "token": token, "mask": mask, "idx": idx,
                       "level": level}
        return token if mask is None else token * mask

    def tail_step(self, h_m):
        """Forward the tail, evaluate the local pinball loss contribution,
        and return the gradient w.r.t. the received hidden state."""
        y_b = self.y[self._cache["idx"]]
        pred = layers.head_series(h_m, self.params["head.w"],
                                  self.params["head.b"])
        if self._cache["level"] is not None:
            pred = pred + self._cache["level"]
        alpha, m = self.cfg.alpha, self.cfg.n_series
        dpred = pinball_grad(pred, y_b, alpha, count=pred.size * m)
        dh, dw, db = layers.head_series_backward(h_m, self.params["head.w"], dpred)
        self._grads = {"head.w": dw, "head.b": db}
        return pinball_loss(pred, y_b, alpha) / m, dh

    def head_backward(self, dtoken):
        mask = self._cache["mask"]
        if mask is not None:
            dtoken = dtoken * mask
        # the raw windows have no upstream, so their gradient is dropped
        _, self._grads["embed.w"], self._grads["embed.b"] = \
            layers.embed_series_backward(self._cache["x"], self.params["embed.w"],
                                         self._cache["token"], dtoken)

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
    """Instantiate clients (one per series, owning its data column) and the
    server from a SplitPartition plus the training tensors.  The participants
    hold the partition's arrays and update them in place."""
    cfg = part.cfg
    clients = [SplitClient(m, part.heads[m], part.tails[m],
                           np.ascontiguousarray(x[:, :, m]), y[:, m].copy(),
                           cfg, lr)
               for m in range(cfg.n_series)]
    server = SplitServer(part.body, cfg, lr)
    return clients, server


def _gather(channel, dest, sources, kind):
    return [channel.recv(dest, src, kind).payload for src in sources]


def split_forward_batch(clients, server, channel, idx, masks, epoch, batch):
    """One forward sweep: head activations up, body, hidden states down.

    Returns the per-client hidden states (each client keeps its own copy)."""
    for cl in clients:
        token = cl.head_forward(idx, masks)
        channel.send(SplitMessage(KIND_ACTIVATION, cl.name, SERVER,
                                  epoch, batch, token))
    tokens = np.stack(_gather(channel, SERVER, [c.name for c in clients],
                              KIND_ACTIVATION), axis=1)
    hs = server.body_forward(tokens, masks)
    for m, cl in enumerate(clients):
        channel.send(SplitMessage(KIND_ACTIVATION, SERVER, cl.name,
                                  epoch, batch, hs[:, m]))
    return [channel.recv(cl.name, SERVER, KIND_ACTIVATION).payload
            for cl in clients]


def split_train_epoch(clients, server, channel, seed, epoch, batch_size):
    """One synchronous epoch of U-shaped split training.

    Per batch: M head activations up, one body pass, M hidden states down,
    M cut gradients up, one body backward, M cut gradients down, then every
    participant applies its local Adam step.  Returns the mean batch loss.
    """
    n = clients[0].x.shape[0]
    losses = []
    for bi, idx in enumerate(batch_schedule(n, batch_size, seed, epoch)):
        masks = DropoutMasks(server.cfg.dropout, seed, epoch, bi)
        hidden = split_forward_batch(clients, server, channel, idx, masks,
                                     epoch, bi)
        batch_loss = 0.0
        for cl, h_m in zip(clients, hidden):
            loss_m, dh = cl.tail_step(h_m)
            batch_loss += loss_m
            channel.send(SplitMessage(KIND_GRADIENT, cl.name, SERVER,
                                      epoch, bi, dh))
        dhs = np.stack(_gather(channel, SERVER, [c.name for c in clients],
                               KIND_GRADIENT), axis=1)
        dtokens = server.body_backward(dhs)
        for m, cl in enumerate(clients):
            channel.send(SplitMessage(KIND_GRADIENT, SERVER, cl.name,
                                      epoch, bi, dtokens[:, m]))
        for cl in clients:
            cl.head_backward(channel.recv(cl.name, SERVER, KIND_GRADIENT).payload)
        server.apply_update()
        for cl in clients:
            cl.apply_update()
        losses.append(batch_loss)
    return float(np.mean(losses))


def split_train(part, x, y, train_cfg, channel, seed):
    """Full split training run from the partition's weights, which it trains
    in place; seed drives the batch order and the dropout masks, as in
    train.  Returns (merged parameters, per-epoch loss curve)."""
    clients, server = build_participants(part, x, y, train_cfg.lr)
    curve = []
    for epoch in range(train_cfg.epochs):
        lr = lr_at(train_cfg, epoch)
        for opt in [server.opt] + [cl.opt for cl in clients]:
            opt.lr = lr
        curve.append(split_train_epoch(clients, server, channel, seed, epoch,
                                       train_cfg.batch_size))
    return merge(part), curve
