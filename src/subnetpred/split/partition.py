"""Parameter partitioning for the U-shaped split: per-client head (embedding
block) and tail (quantile-head block), shared body (encoders + LSTM), and
the per-sample workload and cut size of each part."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..model.network import forward_flops, param_names
from ..model.train import TRAIN_DTYPE

# per-series tensors; client m owns row m of each
CLIENT_KEYS = ("embed.w", "embed.b", "head.w", "head.b")

# bits of one cut element: training runs in TRAIN_DTYPE, so every cut
# activation and gradient crosses in it
FLOAT_BITS = np.dtype(TRAIN_DTYPE).itemsize * 8


@dataclass
class SplitPartition:
    """Disjoint parameter ownership across the split participants."""

    clients: list        # per client: its [1 x ...] slice of each CLIENT_KEYS tensor
    body: dict           # encoder layers + LSTM tensors
    cfg: object


def partition(params, cfg):
    """Split a centralized parameter dict; arrays are copied, not aliased.
    Every part keeps the centralized names, and client m holds the one-series
    slices [m:m + 1], which the layer functions take as they are."""
    clients = [{k: params[k][m:m + 1].copy() for k in CLIENT_KEYS}
               for m in range(cfg.n_series)]
    body = {k: v.copy() for k, v in params.items() if k not in CLIENT_KEYS}
    return SplitPartition(clients=clients, body=body, cfg=cfg)


def merge(part):
    """Reassemble the centralized parameter dict from a partition."""
    params = {k: np.concatenate([c[k] for c in part.clients]) for k in CLIENT_KEYS}
    params.update({k: v.copy() for k, v in part.body.items()})
    return {k: params[k] for k in param_names(part.cfg)}


def partition_workloads(cfg):
    """Per-sample FLOPs of head/body/tail and the cut sizes in bits.

    The body share is expressed per client sample, so n_series * body_flops
    is the full stacked-batch body workload.  Each training instance
    crosses every client's cut twice: forward with up_bits up and down_bits
    down, backward with the same sizes the other way.  A cut carries D
    (up) or H (down) elements of the training precision, FLOAT_BITS = 32
    bits each for float32 training.
    """
    m, s, d, h = cfg.n_series, cfg.window, cfg.d_embed, cfg.lstm_hidden
    head = 2 * s * d + d
    tail = 2 * h
    total = forward_flops(cfg)
    body = (total - m * (head + tail)) / m
    return {"head_flops": float(head), "body_flops": float(body),
            "tail_flops": float(tail), "up_bits": float(d * FLOAT_BITS),
            "down_bits": float(h * FLOAT_BITS)}
