"""Parameter partitioning for the U-shaped split: per-client head (embedding
block) and tail (quantile-head block), shared body (encoders + LSTM)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..model.network import param_names

# per-series tensors; client m owns row m of each
CLIENT_KEYS = ("embed.w", "embed.b", "head.w", "head.b")


@dataclass
class SplitPartition:
    """Disjoint parameter ownership across the split participants."""

    clients: list        # per client: its row of each CLIENT_KEYS tensor
    body: dict           # encoder layers + LSTM tensors
    cfg: object


def partition(params, cfg):
    """Split a centralized parameter dict; arrays are copied, not aliased.
    Every part keeps the centralized names; head.b rows become 0-d arrays,
    which the clients' Adam updates in place."""
    clients = [{k: np.array(params[k][m]) for k in CLIENT_KEYS}
               for m in range(cfg.n_series)]
    body = {k: v.copy() for k, v in params.items() if k not in CLIENT_KEYS}
    return SplitPartition(clients=clients, body=body, cfg=cfg)


def merge(part):
    """Reassemble the centralized parameter dict from a partition."""
    params = {k: np.stack([c[k] for c in part.clients]) for k in CLIENT_KEYS}
    params.update({k: v.copy() for k, v in part.body.items()})
    return {k: params[k] for k in param_names(part.cfg)}
