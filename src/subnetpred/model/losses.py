"""Pinball (quantile) loss for the upper-quantile threshold predictor."""

from __future__ import annotations

import numpy as np


def pinball_loss(pred, label, alpha):
    """Batch loss for the (1 - alpha) quantile: the contiguous mean of each
    series column of pred, label [b x k], divided by k and added column by
    column.  Overprediction costs alpha per unit, underprediction 1 - alpha.
    A split client's one column divided by M is train's term for it, so the
    clients' terms added in series order are train's loss bit for bit.  The
    difference is formed in float64, without float64 copies of the inputs."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    diff = np.subtract(pred, label, dtype=float).reshape(len(pred), -1)
    loss = np.where(diff >= 0, alpha * diff, (alpha - 1.0) * diff)
    n = loss.shape[1]
    return sum(float(col.mean()) / n for col in np.ascontiguousarray(loss.T))


def pinball_grad(pred, label, alpha, count=None):
    """Gradient of the mean pinball loss with respect to the predictions.

    The mean runs over `count` predictions, all of `pred` by default.  A
    split client passes the whole batch's b*M for its own column [b], so it
    divides once by the same b*M and its gradient is bit-equal to that column
    of the full-batch gradient.  The gradient takes the dtype of pred.
    """
    g = np.where(pred >= label, alpha, alpha - 1.0).astype(pred.dtype, copy=False)
    return g / (pred.size if count is None else count)
