"""Pinball (quantile) loss for the upper-quantile threshold predictor."""

from __future__ import annotations

import numpy as np


def pinball_loss(pred, label, alpha):
    """Mean asymmetric loss for the (1 - alpha) quantile.

    Overprediction costs alpha per unit, underprediction 1 - alpha, so the
    minimizer of the mean is the empirical (1 - alpha) quantile.  The
    difference is formed in float64 whatever the inputs' dtype, without
    float64 copies of them.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    diff = np.subtract(pred, label, dtype=float)
    loss = np.where(diff >= 0, alpha * diff, (alpha - 1.0) * diff)
    return float(loss.mean())


def pinball_grad(pred, label, alpha, count=None):
    """Gradient of the mean pinball loss with respect to the predictions.

    The mean runs over `count` predictions, all of `pred` by default.  A
    split client passes the whole batch's b*M for its own column [b], so it
    divides once by the same b*M and its gradient is bit-equal to that column
    of the full-batch gradient.  The gradient takes the dtype of pred.
    """
    g = np.where(pred >= label, alpha, alpha - 1.0).astype(pred.dtype, copy=False)
    return g / (pred.size if count is None else count)
