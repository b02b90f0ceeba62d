"""Reference predictors: two-tap moving average and the Yule-Walker
(Wiener) one-step linear predictor with a Levinson-Durbin solve."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


# relative ridge on r[0] in levinson_durbin
RIDGE = 1e-8


def moving_average_predict(series, t_indices):
    """Two-tap average prediction of series[t] from t-1 and t-2.

    series is 1-D; t_indices must all be >= 2.
    """
    s = np.asarray(series, dtype=float).ravel()
    t = np.asarray(t_indices, dtype=int)
    if np.any(t < 2):
        raise ValueError("need two history samples before every prediction point")
    return 0.5 * s[t - 1] + 0.5 * s[t - 2]


def autocorrelation(x, max_lag):
    """Raw sample (auto)correlation r_0..r_max_lag of a window.

    x is one window [n] or a stack of windows [P x n] along a leading batch
    axis; the result is [max_lag + 1] or [P x (max_lag + 1)], and each row
    has the bits of the 1-D call on that row (each lag product is summed
    over a contiguous last axis, the pairwise sum of the 1-D case).

    This is the raw second-moment sequence, without mean removal -- the
    "sample interference correlation" convention, where the mean level
    stays inside the normal equations instead of being removed first.
    The biased (1/n) normalization tapers the sequence, keeping it a valid
    autocorrelation for the Levinson-Durbin recursion.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    r = np.empty(x.shape[:-1] + (max_lag + 1,))
    for k in range(max_lag + 1):
        r[..., k] = (x[..., :n - k] * x[..., k:]).sum(axis=-1) / n
    return r


def levinson_durbin(r, order):
    """Solve the Yule-Walker normal equations by Levinson-Durbin recursion.

    Returns the forward prediction coefficients a (length order) with
    prediction x[t] ~= sum a_k x[t-k].  A relative RIDGE on r[0] keeps the
    recursion stable for (near-)degenerate autocorrelations.

    r is one lag sequence [order + 1] or a stack [P x (order + 1)] along a
    leading batch axis, solved together; a is then [P x order], and each
    row has the bits of the 1-D call on that row.  A row whose recursion
    stops early keeps its partial model while the others go on.
    """
    r = np.array(r, dtype=float)
    if r.shape[-1] < order + 1:
        raise ValueError("need order+1 autocorrelation lags")
    rows = r.reshape(-1, r.shape[-1])
    rows[:, 0] += RIDGE * np.maximum(rows[:, 0], 1.0)
    a = np.zeros((rows.shape[0], order))
    err = rows[:, 0].copy()
    live = np.ones(rows.shape[0], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(order):
            # a stacked (1 x i) @ (i x 1) matmul on contiguous reversed lags
            # gives np.dot's bits per row; broadcasting and einsum do not
            lags = np.ascontiguousarray(rows[:, i:0:-1])
            acc = rows[:, i + 1] - (a[:, None, :i] @ lags[:, :, None])[:, 0, 0]
            k = acc / err
            # |k| >= 1 means the sequence is no longer a valid
            # autocorrelation (possible for unbiased estimates); keep the
            # stable partial model
            live &= np.isfinite(k) & (np.abs(k) < 1.0)
            if not live.any():
                break
            a_new = a.copy()
            a_new[:, i] = k
            if i:
                a_new[:, :i] = a[:, :i] - k[:, None] * a[:, i - 1::-1]
            a[live] = a_new[live]
            err[live] *= 1.0 - k[live] * k[live]
            live &= ~(err <= 0)
    return a.reshape(r.shape[:-1] + (order,))


def wiener_predict(series, t_indices, order, history=None):
    """One-step linear prediction with coefficients refit per target point.

    For each t the coefficients solve the Yule-Walker normal equations on
    the raw sample correlation (no mean removal, the sample interference
    correlation convention) of the trailing history window; the prediction
    is the plain linear combination of the last `order` samples.  The
    default history spans a few stationarity intervals (4*(order+1)
    samples): beyond the interval that sets the order, sample correlations
    mix regimes and stop being trustworthy.  A flat window, every sample
    equal to the last, predicts that value.

    The refits run batched, one batch per window length (points with
    t < history see the shorter window s[:t]); each point gets the bits of
    a refit on its window alone.

    Because the mean is not removed, the solution is sensitive to the
    series' reference level (the coefficients sum to slightly less than
    one on a near-degenerate correlation sequence) -- the known weakness
    of this predictor.
    """
    s = np.asarray(series, dtype=float).ravel()
    t_indices = np.asarray(t_indices, dtype=int)
    hist = history if history is not None else 4 * (order + 1)
    if np.any(t_indices < order + 1):
        raise ValueError("need order+1 history samples before every prediction point")
    preds = np.empty(t_indices.size)
    n_win = np.minimum(t_indices, hist)
    for n in np.unique(n_win):
        sel = np.flatnonzero(n_win == n)
        t = t_indices[sel]
        windows = sliding_window_view(s, n)[t - n]
        lags = np.ascontiguousarray(sliding_window_view(s, order)[t - order][:, ::-1])
        a = levinson_durbin(autocorrelation(windows, order), order)
        fit = (a[:, None, :] @ lags[:, :, None])[:, 0, 0]
        # degenerate history: hold the constant (a flat window's variance
        # need not round to zero)
        flat = (windows == windows[:, -1:]).all(axis=-1)
        preds[sel] = np.where(flat, windows[:, -1], fit)
    return preds
