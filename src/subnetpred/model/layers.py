"""Forward/backward passes of every layer, written against numpy only.

Everything that touches one series alone -- the embedding and the quantile
head, forward and backward -- is a per-series kernel (`*_series`) on that
series' [b x ...] column.  The batched functions only loop those kernels
over the series axis, and a split client calls the same kernels on its own
column; the window centering is one function whose summation order does
not depend on the layout.  Split and centralized execution therefore evaluate
the same floating-point operations in the same order and stay
bit-identical at every window.
"""

from __future__ import annotations

import numpy as np


def _sigmoid(z):
    """Overflow-free logistic: 1/(1+e^-z) for z >= 0, e^z/(1+e^z) below.

    Both branches share e = exp(-|z|), so one pass over the array evaluates
    each element's branch with the same operations a masked two-branch
    version would, bit for bit.
    """
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.where(z >= 0, 1.0, e)
    e += 1.0
    num /= e
    return num


# ---------------------------------------------------------------- centering

def center_windows(x):
    """Subtract each window's recent level, its mean over the S samples:
    x [b x S (x M)] -> (centered x, level [b (x M)]).

    The sum runs in sample order (an accumulate fixes it), so a series gets
    the same bits whether a client holds it as a contiguous [b x S] column or
    the centralized batch holds it strided inside [b x S x M]; a plain
    mean's pairwise summation would differ between the two from S = 8 up.
    """
    level = np.add.accumulate(x, axis=1)[:, -1] / x.shape[1]
    return x - level[:, None], level


# ---------------------------------------------------------------- embedding

def embed_series(x_m, w_m, b_m):
    """One series window batch [b x S] -> token batch [b x D], tanh MLP."""
    return np.tanh(x_m @ w_m + b_m)


def embed_series_backward(x_m, w_m, token_m, dtoken_m):
    """Backward of embed_series: (dx_m [b x S], dw_m [S x D], db_m [D])."""
    dpre = dtoken_m * (1.0 - token_m**2)
    return dpre @ w_m.T, x_m.T @ dpre, dpre.sum(axis=0)


def embed_forward(x, w, b):
    """x [b x S x M] -> tokens [b x M x D] with per-series weights."""
    bsz, _, m = x.shape
    tokens = np.empty((bsz, m, w.shape[2]))
    for i in range(m):
        tokens[:, i] = embed_series(x[:, :, i], w[i], b[i])
    return tokens, (x, tokens)


def embed_backward(cache, w, dtokens):
    x, tokens = cache
    m = x.shape[2]
    dw = np.empty_like(w)
    db = np.empty((m, w.shape[2]))
    dx = np.empty_like(x)
    for i in range(m):
        dx[:, :, i], dw[i], db[i] = embed_series_backward(
            x[:, :, i], w[i], tokens[:, i], dtokens[:, i])
    return dx, dw, db


# ---------------------------------------------------------------- attention

def _split_heads(t, n_heads):
    b, m, d = t.shape
    return t.reshape(b, m, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(t):
    b, nh, m, dh = t.shape
    return t.transpose(0, 2, 1, 3).reshape(b, m, nh * dh)


def attention_forward(tokens, wq, wk, wv, wo, bo, n_heads):
    """Multi-head self-attention over the series tokens.

    The q/k/v projections are bias-free (a key bias is exactly invisible to
    the row-wise softmax, so its gradient is identically zero); the output
    projection keeps its bias.  Returns (out, score_map, cache); score_map
    is the head-averaged [M x M] attention matrix (averaged over the batch)
    for diagnostics.
    """
    q = _split_heads(tokens @ wq, n_heads)
    k = _split_heads(tokens @ wk, n_heads)
    v = _split_heads(tokens @ wv, n_heads)
    dh = q.shape[-1]
    scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dh)
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    attn = e / e.sum(axis=-1, keepdims=True)
    ctx = _merge_heads(attn @ v)
    out = ctx @ wo + bo
    score_map = attn.mean(axis=(0, 1))
    cache = (tokens, q, k, v, attn, ctx)
    return out, score_map, cache


def attention_backward(cache, wq, wk, wv, wo, n_heads, dout):
    tokens, q, k, v, attn, ctx = cache
    b, m, d = tokens.shape
    dh = d // n_heads

    dwo = ctx.reshape(-1, d).T @ dout.reshape(-1, d)
    dbo = dout.sum(axis=(0, 1))
    dctx = _split_heads(dout @ wo.T, n_heads)

    dattn = dctx @ v.transpose(0, 1, 3, 2)
    dv = attn.transpose(0, 1, 3, 2) @ dctx
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dscores /= np.sqrt(dh)
    dq = dscores @ k
    dk = dscores.transpose(0, 1, 3, 2) @ q

    dq = _merge_heads(dq).reshape(-1, d)
    dk = _merge_heads(dk).reshape(-1, d)
    dv = _merge_heads(dv).reshape(-1, d)
    flat = tokens.reshape(-1, d)
    dwq, dwk, dwv = flat.T @ dq, flat.T @ dk, flat.T @ dv
    dtokens = (dq @ wq.T + dk @ wk.T + dv @ wv.T).reshape(b, m, d)
    return dtokens, (dwq, dwk, dwv, dwo), dbo


# --------------------------------------------------------------- layer norm

LN_EPS = 1e-5


def _feature_mean(x):
    """Mean over the last axis, summed exactly as ndarray.mean sums it."""
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def layer_norm_forward(x, gain, bias):
    """Normalize each token over its feature axis, then apply gain/bias."""
    d = x - _feature_mean(x)
    inv = 1.0 / np.sqrt(_feature_mean(d * d) + LN_EPS)
    xhat = d * inv
    return gain * xhat + bias, (xhat, inv)


def layer_norm_backward(cache, gain, dout):
    xhat, inv = cache
    lead = tuple(range(dout.ndim - 1))
    dgain = np.add.reduce(dout * xhat, axis=lead)
    dbias = np.add.reduce(dout, axis=lead)
    dxhat = dout * gain
    dx = inv * (dxhat - _feature_mean(dxhat) - xhat * _feature_mean(dxhat * xhat))
    return dx, dgain, dbias


# --------------------------------------------------------------------- LSTM

def lstm_forward(tokens, wx, wh, bias):
    """Gated recurrence over the series-token sequence.

    tokens [b x M x D] -> hidden states [b x M x H]; gate order i, f, g, o.
    """
    b, m, _ = tokens.shape
    hsz = wh.shape[0]
    h = np.zeros((b, hsz))
    c = np.zeros((b, hsz))
    hs = np.empty((b, m, hsz))
    steps = []
    for t in range(m):
        z = tokens[:, t] @ wx + h @ wh + bias
        # one sigmoid over all four gates; the g columns are left unused
        gates = _sigmoid(z)
        i, f, o = gates[:, :hsz], gates[:, hsz:2 * hsz], gates[:, 3 * hsz:]
        g = np.tanh(z[:, 2 * hsz:3 * hsz])
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        h_new = o * tc
        steps.append((tokens[:, t], h, c, i, f, g, o, tc))
        h, c = h_new, c_new
        hs[:, t] = h
    return hs, steps


def lstm_backward(steps, wx, wh, dhs):
    b, hsz = dhs.shape[0], wh.shape[0]
    m = dhs.shape[1]
    dwx = np.zeros_like(wx)
    dwh = np.zeros_like(wh)
    dbias = np.zeros(4 * hsz)
    dtokens = np.empty((b, m, wx.shape[0]))
    dh_next = np.zeros((b, hsz))
    dc_next = np.zeros((b, hsz))
    for t in reversed(range(m)):
        x_t, h_prev, c_prev, i, f, g, o, tc = steps[t]
        dh = dhs[:, t] + dh_next
        do = dh * tc
        dc = dh * o * (1.0 - tc**2) + dc_next
        di, df, dg = dc * g, dc * c_prev, dc * i
        dz = np.concatenate([
            di * i * (1.0 - i), df * f * (1.0 - f),
            dg * (1.0 - g**2), do * o * (1.0 - o)], axis=1)
        dwx += x_t.T @ dz
        dwh += h_prev.T @ dz
        dbias += dz.sum(axis=0)
        dtokens[:, t] = dz @ wx.T
        dh_next = dz @ wh.T
        dc_next = dc * f
    return dtokens, dwx, dwh, dbias


# ----------------------------------------------------------- quantile head

def head_series(h_m, w_m, b_m):
    """One series hidden batch [b x H] -> scalar threshold batch [b]."""
    return h_m @ w_m + b_m


def head_series_backward(h_m, w_m, dpred_m):
    """Backward of head_series: (dh_m [b x H], dw_m [H], db_m scalar)."""
    return np.outer(dpred_m, w_m), h_m.T @ dpred_m, dpred_m.sum()


def head_forward(hs, w, b):
    """hs [b x M x H] -> thresholds [b x M] with per-series weights."""
    bsz, m, _ = hs.shape
    pred = np.empty((bsz, m))
    for i in range(m):
        pred[:, i] = head_series(hs[:, i], w[i], b[i])
    return pred, hs


def head_backward(hs, w, dpred):
    m = hs.shape[1]
    dw = np.empty_like(w)
    db = np.empty(m)
    dhs = np.empty_like(hs)
    for i in range(m):
        dhs[:, i], dw[i], db[i] = head_series_backward(hs[:, i], w[i], dpred[:, i])
    return dhs, dw, db
