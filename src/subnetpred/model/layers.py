"""Forward/backward passes of every layer, written against numpy only.

The embedding and the quantile head give each series its own weights.  Each
of their four functions is one matmul stacked over the series axis, and it
hands BLAS every series' operands as a contiguous block: the windows
[b x S] of series m, the head's dpred column [b].  A split client calls the
same four functions on its one-series slice (windows [b x S x 1], weights
[1 x ...]), so each series meets the same BLAS call in the same layout
whether one series or all M are stacked.  The window centering is one
function whose summation order does not depend on the layout.  Split and
centralized execution therefore evaluate the same floating-point operations
in the same order and stay bit-identical at every window and batch size.

Every function computes in its inputs' dtype and allocates its buffers in
it: training runs them in float32, inference in float64.
"""

from __future__ import annotations

import math

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
    # z >= 0 selects 1.0 over e <= 1, and z < 0 selects e over 0.0
    num = np.maximum(z >= 0, e)
    e += 1.0
    num /= e
    return num


# ---------------------------------------------------------------- centering

def center_windows(x):
    """Subtract each window's recent level, its mean over the S samples:
    x [b x S (x M)] -> (centered x, level [b (x M)]).

    The sum runs in sample order (an accumulate fixes it), so a series gets
    the same bits whether a client holds it alone as [b x S x 1] or the
    centralized batch holds it strided inside [b x S x M]; a plain
    mean's pairwise summation would differ between the two from S = 8 up.
    """
    level = np.add.accumulate(x, axis=1)[:, -1] / x.shape[1]
    return x - level[:, None], level


# ---------------------------------------------------------------- embedding

def embed_forward(x, w, b):
    """x [b x S x M] -> tokens [b x M x D], series m through its own tanh
    MLP w[m] [S x D], b[m] [D]: one matmul stacked over the series axis."""
    xs = np.ascontiguousarray(x.transpose(2, 0, 1))
    pre = np.matmul(xs, w)
    pre += b[:, None]
    np.tanh(pre, out=pre)
    tokens = np.ascontiguousarray(pre.transpose(1, 0, 2))
    return tokens, (xs, tokens)


def embed_backward(cache, dtokens):
    """(dw [M x S x D], db [M x D]); the raw windows have no upstream, so
    their gradient is not formed."""
    xs, tokens = cache
    dpre = np.ascontiguousarray((dtokens * (1.0 - tokens**2)).transpose(1, 0, 2))
    dw = np.matmul(xs.transpose(0, 2, 1), dpre)
    return dw, dpre.sum(axis=1)


# ---------------------------------------------------------------- attention

def _split_heads(t, n_heads):
    b, m, d = t.shape
    return t.reshape(b, m, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(t):
    b, nh, m, dh = t.shape
    return t.transpose(0, 2, 1, 3).reshape(b, m, nh * dh)


def _key_sum(x):
    """Sum over the last (key) axis, added key by key in key order.

    Up to 7 keys np.add.reduce adds in this order too, so the bits are the
    same without its short-axis reduction; from 8 keys on it sums pairwise
    and the last bits differ (every preset has 4 series).
    """
    total = x[..., 0]
    for j in range(1, x.shape[-1]):
        total = total + x[..., j]
    return total


def attention_forward(tokens, wq, wk, wv, wo, bo, n_heads):
    """Multi-head self-attention over the series tokens.

    The q/k/v projections are bias-free (a key bias is exactly invisible to
    the row-wise softmax, so its gradient is identically zero); the output
    projection keeps its bias.  Returns (out, cache); cache[4] holds the
    attention weights [b x heads x M x M].  The softmax row max is taken
    key by key with np.maximum, which gives the bits of .max(axis=-1)
    (a max does not depend on order) without its short-axis reduction; the
    denominator is a key-by-key sum (see _key_sum).
    """
    q = _split_heads(tokens @ wq, n_heads)
    k = _split_heads(tokens @ wk, n_heads)
    v = _split_heads(tokens @ wv, n_heads)
    dh = q.shape[-1]
    scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(dh)
    row_max = scores[..., 0]
    for j in range(1, scores.shape[-1]):
        row_max = np.maximum(row_max, scores[..., j])
    # at M = 1 row_max is a view of scores; an in-place ufunc reads an
    # overlapping operand as if it were copied first
    scores -= row_max[..., None]
    e = np.exp(scores)
    attn = e / _key_sum(e)[..., None]
    ctx = _merge_heads(attn @ v)
    out = ctx @ wo + bo
    cache = (tokens, q, k, v, attn, ctx)
    return out, cache


def attention_backward(cache, wq, wk, wv, wo, n_heads, dout):
    tokens, q, k, v, attn, ctx = cache
    b, m, d = tokens.shape
    dh = d // n_heads

    dwo = ctx.reshape(-1, d).T @ dout.reshape(-1, d)
    dbo = dout.sum(axis=(0, 1))
    dctx = _split_heads(dout @ wo.T, n_heads)

    dattn = dctx @ v.transpose(0, 1, 3, 2)
    dv = attn.transpose(0, 1, 3, 2) @ dctx
    dscores = attn * (dattn - _key_sum(dattn * attn)[..., None])
    dscores /= math.sqrt(dh)
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
    The state starts at zero, so step 0 forms neither h @ wh nor f * c and
    caches no previous state.
    """
    b, m, _ = tokens.shape
    hsz = wh.shape[0]
    h = c = None
    hs = np.empty((b, m, hsz), dtype=tokens.dtype)
    steps = []
    for t in range(m):
        z = tokens[:, t] @ wx
        if t:
            z += h @ wh
        z += bias
        # one sigmoid over all four gates; the g columns are left unused
        gates = _sigmoid(z)
        i, f, o = gates[:, :hsz], gates[:, hsz:2 * hsz], gates[:, 3 * hsz:]
        g = np.tanh(z[:, 2 * hsz:3 * hsz])
        c_new = i * g
        if t:
            c_new += f * c
        tc = np.tanh(c_new)
        h_new = o * tc
        steps.append((tokens[:, t], h, c, i, f, g, o, tc))
        h, c = h_new, c_new
        hs[:, t] = h
    return hs, steps


def lstm_backward(steps, wx, wh, dhs):
    """(dtokens, dwx, dwh, dbias).  No gradient reaches the last step from
    later ones, and step 0 read the zero state: its forget gate and wh get
    no gradient from it, and it passes none further back."""
    b, hsz = dhs.shape[0], wh.shape[0]
    m = dhs.shape[1]
    dwx = np.zeros_like(wx)
    dwh = np.zeros_like(wh)
    dbias = np.zeros(4 * hsz, dtype=dhs.dtype)
    dtokens = np.empty((b, m, wx.shape[0]), dtype=dhs.dtype)
    dz = np.empty((b, 4 * hsz), dtype=dhs.dtype)   # the four gate blocks, i f g o
    for t in reversed(range(m)):
        x_t, h_prev, c_prev, i, f, g, o, tc = steps[t]
        dh = dhs[:, t] if t == m - 1 else dhs[:, t] + dh_next
        do = dh * tc
        dc = dh * o * (1.0 - tc**2)
        if t < m - 1:
            dc += dc_next
        di, dg = dc * g, dc * i
        np.multiply(di * i, 1.0 - i, out=dz[:, :hsz])
        if t:
            df = dc * c_prev
            np.multiply(df * f, 1.0 - f, out=dz[:, hsz:2 * hsz])
        else:
            dz[:, hsz:2 * hsz] = 0.0
        np.multiply(dg, 1.0 - g**2, out=dz[:, 2 * hsz:3 * hsz])
        np.multiply(do * o, 1.0 - o, out=dz[:, 3 * hsz:])
        dwx += x_t.T @ dz
        dbias += dz.sum(axis=0)
        dtokens[:, t] = dz @ wx.T
        if t:
            dwh += h_prev.T @ dz
            dh_next = dz @ wh.T
            dc_next = dc * f
    return dtokens, dwx, dwh, dbias


# ----------------------------------------------------------- quantile head

def head_forward(hs, w, b):
    """hs [b x M x H] -> thresholds [b x M], series m through its own
    linear head w[m] [H], b[m]: one matmul stacked over the series axis."""
    pred = np.matmul(hs.transpose(1, 0, 2), w[:, :, None])[:, :, 0]
    pred += b[:, None]
    return np.ascontiguousarray(pred.T), hs


def head_backward(hs, w, dpred):
    """(dhs [b x M x H], dw [M x H], db [M]); each bias gradient is the
    pairwise sum of its contiguous column, as a 1-D .sum() would give."""
    dcol = np.ascontiguousarray(dpred.T)
    dw = np.matmul(hs.transpose(1, 2, 0), dcol[:, :, None])[:, :, 0]
    return dpred[:, :, None] * w, dw, dcol.sum(axis=1)
