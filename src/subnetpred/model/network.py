"""The inverted quantile transformer: parameters, forward, backward.

Architecture: per-series window, centred on its mean -> tanh embedding
token (the whole window is one token; nothing splits it into patches) ->
n_layers of (multi-head attention over series tokens + residual + layer
norm) -> LSTM across the token sequence -> per-series scalar quantile head,
which predicts the offset from that mean.

Parameters live in a flat dict keyed by canonical names; the embedding and
quantile head carry one weight block per series so the U-shaped split
assigns them to clients without weight sharing across clients.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..rng import tagged_rng
from . import layers


def param_names(cfg):
    """Canonical ordered parameter names for one model configuration."""
    names = ["embed.w", "embed.b"]
    for l in range(cfg.n_layers):
        names += [f"enc{l}.wq", f"enc{l}.wk", f"enc{l}.wv", f"enc{l}.wo",
                  f"enc{l}.bo", f"enc{l}.ln_g", f"enc{l}.ln_b"]
    names += ["lstm.wx", "lstm.wh", "lstm.b", "head.w", "head.b"]
    return names


def _xavier(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


def init_params(cfg, seed):
    """Xavier-uniform weights, zero biases, unit layer-norm gains."""
    rng = tagged_rng(seed, "init")
    m, s, d, h = cfg.n_series, cfg.window, cfg.d_embed, cfg.lstm_hidden
    params = {
        "embed.w": _xavier(rng, (m, s, d), s, d),
        "embed.b": np.zeros((m, d)),
    }
    for l in range(cfg.n_layers):
        for nm in ("wq", "wk", "wv", "wo"):
            params[f"enc{l}.{nm}"] = _xavier(rng, (d, d), d, d)
        params[f"enc{l}.bo"] = np.zeros(d)
        params[f"enc{l}.ln_g"] = np.ones(d)
        params[f"enc{l}.ln_b"] = np.zeros(d)
    params["lstm.wx"] = _xavier(rng, (d, 4 * h), d, h)
    params["lstm.wh"] = _xavier(rng, (h, 4 * h), h, h)
    params["lstm.b"] = np.zeros(4 * h)
    params["head.w"] = _xavier(rng, (m, h), h, 1)
    params["head.b"] = np.zeros(m)
    return params


def body_forward(params, cfg, tokens, masks):
    """Encoder stack + LSTM: tokens [b x M x D] -> hidden states [b x M x H]."""
    cache = {"enc": []}
    for l in range(cfg.n_layers):
        att, c_att = layers.attention_forward(
            tokens, params[f"enc{l}.wq"], params[f"enc{l}.wk"],
            params[f"enc{l}.wv"], params[f"enc{l}.wo"],
            params[f"enc{l}.bo"], cfg.n_heads)
        mask = masks.mask(f"enc{l}", att.shape) if masks is not None else None
        if mask is not None:
            mask = mask.astype(att.dtype, copy=False)
            att = att * mask
        normed, c_ln = layers.layer_norm_forward(
            tokens + att, params[f"enc{l}.ln_g"], params[f"enc{l}.ln_b"])
        cache["enc"].append((c_att, mask, c_ln))
        tokens = normed
    hs, c_lstm = layers.lstm_forward(tokens, params["lstm.wx"],
                                     params["lstm.wh"], params["lstm.b"])
    cache["lstm"] = c_lstm
    return hs, cache


def body_backward(params, cfg, cache, dhs):
    grads = {}
    dtokens, grads["lstm.wx"], grads["lstm.wh"], grads["lstm.b"] = \
        layers.lstm_backward(cache["lstm"], params["lstm.wx"],
                             params["lstm.wh"], dhs)
    for l in reversed(range(cfg.n_layers)):
        c_att, mask, c_ln = cache["enc"][l]
        dres, grads[f"enc{l}.ln_g"], grads[f"enc{l}.ln_b"] = \
            layers.layer_norm_backward(c_ln, params[f"enc{l}.ln_g"], dtokens)
        datt = dres if mask is None else dres * mask
        dtok_att, dws, dbo = layers.attention_backward(
            c_att, params[f"enc{l}.wq"], params[f"enc{l}.wk"],
            params[f"enc{l}.wv"], params[f"enc{l}.wo"], cfg.n_heads, datt)
        (grads[f"enc{l}.wq"], grads[f"enc{l}.wk"],
         grads[f"enc{l}.wv"], grads[f"enc{l}.wo"]) = dws
        grads[f"enc{l}.bo"] = dbo
        dtokens = dres + dtok_att
    return dtokens, grads


def client_forward(params, x, masks, first=0):
    """The client half of series first .. first + k - 1: windows x [b x S x k]
    centred, embedded and masked by series i's embed/{i} dropout -> (tokens
    [b x k x D], level [b x k], cache).  forward runs it over all M series,
    a split client over its own, in the same operations and layout."""
    x, level = layers.center_windows(x)
    tokens, c_embed = layers.embed_forward(x, params["embed.w"], params["embed.b"])
    mask = None
    if masks is not None:
        b, k, d = tokens.shape
        cols = [masks.mask(f"embed/{i}", (b, d)) for i in range(first, first + k)]
        if cols[0] is not None:
            mask = np.stack(cols, axis=1).astype(tokens.dtype, copy=False)
            tokens = tokens * mask
    return tokens, level, (c_embed, mask)


def client_backward(cache, dtokens):
    """Gradients (embed.w, embed.b) of the client half, given dloss/dtokens."""
    c_embed, mask = cache
    if mask is not None:
        dtokens = dtokens * mask
    return layers.embed_backward(c_embed, dtokens)


def tail_forward(params, hs, level):
    """The tail half: hidden states hs [b x k x H] through each series' quantile
    head, plus the window level [b x k] -> (predictions [b x k], cache).
    forward runs it over all M series, a split client over its own."""
    pred, cache = layers.head_forward(hs, params["head.w"], params["head.b"])
    return pred + level, cache


def tail_backward(params, cache, dpred):
    """(dhs, head.w, head.b) gradients of the tail half; the level has none."""
    return layers.head_backward(cache, params["head.w"], dpred)


def forward(params, cfg, x, masks=None):
    """Full forward pass: x [b x S x M] -> thresholds [b x M] plus cache.

    masks carries the per-batch dropout factory during training; None means
    deterministic inference.
    """
    if x.ndim != 3 or x.shape[1] != cfg.window or x.shape[2] != cfg.n_series:
        raise ValueError(
            f"expected input [b x {cfg.window} x {cfg.n_series}], got {x.shape}")
    tokens, level, c_client = client_forward(params, x, masks)
    hs, c_body = body_forward(params, cfg, tokens, masks)
    pred, c_head = tail_forward(params, hs, level)
    return pred, {"client": c_client, "body": c_body, "head": c_head}


def backward(params, cfg, cache, dpred):
    """Gradient of a scalar loss w.r.t. every parameter, given dloss/dpred."""
    grads = {}
    dhs, grads["head.w"], grads["head.b"] = tail_backward(params, cache["head"], dpred)
    dtokens, body_grads = body_backward(params, cfg, cache["body"], dhs)
    grads.update(body_grads)
    grads["embed.w"], grads["embed.b"] = client_backward(cache["client"], dtokens)
    return grads


# rows per inference forward.  A forward peaks at about 53 KB per desk
# window in float64, 47 KB of it the backward caches it returns; predict
# keeps one chunk's caches until the next chunk's forward returns, so two
# chunks bound its memory (6.2 MiB at 64 rows).  64 rows take the time of
# 256 on the 9,984 desk windows
PREDICT_BATCH = 64


def predict(params, cfg, x):
    """Deterministic batched inference (dropout disabled)."""
    out = np.empty((x.shape[0], cfg.n_series))
    # the last chunk's caches live until this forward returns, as train
    # keeps its last batch's: freed earlier, glibc's malloc hands their
    # pages back to the OS and every chunk faults them in again (about
    # 108,000 minor faults per 9,984-window desk pass, against 2,000)
    cache = None
    for start in range(0, x.shape[0], PREDICT_BATCH):
        sl = slice(start, start + PREDICT_BATCH)
        out[sl], cache = forward(params, cfg, x[sl])
    return out


def forward_flops(cfg):
    """Analytic multiply-add FLOP count of one forward pass per instance."""
    m, s, d, h = cfg.n_series, cfg.window, cfg.d_embed, cfg.lstm_hidden
    flops = m * (2 * s * d + d)                       # embedding + tanh
    per_layer = (3 * 2 * m * d * d                    # q, k, v projections
                 + 2 * 2 * m * m * d                  # scores and context
                 + 4 * cfg.n_heads * m * m            # softmax
                 + 2 * m * d * d                      # output projection
                 + 10 * m * d)                        # residual + layer norm
    flops += cfg.n_layers * per_layer
    flops += m * (2 * d * 4 * h + 2 * h * 4 * h + 12 * h)   # LSTM gates
    flops += m * 2 * h                                # quantile head
    return flops


def save_checkpoint(stem, params, cfg, seed, extra):
    """Binary parameter blob plus JSON manifest (shapes in canonical order);
    the entries of extra are added to the manifest."""
    stem = Path(stem)
    names = param_names(cfg)
    blob = np.concatenate([params[k].ravel() for k in names])
    blob.astype("<f8").tofile(stem.with_suffix(".bin"))
    manifest = {
        "format": "subnetpred-checkpoint-v1",
        "tensors": [{"name": k, "shape": list(params[k].shape)} for k in names],
        "hyper": asdict(cfg),
        "seed": seed,
        "quantile": 1.0 - cfg.alpha,
        **extra,
    }
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)


def load_checkpoint(stem):
    from ..config import ModelConfig
    stem = Path(stem)
    with open(stem.with_suffix(".json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    cfg = ModelConfig(**manifest["hyper"])
    blob = np.fromfile(stem.with_suffix(".bin"), dtype="<f8")
    params = {}
    pos = 0
    for entry in manifest["tensors"]:
        size = int(np.prod(entry["shape"]))
        params[entry["name"]] = blob[pos:pos + size].reshape(entry["shape"])
        pos += size
    return params, cfg
