"""Finite-difference oracles for every layer's analytic gradients."""

import numpy as np
import pytest

from subnetpred.config import ModelConfig
from subnetpred.model import layers
from subnetpred.model.losses import pinball_grad, pinball_loss
from subnetpred.model.network import backward, forward, init_params
from subnetpred.model.optim import DropoutMasks

RTOL = 1e-4
TINY = ModelConfig(n_series=3, window=5, d_embed=8, n_heads=2, n_layers=2,
                   lstm_hidden=8, dropout=0.0, alpha=0.05)


def central_diff(f, arr, eps=1e-6):
    g = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return g


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


def scalar_loss_setup(seed=0):
    rng = np.random.default_rng(seed)
    params = init_params(TINY, seed=seed)
    x = rng.standard_normal((4, TINY.window, TINY.n_series))
    y = rng.standard_normal((4, TINY.n_series))
    return params, x, y


def loss_of(params, x, y):
    pred, _ = forward(params, TINY, x)
    return pinball_loss(pred, y, TINY.alpha)


def test_every_parameter_gradient_matches_finite_differences():
    params, x, y = scalar_loss_setup()
    pred, cache = forward(params, TINY, x)
    grads = backward(params, TINY, cache, pinball_grad(pred, y, TINY.alpha))
    for name, tensor in params.items():
        numeric = central_diff(lambda: loss_of(params, x, y), tensor)
        assert rel_err(grads[name], numeric) < RTOL, name


def test_attention_rows_are_stochastic():
    rng = np.random.default_rng(2)
    params = init_params(TINY, seed=2)
    tokens = rng.standard_normal((3, TINY.n_series, TINY.d_embed))
    out, cache = layers.attention_forward(
        tokens, params["enc0.wq"], params["enc0.wk"], params["enc0.wv"],
        params["enc0.wo"], params["enc0.bo"], TINY.n_heads)
    attn = cache[4]
    assert np.all(attn >= 0)
    assert np.allclose(attn.sum(axis=-1), 1.0, atol=1e-6)
    assert np.allclose(attn.mean(axis=(0, 1)).sum(axis=-1), 1.0, atol=1e-6)


def test_attention_single_token_is_identity_map():
    cfg = ModelConfig(n_series=1, window=4, d_embed=8, n_heads=2, n_layers=1,
                      lstm_hidden=8, dropout=0.0)
    params = init_params(cfg, seed=0)
    tokens = np.random.default_rng(0).standard_normal((2, 1, cfg.d_embed))
    _, cache = layers.attention_forward(
        tokens, params["enc0.wq"], params["enc0.wk"], params["enc0.wv"],
        params["enc0.wo"], params["enc0.bo"], cfg.n_heads)
    assert np.allclose(cache[4].mean(axis=(0, 1)), [[1.0]])
    assert np.allclose(cache[4], 1.0)


def test_identical_tokens_give_uniform_attention():
    rng = np.random.default_rng(3)
    params = init_params(TINY, seed=3)
    one = rng.standard_normal(TINY.d_embed)
    tokens = np.tile(one, (2, TINY.n_series, 1))
    _, cache = layers.attention_forward(
        tokens, params["enc0.wq"], params["enc0.wk"], params["enc0.wv"],
        params["enc0.wo"], params["enc0.bo"], TINY.n_heads)
    assert np.allclose(cache[4].mean(axis=(0, 1)), 1.0 / TINY.n_series)


def test_layer_norm_moments_and_constant_token():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 3, 16))
    out, _ = layers.layer_norm_forward(x, np.ones(16), np.zeros(16))
    assert np.abs(out.mean(axis=-1)).max() < 1e-6
    assert np.abs(out.var(axis=-1) - 1).max() < 1e-4
    const, _ = layers.layer_norm_forward(np.full((1, 1, 16), 3.7),
                                         np.ones(16), np.zeros(16))
    assert np.allclose(const, 0.0)


def test_lstm_zero_weights_give_zero_hidden():
    d, h = 6, 4
    tokens = np.random.default_rng(5).standard_normal((3, 5, d))
    hs, _ = layers.lstm_forward(tokens, np.zeros((d, 4 * h)),
                                np.zeros((h, 4 * h)), np.zeros(4 * h))
    assert np.allclose(hs, 0.0)


def test_embedding_zero_weights_give_zero_tokens():
    x = np.random.default_rng(6).standard_normal((2, 5, 3))
    tokens, _ = layers.embed_forward(x, np.zeros((3, 5, 8)), np.zeros((3, 8)))
    assert np.allclose(tokens, 0.0)
    assert tokens.shape == (2, 3, 8)


def test_embedding_single_series_shape():
    x = np.random.default_rng(7).standard_normal((4, 6, 1))
    tokens, _ = layers.embed_forward(
        x, np.random.default_rng(8).standard_normal((1, 6, 8)), np.zeros((1, 8)))
    assert tokens.shape == (4, 1, 8)


def test_embedding_permutation_equivariance():
    # permuting series together with their per-series weight blocks permutes
    # the tokens identically
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 5, 4))
    w = rng.standard_normal((4, 5, 8))
    b = rng.standard_normal((4, 8))
    perm = np.array([2, 0, 3, 1])
    base, _ = layers.embed_forward(x, w, b)
    permuted, _ = layers.embed_forward(x[:, :, perm], w[perm], b[perm])
    assert np.allclose(permuted, base[:, perm])


def test_dropout_disabled_at_inference_is_deterministic():
    cfg = ModelConfig(n_series=3, window=5, d_embed=8, n_heads=2, n_layers=1,
                      lstm_hidden=8, dropout=0.5)
    params = init_params(cfg, seed=10)
    x = np.random.default_rng(11).standard_normal((4, cfg.window, cfg.n_series))
    p1, _ = forward(params, cfg, x)
    p2, _ = forward(params, cfg, x)
    assert np.array_equal(p1, p2)
    # training-mode masks differ from inference output
    masks = DropoutMasks(cfg.dropout, 0, 0, 0)
    p3, _ = forward(params, cfg, x, masks)
    assert not np.allclose(p1, p3)


def test_gradient_with_window_centering_matches_fd():
    # the window-mean skip path carries no parameters; analytic parameter
    # gradients stay exact on windows and labels far from zero level
    cfg = ModelConfig(n_series=3, window=5, d_embed=8, n_heads=2, n_layers=1,
                      lstm_hidden=8, dropout=0.0, alpha=0.05)
    params = init_params(cfg, seed=21)
    rng = np.random.default_rng(22)
    x = rng.standard_normal((4, cfg.window, cfg.n_series)) + 3.0
    y = rng.standard_normal((4, cfg.n_series)) + 3.0

    def loss():
        pred, _ = forward(params, cfg, x)
        return pinball_loss(pred, y, cfg.alpha)

    pred, cache = forward(params, cfg, x)
    grads = backward(params, cfg, cache, pinball_grad(pred, y, cfg.alpha))
    for name in ("embed.w", "enc0.wv", "lstm.wh", "head.w", "head.b"):
        numeric = central_diff(loss, params[name])
        assert rel_err(grads[name], numeric) < RTOL, name


def test_centered_forward_tracks_level_shift():
    cfg = ModelConfig(n_series=2, window=6, d_embed=8, n_heads=2, n_layers=1,
                      lstm_hidden=8, dropout=0.0)
    params = init_params(cfg, seed=23)
    x = np.random.default_rng(24).standard_normal((5, cfg.window, cfg.n_series))
    base, _ = forward(params, cfg, x)
    shifted, _ = forward(params, cfg, x + 7.5)
    assert np.allclose(shifted, base + 7.5)


def test_gradient_with_dropout_masks_matches_fd():
    cfg = ModelConfig(n_series=3, window=5, d_embed=8, n_heads=2, n_layers=1,
                      lstm_hidden=8, dropout=0.3, alpha=0.05)
    params = init_params(cfg, seed=12)
    rng = np.random.default_rng(13)
    x = rng.standard_normal((4, cfg.window, cfg.n_series))
    y = rng.standard_normal((4, cfg.n_series))
    masks = DropoutMasks(cfg.dropout, 7, 0, 0)

    def loss():
        pred, _ = forward(params, cfg, x, masks)
        return pinball_loss(pred, y, cfg.alpha)

    pred, cache = forward(params, cfg, x, masks)
    grads = backward(params, cfg, cache, pinball_grad(pred, y, cfg.alpha))
    for name in ("embed.w", "enc0.wq", "lstm.wx", "head.w"):
        numeric = central_diff(loss, params[name])
        assert rel_err(grads[name], numeric) < RTOL, name


@pytest.mark.parametrize("pred,label,alpha,expected", [
    (1.0, 1.0, 0.05, 0.0),
    (2.0, 1.0, 0.05, 0.05),
    (1.0, 2.0, 0.05, 0.95),
])
def test_pinball_loss_values(pred, label, alpha, expected):
    assert pinball_loss(np.array([pred]), np.array([label]), alpha) == pytest.approx(expected)
