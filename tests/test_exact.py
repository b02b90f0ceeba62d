"""Bit-exact contract of the per-cycle decision kernels.

The sigmoid, the layer norm, the LSTM, the blocklength and the calibrated
read-out are written for low per-call overhead.  Each must give the same
bits as the plain formula kept here as its reference, so that results,
checkpoints and loss curves do not depend on the fast form.
"""

import numpy as np
import pytest

from subnetpred import ra
from subnetpred.config import ModelConfig
from subnetpred.model import layers
from subnetpred.model.network import PREDICT_BATCH, forward, init_params, predict
from subnetpred.tailcal import (CalibratedTail, ConformalRecord, GpdTail,
                                calibrated_quantile, gpd_quantile)

BATCHES = (1, 2, 1000)
H = 16


# --------------------------------------------------------------- references

def ref_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def ref_layer_norm_forward(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + layers.LN_EPS)
    xhat = (x - mu) * inv
    return gain * xhat + bias, (xhat, inv)


def ref_layer_norm_backward(cache, gain, dout):
    xhat, inv = cache
    dgain = (dout * xhat).sum(axis=tuple(range(dout.ndim - 1)))
    dbias = dout.sum(axis=tuple(range(dout.ndim - 1)))
    dxhat = dout * gain
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, dgain, dbias


def ref_lstm_hidden(tokens, wx, wh, bias):
    b, m, _ = tokens.shape
    hsz = wh.shape[0]
    h, c = np.zeros((b, hsz)), np.zeros((b, hsz))
    hs = np.empty((b, m, hsz))
    for t in range(m):
        z = tokens[:, t] @ wx + h @ wh + bias
        i = ref_sigmoid(z[:, :hsz])
        f = ref_sigmoid(z[:, hsz:2 * hsz])
        g = np.tanh(z[:, 2 * hsz:3 * hsz])
        o = ref_sigmoid(z[:, 3 * hsz:])
        c = f * c + i * g
        h = o * np.tanh(c)
        hs[:, t] = h
    return hs


def ref_blocklength(snr, payload_bits, eps_target):
    snr = np.asarray(snr, dtype=float)
    c = ra.capacity(snr)
    base = payload_bits / c
    if eps_target == 0.5:
        return base if base.shape else float(base)
    q2 = float(ra.q_inverse(eps_target)) ** 2
    v = ra.dispersion(snr)
    corr = q2 * v / (2.0 * c**2) * (1.0 + np.sqrt(1.0 + 4.0 * payload_bits * c / (q2 * v)))
    out = base + corr
    return out if out.shape else float(out)


def ref_calibrated_quantile(thresholds, calibrated):
    t = np.asarray(thresholds, dtype=float)
    t2 = np.atleast_2d(t.T).T
    out = np.empty_like(t2)
    for m in range(t2.shape[1]):
        margin = gpd_quantile(calibrated.tails[m], 1.0 - calibrated.varsigma)
        out[:, m] = t2[:, m] + margin + calibrated.record.scores[m]
    return out.reshape(t.shape)


def _pre_activations(rng, b, scale=6.0):
    """[b x 4H] gate pre-activations with extreme and signed-zero entries."""
    z = rng.normal(scale=scale, size=(b, 4 * H))
    z.flat[:6] = [0.0, -0.0, 700.0, -700.0, 1e-300, -1e-300]
    return z


# ------------------------------------------------------------------ sigmoid

@pytest.mark.parametrize("b", BATCHES)
def test_sigmoid_matches_masked_reference_and_never_overflows(b):
    z = _pre_activations(np.random.default_rng(b), b)
    with np.errstate(all="raise"):
        got = layers._sigmoid(z)
        want = ref_sigmoid(z)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_sigmoid_saturates_exactly_at_800():
    z = np.array([[800.0, -800.0, 0.0, -0.0, 36.0, -36.0, 746.0, -746.0]])
    # exp(-800) underflows to 0 by design; overflow and NaN must not occur
    with np.errstate(all="raise", under="ignore"):
        got = layers._sigmoid(z)
    assert np.array_equal(got, ref_sigmoid(z))
    assert got[0, 0] == 1.0 and got[0, 1] == 0.0 and got[0, 2] == got[0, 3] == 0.5


@pytest.mark.parametrize("b", BATCHES)
def test_sigmoid_on_strided_slices(b):
    z = _pre_activations(np.random.default_rng(10 + b), b)
    for view in (z[:, H:2 * H], z[:, ::3], z.T, z[::-1, 1::2]):
        assert np.array_equal(layers._sigmoid(view), ref_sigmoid(view))
    assert np.array_equal(layers._sigmoid(z[:, H:2 * H]), ref_sigmoid(z)[:, H:2 * H])


# --------------------------------------------------------------- layer norm

@pytest.mark.parametrize("b", BATCHES)
def test_layer_norm_matches_mean_var_reference(b):
    rng = np.random.default_rng(20 + b)
    x = rng.normal(scale=3.0, size=(b, 5, 32)) + rng.normal(size=(b, 5, 1)) * 50
    gain, bias = rng.normal(size=32), rng.normal(size=32)
    dout = rng.normal(size=x.shape)
    out, cache = layers.layer_norm_forward(x, gain, bias)
    ref_out, ref_cache = ref_layer_norm_forward(x, gain, bias)
    assert np.array_equal(out, ref_out)
    assert all(np.array_equal(a, r) for a, r in zip(cache, ref_cache))
    for got, want in zip(layers.layer_norm_backward(cache, gain, dout),
                         ref_layer_norm_backward(ref_cache, gain, dout)):
        assert np.array_equal(got, want)
    strided = x[:, ::-1, 1::2]
    assert np.array_equal(layers.layer_norm_forward(strided, gain[::2], bias[::2])[0],
                          ref_layer_norm_forward(strided, gain[::2], bias[::2])[0])


# --------------------------------------------------------------------- LSTM

@pytest.mark.parametrize("b", BATCHES)
def test_lstm_one_sigmoid_per_step_matches_three(b):
    rng = np.random.default_rng(30 + b)
    d = 8
    tokens = rng.normal(scale=2.0, size=(b, 4, d))
    wx, wh = rng.normal(size=(d, 4 * H)), rng.normal(size=(H, 4 * H))
    bias = rng.normal(size=4 * H)
    hs, _ = layers.lstm_forward(tokens, wx, wh, bias)
    assert np.array_equal(hs, ref_lstm_hidden(tokens, wx, wh, bias))


# ------------------------------------------------------------------ predict

def test_predict_equals_per_chunk_forwards():
    cfg = ModelConfig(n_series=3, window=6, d_embed=8, n_heads=2, n_layers=1,
                      lstm_hidden=8, dropout=0.1, alpha=0.05)
    params = init_params(cfg, seed=3)
    x = np.random.default_rng(3).normal(size=(1000, cfg.window, cfg.n_series))
    want = np.concatenate([forward(params, cfg, x[s:s + PREDICT_BATCH])[0]
                           for s in range(0, x.shape[0], PREDICT_BATCH)])
    assert np.array_equal(predict(params, cfg, x), want)
    assert np.array_equal(predict(params, cfg, x[:1]), forward(params, cfg, x[:1])[0])


# -------------------------------------------------------------- blocklength

@pytest.mark.parametrize("b", BATCHES)
@pytest.mark.parametrize("eps", [0.5, 0.1, 1e-5, 1e-9])
def test_blocklength_matches_reference(b, eps):
    snr = 10.0 ** np.random.default_rng(b).uniform(-3, 4, size=(b, 1))
    assert np.array_equal(ra.blocklength(snr, 200, eps), ref_blocklength(snr, 200, eps))
    assert np.array_equal(ra.blocklength(snr[::-1, 0], 32, np.float64(eps)),
                          ref_blocklength(snr[::-1, 0], 32, eps))
    scalar = ra.blocklength(float(snr[-1, 0]), 200, eps)
    assert type(scalar) is float and scalar == ref_blocklength(float(snr[-1, 0]), 200, eps)


@pytest.mark.parametrize("snr", [0.0, -1.0, -0.0, np.array([3.0, 0.0]),
                                 np.array([[2.0], [-1e-9]])])
def test_blocklength_rejects_non_positive_snr(snr):
    with pytest.raises(ValueError, match="snr"):
        ra.blocklength(snr, 200, 1e-5)


@pytest.mark.parametrize("eps", [0.0, -1e-5, 0.5000001, 1.0, np.nan])
def test_blocklength_rejects_target_outside_half_open_unit_half(eps):
    with pytest.raises(ValueError, match="eps_target"):
        ra.blocklength(np.array([3.0]), 200, eps)


# ----------------------------------------------------- calibrated read-out

@pytest.mark.parametrize("b", BATCHES)
def test_calibrated_quantile_matches_per_column_loop(b):
    rng = np.random.default_rng(40 + b)
    tails = (GpdTail(0.3, 0.7, 40, -1.0), GpdTail(-0.4, 1.3, 55, -2.0),
             GpdTail(0.0, 0.2, 31, -3.0, fallback=True))
    cal = CalibratedTail(tails=tails,
                         record=ConformalRecord(np.array([0.11, 0.0, 1e-17]),
                                                beta=0.05, n_calibration=100),
                         varsigma=0.37)
    t = rng.normal(size=(b, 3)) * 10.0 ** rng.integers(-8, 8, size=(b, 3))
    t[0] = [-0.0, 800.0, -800.0]
    assert np.array_equal(calibrated_quantile(t, cal), ref_calibrated_quantile(t, cal))
    view = np.asfortranarray(t)[::-1]
    assert np.array_equal(calibrated_quantile(view, cal),
                          ref_calibrated_quantile(view, cal))
