"""Bit-exact contract of the per-cycle decision kernels and the simulator.

The sigmoid, the layer norm, the LSTM with its zero-state steps, the
attention softmax sums, the series-stacked embedding and quantile head,
the dropout masks, the blocklength, the calibrated read-out and the
batched Wiener refit are written for low per-call overhead.  Each must
give the same bits as the plain formula kept here as its reference, so
that results, checkpoints and loss curves do not depend on the fast form.
The blocklength keeps its bits whatever targets, SINRs and payloads come
before a call, and a scheduler's row-by-row sizing equals the batched call.
The Adam step is pinned to its textbook form the same way, for any later
rewrite of it.  The same holds for the interference simulator: its
block form, one fill per stream and block, must give the traces of the
cycle-by-cycle loop with the scalar mobility kernels and per-cycle channel
and traffic updates kept here, drawing from the same four streams; one
generator fill must give the draws of the smaller calls it replaces, and
free runs of rdmm steps must give the positions, headings and draws of
stepping every cycle.  The push bursts of a block, found in one scan,
must be those of the per-cycle recurrence.
"""

from dataclasses import dataclass, replace

import numpy as np
import pytest

from subnetpred import pipeline, ra
from subnetpred.config import ModelConfig, TrafficModel, desk_preset, tiny_preset
from subnetpred.model import baselines, layers
from subnetpred.model.network import PREDICT_BATCH, forward, init_params, predict
from subnetpred.model.optim import Adam, DropoutMasks
from subnetpred.rng import tagged_rng
from subnetpred.scenario import channel as ch
from subnetpred.scenario.deploy import MobilityState, deploy, disc_offsets
from subnetpred.scenario.mobility import (N_ALLEY_LOOPS, alley_centers,
                                          build_alley_layout, free_run, step_mobility)
from subnetpred.scenario.simulate import (BLOCK, HORIZON, interferer_set,
                                          simulate_trace, subband_assignment)
from subnetpred.scenario.traffic import (TrafficProcess, push_start_probability,
                                         push_stop_probability)
from subnetpred.tailcal import (CalibratedTail, GpdTail, calibrated_quantile,
                                gpd_quantile)

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


def ref_lstm_forward(tokens, wx, wh, bias):
    """Hidden states and per-step caches of the textbook recurrence: three
    sigmoids per step, and h @ wh and f * c at every step, the first too."""
    b, m, _ = tokens.shape
    hsz = wh.shape[0]
    h, c = np.zeros((b, hsz)), np.zeros((b, hsz))
    hs = np.empty((b, m, hsz))
    steps = []
    for t in range(m):
        z = tokens[:, t] @ wx + h @ wh + bias
        i = ref_sigmoid(z[:, :hsz])
        f = ref_sigmoid(z[:, hsz:2 * hsz])
        g = np.tanh(z[:, 2 * hsz:3 * hsz])
        o = ref_sigmoid(z[:, 3 * hsz:])
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        steps.append((tokens[:, t], h, c, i, f, g, o, tc))
        h, c = o * tc, c_new
        hs[:, t] = h
    return hs, steps


def ref_blocklength(snr, payload_bits, eps_target):
    snr = np.asarray(snr, dtype=float)
    c = np.log2(1.0 + snr)
    base = payload_bits / c
    if eps_target == 0.5:
        return base if base.shape else float(base)
    q2 = float(ra.q_inverse(eps_target)) ** 2
    v = (1.0 - (1.0 + snr) ** -2) * np.log2(np.e) ** 2
    corr = q2 * v / (2.0 * c**2) * (1.0 + np.sqrt(1.0 + 4.0 * payload_bits * c / (q2 * v)))
    out = base + corr
    return out if out.shape else float(out)


def ref_evaluate_ra(pred_w, true_w, signal_w, noise_w, payload_bits, eps_targets):
    """evaluate_ra's rows from ref_blocklength, with C and V formed here."""
    sig = np.broadcast_to(np.asarray(signal_w, dtype=float), pred_w.shape)
    snr_hat, snr_true = sig / (pred_w + noise_w), sig / (true_w + noise_w)
    c_true = np.log2(1.0 + snr_true)
    v_true = (1.0 - (1.0 + snr_true) ** -2) * np.log2(np.e) ** 2
    rows = []
    for eps in eps_targets:
        r_real = ref_blocklength(snr_hat, payload_bits, eps)
        r_int = np.maximum(np.ceil(r_real), 1.0)
        margin = (r_int * c_true - payload_bits) / np.sqrt(r_int * v_true)
        r_genie = ref_blocklength(snr_true, payload_bits, eps)
        rows.append({"eps_target": float(eps),
                     "frac_met": float((margin >= ra.q_inverse(eps)).mean()),
                     "mean_overhead": float(r_real.sum() / r_genie.sum()),
                     "mean_instance_overhead": float((r_real / r_genie).mean())})
    return rows


def ref_calibrated_quantile(thresholds, calibrated):
    t = np.asarray(thresholds, dtype=float)
    t2 = np.atleast_2d(t.T).T
    out = np.empty_like(t2)
    for m in range(t2.shape[1]):
        margin = gpd_quantile(calibrated.tails[m], 1.0 - calibrated.varsigma)
        out[:, m] = t2[:, m] + margin + calibrated.scores[m]
    return out.reshape(t.shape)


class RefAdam:
    """The textbook Adam step, one expression per moment and update."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads):
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for key, g in grads.items():
            m = self.m[key]
            v = self.v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            params[key] -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def ref_autocorrelation(x, max_lag):
    x = np.asarray(x, dtype=float)
    n = x.size
    r = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        r[k] = (x[:n - k] * x[k:]).sum() / n
    return r


def ref_levinson_durbin(r, order, ridge=1e-8, exits=None):
    """exits counts the recursions stopped by |k| >= 1 (or a non-finite k)
    and by err <= 0."""
    r = np.asarray(r, dtype=float).copy()
    r[0] += ridge * max(r[0], 1.0)
    a = np.zeros(order)
    err = r[0]
    for i in range(order):
        acc = r[i + 1] - np.dot(a[:i], r[i:0:-1])
        k = acc / err
        if not np.isfinite(k) or abs(k) >= 1.0:
            if exits is not None:
                exits["k"] += 1
            break
        a_new = a.copy()
        a_new[i] = k
        a_new[:i] = a[:i] - k * a[:i][::-1]
        a = a_new
        err *= (1.0 - k * k)
        if err <= 0:
            if exits is not None:
                exits["err"] += 1
            break
    return a


def ref_wiener_predict(series, t_indices, order):
    """The per-point refit: one window, one recursion, one dot per point."""
    s = np.asarray(series, dtype=float).ravel()
    hist = 4 * (order + 1)
    preds = np.empty(len(t_indices))
    for j, t in enumerate(t_indices):
        window = s[max(t - hist, 0):t]
        if np.all(window == window[-1]):
            preds[j] = window[-1]
            continue
        a = ref_levinson_durbin(ref_autocorrelation(window, order), order)
        preds[j] = float(np.dot(a, s[t - 1:t - order - 1:-1]))
    return preds


def ref_attention_forward(tokens, wq, wk, wv, wo, bo, n_heads):
    """(out, attn) with the softmax row max as one .max(axis=-1)."""
    q = layers._split_heads(tokens @ wq, n_heads)
    k = layers._split_heads(tokens @ wk, n_heads)
    v = layers._split_heads(tokens @ wv, n_heads)
    scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(q.shape[-1])
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    attn = e / e.sum(axis=-1, keepdims=True)
    return layers._merge_heads(attn @ v) @ wo + bo, attn


def ref_lstm_backward(steps, wx, wh, dhs):
    """The LSTM backward over ref_lstm_forward's steps, with the gate blocks
    of dz concatenated per step and every zero-state term formed."""
    b, hsz, m = dhs.shape[0], wh.shape[0], dhs.shape[1]
    dwx, dwh, dbias = np.zeros_like(wx), np.zeros_like(wh), np.zeros(4 * hsz)
    dtokens = np.empty((b, m, wx.shape[0]))
    dh_next, dc_next = np.zeros((b, hsz)), np.zeros((b, hsz))
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


# The per-series loops the stacked embedding and head replace.  Each hands
# BLAS the series' column contiguous, as a split client holds it: at batch 1
# (the embedding) and for the head's dpred column, OpenBLAS's gemv gives
# other bits for a strided vector than a contiguous one at lengths 2 and 3
# mod 4 (the SkylakeX and Haswell kernels), so a loop over strided columns
# of the centralized batch did not match its own split clients there.

def ref_embed_forward(x, w, b):
    tokens = np.empty((x.shape[0], x.shape[2], w.shape[2]))
    for i in range(x.shape[2]):
        tokens[:, i] = np.tanh(np.ascontiguousarray(x[:, :, i]) @ w[i] + b[i])
    return tokens


def ref_embed_backward(x, tokens, dtokens):
    m, d = x.shape[2], tokens.shape[2]
    dw, db = np.empty((m, x.shape[1], d)), np.empty((m, d))
    for i in range(m):
        dpre = dtokens[:, i] * (1.0 - tokens[:, i]**2)
        dw[i] = np.ascontiguousarray(x[:, :, i]).T @ dpre
        db[i] = dpre.sum(axis=0)
    return dw, db


def ref_head_forward(hs, w, b):
    pred = np.empty(hs.shape[:2])
    for i in range(hs.shape[1]):
        pred[:, i] = hs[:, i] @ w[i] + b[i]
    return pred


def ref_head_backward(hs, w, dpred):
    dhs, dw, db = np.empty_like(hs), np.empty_like(w), np.empty(hs.shape[1])
    for i in range(hs.shape[1]):
        col = np.ascontiguousarray(dpred[:, i])
        dhs[:, i] = np.outer(col, w[i])
        dw[i] = hs[:, i].T @ col
        db[i] = col.sum()
    return dhs, dw, db


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

def _check_lstm_against_reference(b, m, seed):
    rng = np.random.default_rng(seed)
    d = 8
    tokens = rng.normal(scale=2.0, size=(b, m, d))
    wx, wh = rng.normal(size=(d, 4 * H)), rng.normal(size=(H, 4 * H))
    bias = rng.normal(size=4 * H)
    hs, steps = layers.lstm_forward(tokens, wx, wh, bias)
    ref_hs, ref_steps = ref_lstm_forward(tokens, wx, wh, bias)
    assert np.array_equal(hs, ref_hs)
    dhs = rng.normal(size=hs.shape)
    for got, want in zip(layers.lstm_backward(steps, wx, wh, dhs),
                         ref_lstm_backward(ref_steps, wx, wh, dhs)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("b", BATCHES)
def test_lstm_one_sigmoid_per_step_matches_three(b):
    _check_lstm_against_reference(b, 4, 30 + b)


@pytest.mark.parametrize("b", (1, 2, 3, 128))
@pytest.mark.parametrize("m", [1, 4, 7])
def test_lstm_zero_state_steps_match_full_recurrence(b, m):
    # step 0 forms neither h @ wh nor f * c, and its backward neither dwh
    # nor the gradient it would pass back; the last step adds no zeros
    _check_lstm_against_reference(b, m, 40 + b + m)


# ------------------------------------------------ embedding and quantile head

SERIES_BATCHES = (1, 2, 3, 6, 32, 1000)


def _series_inputs(rng, b, m, s, layout, d=16):
    """Windows, hidden states and upstream gradients in the given layout:
    contiguous, or reversed along the batch and strided along the other axes."""
    if layout == "contiguous":
        x = rng.normal(size=(b, s, m))
        hs = rng.normal(size=(b, m, H))
        dtokens, dpred = rng.normal(size=(b, m, d)), rng.normal(size=(b, m))
    else:
        x = rng.normal(size=(b, 2 * s, m + 2))[::-1, ::2, 1:m + 1]
        hs = rng.normal(size=(b, 2 * m, H))[::-1, ::2]
        dtokens = rng.normal(size=(b, m, 2 * d))[::-1, :, ::2]
        dpred = rng.normal(size=(b, 2 * m))[::-1, ::2]
    w, bias = rng.normal(scale=0.3, size=(m, s, d)), rng.normal(size=(m, d))
    return x, w, bias, dtokens, hs, rng.normal(size=(m, H)), rng.normal(size=m), dpred


@pytest.mark.parametrize("b", SERIES_BATCHES)
@pytest.mark.parametrize("m", [1, 4, 7])
@pytest.mark.parametrize("s", [6, 16])
@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_stacked_embed_and_head_match_per_series_loops(b, m, s, layout):
    rng = np.random.default_rng(70 + b + 10 * m + s)
    x, w, bias, dtokens, hs, hw, hb, dpred = _series_inputs(rng, b, m, s, layout)
    tokens, cache = layers.embed_forward(x, w, bias)
    ref_tokens = ref_embed_forward(x, w, bias)
    assert np.array_equal(tokens, ref_tokens) and tokens.flags.c_contiguous
    for got, want in zip(layers.embed_backward(cache, dtokens),
                         ref_embed_backward(x, ref_tokens, dtokens)):
        assert np.array_equal(got, want)
    pred, _ = layers.head_forward(hs, hw, hb)
    assert np.array_equal(pred, ref_head_forward(hs, hw, hb)) and pred.flags.c_contiguous
    for got, want in zip(layers.head_backward(hs, hw, dpred),
                         ref_head_backward(hs, hw, dpred)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("b", (1, 2, 3, 6, 7, 32))
@pytest.mark.parametrize("s", [6, 7, 16])
def test_one_series_call_equals_its_column_of_the_stacked_call(b, s):
    # a split client's call: its windows [b x S x 1], weights [1 x ...], the
    # token gradient and hidden state it receives, its own dpred column
    m = 4
    rng = np.random.default_rng(90 + b + s)
    x, w, bias, dtokens, hs, hw, hb, dpred = _series_inputs(rng, b, m, s, "contiguous")
    tokens, cache = layers.embed_forward(x, w, bias)
    dw, db = layers.embed_backward(cache, dtokens)
    pred, _ = layers.head_forward(hs, hw, hb)
    dhs, dhw, dhb = layers.head_backward(hs, hw, dpred)
    for i in range(m):
        one = slice(i, i + 1)
        t_i, cache_i = layers.embed_forward(x[:, :, one].copy(), w[one], bias[one])
        assert np.array_equal(t_i[:, 0], tokens[:, i])
        dw_i, db_i = layers.embed_backward(cache_i, dtokens[:, i][:, None])
        assert np.array_equal(dw_i[0], dw[i]) and np.array_equal(db_i[0], db[i])
        h_i = hs[:, i][:, None]
        assert np.array_equal(layers.head_forward(h_i, hw[one], hb[one])[0][:, 0], pred[:, i])
        dh_i, dhw_i, dhb_i = layers.head_backward(h_i, hw[one], dpred[:, one].copy())
        assert np.array_equal(dh_i[:, 0], dhs[:, i])
        assert np.array_equal(dhw_i[0], dhw[i]) and dhb_i[0] == dhb[i]


# ---------------------------------------------------------------- attention

@pytest.mark.parametrize("b", BATCHES)
@pytest.mark.parametrize("m", [1, 4, 7])
def test_attention_row_max_matches_max_reduction(b, m):
    rng = np.random.default_rng(60 + b + m)
    d, n_heads = 16, 4
    tokens = rng.normal(scale=3.0, size=(b, m, d))
    wq, wk, wv, wo = (rng.normal(size=(d, d)) for _ in range(4))
    bo = rng.normal(size=d)
    out, cache = layers.attention_forward(tokens, wq, wk, wv, wo, bo, n_heads)
    ref_out, ref_attn = ref_attention_forward(tokens, wq, wk, wv, wo, bo, n_heads)
    assert np.array_equal(out, ref_out)
    assert np.array_equal(cache[4], ref_attn)


@pytest.mark.parametrize("b", (1, 2, 3, 128))
@pytest.mark.parametrize("m", range(1, 8))
def test_key_by_key_sum_matches_add_reduce(b, m):
    # the softmax denominator and the dscores row sum, [b x heads x M x M]
    x = np.exp(np.random.default_rng(80 + b + m).normal(scale=3.0, size=(b, 4, m, m)))
    assert np.array_equal(layers._key_sum(x)[..., None],
                          np.add.reduce(x, axis=-1, keepdims=True))


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


# ---------------------------------------------------------- dropout masks

@pytest.mark.parametrize("rate", [0.05, 0.1, 1 / 3, 0.5, 0.9])
def test_dropout_mask_equals_keep_over_one_minus_rate(rate):
    shape = (128, 4, 64)
    got = DropoutMasks(rate, 5, 2, 9).mask("enc0", shape)
    want = (tagged_rng(5, "dropout", 2, 9, "enc0").random(shape) >= rate) / (1 - rate)
    assert got.tobytes() == want.tobytes()


# --------------------------------------------------------------------- Adam

def test_adam_matches_textbook_step_on_every_tensor_rank():
    rng = np.random.default_rng(50)
    # a 0-d tensor whose gradient is a numpy scalar
    shapes = {"b0": (), "b1": (7,), "w3": (3, 5, 4)}
    params = {k: rng.normal(size=s) for k, s in shapes.items()}
    params["b0"] = np.array(0.3)
    ref_params = {k: v.copy() for k, v in params.items()}
    opt, ref = Adam(params, lr=1e-2), RefAdam(ref_params, lr=1e-2)
    for step, lr in enumerate((1e-2, 1e-2, 3e-3, 1e-3, 2.5e-4)):
        grads = {k: rng.normal(scale=10.0 ** (step - 2), size=s)
                 for k, s in shapes.items()}
        grads["b0"] = grads["b0"].sum()
        grads["w3"].flat[:2] = [0.0, -0.0]
        opt.lr = ref.lr = lr
        opt.step(params, grads)
        ref.step(ref_params, grads)
        for k in shapes:
            assert np.array_equal(params[k], ref_params[k]), (step, k)
            assert np.array_equal(opt.m[k], ref.m[k])
            assert np.array_equal(opt.v[k], ref.v[k])
    assert params["b0"].shape == ()


# ------------------------------------------------------------------- Wiener

@pytest.fixture(scope="module")
def desk_series():
    """A desk trace's interference-to-noise ratios in dB, as the pipeline
    hands them to the baselines."""
    trace = simulate_trace(DESK.deployment, DESK.traffic, DESK.channel, 900, DESK.seed,
                           "rdmm")
    floor = max(DESK.channel.power_floor_w, trace.noise_power * 0.1)
    return trace.est_dbm(floor=floor) - (10.0 * np.log10(trace.noise_power) + 30.0)


@pytest.mark.parametrize("order", [1, 4, 16])
def test_wiener_matches_per_point_refit(desk_series, order):
    # from the first allowed point on, so the short windows (t < history)
    # are covered.  Both flat stretches hold their level: the start at the
    # dB floor, and a stretch at a level whose window variance does not
    # round to zero (its mean can round off the level).
    t = np.arange(order + 1, desk_series.shape[1])
    hist = 4 * (order + 1)
    for m, series in enumerate(desk_series):
        series = series.copy()
        if m == 0:
            series[:40] = -10.0
            series[500:600] = series[500]
        got = baselines.wiener_predict(series, t, order)
        assert np.array_equal(got, ref_wiener_predict(series, t, order)), m
        if m == 0:
            assert np.all(got[t <= 40] == -10.0)
            inside = (t - hist >= 500) & (t <= 600)
            assert inside.any() and np.all(got[inside] == series[500])


def test_autocorrelation_rows_match_one_window_calls(desk_series):
    windows = np.lib.stride_tricks.sliding_window_view(desk_series[1], 68)[::7]
    got = baselines.autocorrelation(windows, 16)
    assert got.shape == (windows.shape[0], 17)
    for row, window in zip(got, windows):
        assert np.array_equal(row, ref_autocorrelation(window, 16))
    assert np.array_equal(baselines.autocorrelation(windows[3], 16), got[3])


def test_levinson_durbin_rows_match_one_row_solves_through_early_exits(desk_series):
    order = 16
    windows = np.lib.stride_tricks.sliding_window_view(desk_series[2], 68)[::5]
    lags = [ref_autocorrelation(w, order) for w in windows]
    lags += [
        np.r_[1.0, 0.9, -0.9, np.zeros(order - 2)],    # |k| >= 1 at step 1
        np.r_[1.0, np.nan, np.zeros(order - 1)],        # non-finite k at step 0
        np.r_[-1.0, 0.5, np.zeros(order - 1)],          # err <= 0 after step 0
        np.r_[-1.0, 0.5, 0.2, np.zeros(order - 2)],
    ]
    r = np.array(lags)
    exits = {"k": 0, "err": 0}
    want = np.array([ref_levinson_durbin(row, order, exits=exits) for row in r])
    assert exits["k"] >= 2 and exits["err"] >= 2
    got = baselines.levinson_durbin(r, order)
    assert np.array_equal(got, want)
    # each exit keeps the partial model built before it
    assert got[-4, 0] != 0.0 and not got[-4, 1:].any()
    assert not got[-3].any()
    assert got[-2, 0] != 0.0 and not got[-2, 1:].any()
    for row, a in zip(r, want):
        assert np.array_equal(baselines.levinson_durbin(row, order), a)


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


# the targets a decision sizes, and the one without a dispersion correction
DECISION_EPS = (1e-5, 1e-6, 1e-7, 0.5)


@pytest.mark.parametrize("b", BATCHES)
@pytest.mark.parametrize("payload", [32, 200])
def test_blocklength_targets_in_any_order_match_reference(b, payload):
    rng = np.random.default_rng(10 * b + payload)
    snr, other = 10.0 ** rng.uniform(-3, 4, size=(2, b))
    want = {eps: ref_blocklength(snr, payload, eps) for eps in DECISION_EPS}
    want_other = {eps: ref_blocklength(other, payload, eps) for eps in DECISION_EPS}
    for order in (DECISION_EPS, DECISION_EPS[::-1]):
        for eps in order:
            assert np.array_equal(ra.blocklength(snr, payload, eps), want[eps])
    # evaluate_ra's order: the predicted and the true SINR in turn per target
    for eps in DECISION_EPS:
        assert np.array_equal(ra.blocklength(snr, payload, eps), want[eps])
        assert np.array_equal(ra.blocklength(other, payload, eps), want_other[eps])
    # the payload is part of what the SINR's terms are kept for
    for eps in DECISION_EPS:
        assert np.array_equal(ra.blocklength(snr, 232 - payload, eps),
                              ref_blocklength(snr, 232 - payload, eps))
        assert np.array_equal(ra.blocklength(snr, payload, eps), want[eps])


def test_blocklength_sees_a_sinr_changed_in_place():
    snr = np.array([0.5, 3.0, 40.0])
    first = ra.blocklength(snr, 200, 1e-5)
    snr[1] = 7.0
    second = ra.blocklength(snr, 200, 1e-5)
    assert np.array_equal(second, ref_blocklength(snr, 200, 1e-5))
    assert second[1] < first[1] and second[[0, 2]].tolist() == first[[0, 2]].tolist()


def test_blocklength_keeps_the_shape_of_each_input_with_equal_bytes():
    flat = np.array([0.5, 3.0, 40.0, 900.0])
    # equal bytes as [4] and [2 x 2], and as [1], 0-d and a float
    inputs = (flat, flat.reshape(2, 2), flat[:1], flat[:1].reshape(()), 0.5, flat)
    for eps in DECISION_EPS + DECISION_EPS[::-1]:
        for snr in inputs:
            got = ra.blocklength(snr, 200, eps)
            want = ref_blocklength(snr, 200, eps)
            if np.ndim(snr):
                assert got.shape == np.shape(snr) and np.array_equal(got, want)
            else:
                assert type(got) is float and got == want


@pytest.mark.parametrize("eps", [0.5, 1e-5])
def test_a_mutated_result_leaves_the_next_call_alone(eps):
    snr = np.array([0.5, 3.0, 40.0])
    got = ra.blocklength(snr, 200, eps)
    got[:] = -1.0
    assert np.array_equal(ra.blocklength(snr, 200, eps), ref_blocklength(snr, 200, eps))
    for other in DECISION_EPS:
        assert np.array_equal(ra.blocklength(snr, 200, other),
                              ref_blocklength(snr, 200, other))


def test_a_non_positive_sinr_after_a_valid_one_of_its_shape_still_raises():
    snr = np.array([2.0, 3.0])
    ra.blocklength(snr, 200, 1e-5)
    with pytest.raises(ValueError, match="snr"):
        ra.blocklength(np.array([2.0, 0.0]), 200, 1e-5)
    snr[0] = -2.0
    with pytest.raises(ValueError, match="snr"):
        ra.blocklength(snr, 200, 1e-5)
    # the SINR is checked before the target
    with pytest.raises(ValueError, match="snr"):
        ra.blocklength(snr, 200, 0.7)


def test_the_table_holds_two_sinrs_and_the_rows_asked_near_them():
    # a new SINR is sized at the targets asked at the one before it, so a
    # caller that asks each SINR at another target keeps a few rows, not all
    rng = np.random.default_rng(12)
    for k, eps in enumerate(10.0 ** -rng.uniform(1.0, 9.0, 40)):
        snr = 10.0 ** rng.uniform(-3, 4, 8)
        got = ra.blocklength(snr, 200, eps)
        assert np.array_equal(got, ref_blocklength(snr, 200, eps))
        assert len(ra._TABLE) <= 2
        for _, rows, _ in ra._TABLE.values():
            assert not any(np.shares_memory(got, row) for row in rows.values())
            # once both SINRs are this loop's: the SINR's own target and
            # the one asked at the SINR before it
            assert k < 2 or len(rows) <= 2
    # a decision's first call on a new SINR sizes the targets asked at the
    # SINR before it, so its further calls find their rows
    first, second = 10.0 ** rng.uniform(-3, 4, (2, 8))
    for eps in DECISION_EPS[:3]:
        ra.blocklength(first, 200, eps)
    ra.blocklength(second, 200, DECISION_EPS[1])
    assert sorted(ra._TABLE[second.tobytes(), second.shape, 200][1]) == [1e-7, 1e-6, 1e-5]


def test_evaluate_ra_at_desk_shape_equals_the_reference_evaluate():
    rng = np.random.default_rng(13)
    true_w = 10.0 ** rng.uniform(-12, -6, (2000, 4))
    sig = 10.0 ** rng.uniform(-7, -4, 4)
    spec, noise = desk_preset(seed=0), 1e-12
    for pred_w in (true_w * 10.0 ** rng.normal(0.0, 0.3, true_w.shape),
                   true_w * 10.0 ** rng.normal(0.1, 0.3, true_w.shape)):
        for targets in (spec.eps_targets, spec.eps_targets[::-1]):
            assert (ra.evaluate_ra(pred_w, true_w, sig, noise, spec.payload_bits, targets)
                    == ref_evaluate_ra(pred_w, true_w, sig, noise, spec.payload_bits,
                                       targets))


@pytest.mark.parametrize("variant", ["genie", "moving-average"])
def test_decisions_sized_target_by_target_equal_the_batched_blocklength(tmp_path,
                                                                         variant):
    # a scheduler sizes each cycle's SINR row once per target, in order
    spec = replace(tiny_preset(seed=0), variant=variant)
    trace = pipeline.stage_simulate(spec, tmp_path)
    ds = pipeline.stage_prepare(spec, tmp_path, trace)
    pred_w = 10.0 ** (pipeline.predictions_dbm(spec, tmp_path, trace, ds, variant)
                      / 10.0) * 1e-3
    sig, noise = trace.signal_power, trace.noise_power
    decided = np.array([[ra.blocklength(sig / (row + noise), spec.payload_bits, eps)
                         for eps in spec.eps_targets] for row in pred_w])
    snr = sig / (pred_w + noise)
    assert decided.shape == (spec.n_test, len(spec.eps_targets), snr.shape[1])
    for k, eps in enumerate(spec.eps_targets):
        assert np.array_equal(decided[:, k], ra.blocklength(snr, spec.payload_bits, eps))


# bound of the per-decision vs batched thresholds, as perfbench checks them:
# one window alone and a batch of them take other BLAS paths; the largest
# difference seen on this tiny run is 8.9e-16, with 61% of thresholds equal
DECISION_ATOL = 1e-12


def test_batch_one_decisions_reproduce_the_batched_pass(tmp_path):
    # a scheduler predicts one window, or one cycle of one series, at a time
    spec = replace(tiny_preset(seed=0), variant="iqpt")
    trace = pipeline.stage_simulate(spec, tmp_path)
    ds = pipeline.stage_prepare(spec, tmp_path, trace)
    params, cfg = pipeline.stage_train(spec, tmp_path, ds)
    sx = ds.test()[0]
    batched = predict(params, cfg, sx)
    alone = np.concatenate([predict(params, cfg, sx[j:j + 1]) for j in range(len(sx))])
    assert alone.shape == batched.shape == (spec.n_test, cfg.n_series)
    assert np.abs(alone - batched).max() <= DECISION_ATOL

    noise_dbm = 10.0 * np.log10(trace.noise_power) + 30.0
    inr = pipeline._learning_dbm(spec, trace) - noise_dbm
    cycles = ds.test_label_cycles()
    decided = noise_dbm + np.array(
        [[baselines.moving_average_predict(inr[m], (t,))[0] for m in range(inr.shape[0])]
         for t in cycles])
    want = pipeline.predictions_dbm(spec, tmp_path, trace, ds, "moving-average")
    assert np.array_equal(decided, want)


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
             GpdTail(0.0, 0.2, 31, -3.0))
    cal = CalibratedTail(tails=tails, scores=np.array([0.11, 0.0, 1e-17]),
                         beta=0.05, n_train=2000, n_calibration=100, varsigma=0.37)
    t = rng.normal(size=(b, 3)) * 10.0 ** rng.integers(-8, 8, size=(b, 3))
    t[0] = [-0.0, 800.0, -800.0]
    assert np.array_equal(calibrated_quantile(t, cal), ref_calibrated_quantile(t, cal))
    view = np.asfortranarray(t)[::-1]
    assert np.array_equal(calibrated_quantile(view, cal),
                          ref_calibrated_quantile(view, cal))


# ---------------------------------------------------- simulator references

def ref_reflect(coord, heading_comp, lo, hi):
    flipped = False
    if coord < lo:
        coord = 2.0 * lo - coord
        flipped = True
    elif coord > hi:
        coord = 2.0 * hi - coord
        flipped = True
    return coord, -heading_comp if flipped else heading_comp


def ref_propose(positions, headings, step, bounds, hits):
    """hits["reflect"] counts the coordinates reflected at the border."""
    lo_x, lo_y, hi_x, hi_y = bounds
    cand = positions + step * np.stack([np.cos(headings), np.sin(headings)], axis=1)
    new_head = headings.copy()
    for i in range(cand.shape[0]):
        cx, hx = ref_reflect(cand[i, 0], np.cos(new_head[i]), lo_x, hi_x)
        cy, hy = ref_reflect(cand[i, 1], np.sin(new_head[i]), lo_y, hi_y)
        hits["reflect"] += (cx != cand[i, 0]) + (cy != cand[i, 1])
        cand[i] = (cx, cy)
        new_head[i] = np.arctan2(hy, hx)
    return cand, new_head


def ref_step_rdmm(state, speed, dt, min_distance, rng, hits, max_retries=8):
    """hits counts the border reflections, the collision retries and the
    exhausted retry budgets."""
    step = speed * dt
    if step == 0.0:
        return state
    pos = state.positions
    head = state.headings.copy()
    cand, cand_head = ref_propose(pos, head, step, state.bounds, hits)
    guard = min_distance + 2.0 * step
    for _ in range(max_retries):
        dist = np.linalg.norm(cand[:, None, :] - cand[None, :, :], axis=-1)
        np.fill_diagonal(dist, np.inf)
        bad = (dist < guard).any(axis=1)
        if not bad.any():
            break
        hits["retry"] += 1
        head[bad] = rng.uniform(0.0, 2.0 * np.pi, int(bad.sum()))
        redo, redo_head = ref_propose(pos[bad], head[bad], step, state.bounds, hits)
        cand[bad] = redo
        cand_head[bad] = redo_head
    else:
        hits["exhausted"] += 1
        dist = np.linalg.norm(cand[:, None, :] - cand[None, :, :], axis=-1)
        np.fill_diagonal(dist, np.inf)
        bad = (dist < guard).any(axis=1)
        cand[bad] = pos[bad]
    return replace(state, positions=cand, headings=cand_head)


def ref_point_at(layout, k, s):
    cum = layout.cum_lengths[k]
    verts = layout.loops[k]
    s = s % cum[-1]
    seg = int(np.searchsorted(cum, s, side="right")) - 1
    seg = min(seg, len(verts) - 2)
    a, b = verts[seg], verts[seg + 1]
    frac = (s - cum[seg]) / (cum[seg + 1] - cum[seg])
    return a + frac * (b - a)


@dataclass
class RefAlley:
    """The reference's alley state: the centers, the SA offsets, and each
    sub-network's loop and arc length on the layout."""

    positions: np.ndarray
    offsets: np.ndarray
    path_ids: np.ndarray
    arc_positions: np.ndarray
    layout: object


def ref_deploy_alley(config, rng):
    layout = build_alley_layout(config.area, margin=max(config.sn_radius * 2, 5.0))
    n_loops = len(layout.loops)
    n = config.n_subnetworks
    path_ids = np.arange(n) % n_loops
    arc = np.empty(n)
    positions = np.empty((n, 2))
    per_loop = np.bincount(path_ids, minlength=n_loops)
    seen = np.zeros(n_loops, dtype=int)
    for i in range(n):
        k = path_ids[i]
        arc[i] = seen[k] * layout.cum_lengths[k][-1] / max(per_loop[k], 1)
        seen[k] += 1
        positions[i] = ref_point_at(layout, k, arc[i])
    offsets = disc_offsets(n, config.sa_pairs_per_sn, config.sn_radius, rng)
    return RefAlley(positions=positions, offsets=offsets, path_ids=path_ids,
                    arc_positions=arc, layout=layout)


def ref_step_alley(state, speed, dt):
    arc = state.arc_positions + speed * dt
    positions = np.empty_like(state.positions)
    for i in range(positions.shape[0]):
        positions[i] = ref_point_at(state.layout, state.path_ids[i], arc[i])
    return replace(state, positions=positions, arc_positions=arc)


def ref_ar1_advance(values, std, decorrelation, displacement, rng):
    a = np.exp(-np.asarray(displacement, dtype=float) / decorrelation)
    noise = rng.standard_normal(values.shape)
    return a * values + np.sqrt(1.0 - a**2) * std * noise


def ref_complex_normal(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def ref_complex_advance(values, rho, rng):
    return rho * values + np.sqrt(1.0 - rho**2) * ref_complex_normal(rng, values.shape)


def ref_traffic_step(traffic, activity, start, stop, rng):
    if traffic.variant != "push-pull":
        return
    push = activity[:, traffic.n_reserved:]
    starts = rng.random(push.shape) < start
    stops = rng.random(push.shape) < stop
    activity[:, traffic.n_reserved:] = np.where(push, ~stops, starts)


def ref_sample_own_slots(traffic, activity, rng):
    """Occupancy of each sub-network's slots; slot k belongs to SA pair k."""
    if traffic.variant == "bernoulli":
        scheduled = np.ones(activity.shape, dtype=bool)
    else:
        scheduled = activity.copy()
        scheduled[:, :traffic.n_reserved] = True
    return scheduled & (rng.random(activity.shape) < traffic.eta)


def ref_simulate_trace(deployment, traffic, channel_params, n_cycles, seed,
                       mobility, hits, victim=0, noise_ref_fraction=0.7):
    """The cycle-by-cycle simulator: (true_power, est_power, signal_power)."""
    mob, chan, traf, noise = (tagged_rng(seed, name)
                              for name in ("mobility", "channel", "traffic", "noise"))
    n_sa = deployment.sa_pairs_per_sn
    dt = deployment.tx_cycle_duration
    if mobility == "alley":
        state = ref_deploy_alley(deployment, mob)
    else:
        state = deploy(deployment, mob)
    bands = subband_assignment(deployment.n_subnetworks, deployment.n_subbands)
    intf = interferer_set(state.positions, victim, bands)
    n_int = intf.size
    k_lin = ch.db_to_linear(channel_params.rician_k_db)
    rho_f = ch.fading_coefficient(channel_params.doppler_hz, dt)
    dcorr = channel_params.decorrelation_distance
    std_los, std_nlos = channel_params.shadow_std_los_db, channel_params.shadow_std_nlos_db
    shadow_los = std_los * chan.standard_normal(n_int)
    shadow_nlos = std_nlos * chan.standard_normal(n_int)
    psi_latent = 1.0 * chan.standard_normal(n_int)
    looks = channel_params.est_looks
    fade_los = ref_complex_normal(chan, (n_int, n_sa, looks))
    fade_nlos = ref_complex_normal(chan, (n_int, n_sa, looks))
    los_phase = chan.uniform(0.0, 2.0 * np.pi, (n_int, n_sa, looks))
    start = push_start_probability(traffic, dt)
    stop = push_stop_probability(traffic, dt)
    activity = np.zeros((n_int, n_sa), dtype=bool)
    if traffic.variant == "push-pull":
        duty = start / max(start + stop, 1e-12)
        activity[:, traffic.n_reserved:] = (
            traf.random((n_int, n_sa - traffic.n_reserved)) < duty)
    clock_offset = traf.uniform(0.0, n_sa, n_int)

    true_power = np.zeros((n_sa, n_cycles))
    rows = np.arange(n_int)
    slots_idx = np.arange(n_sa)
    prev_positions = state.positions.copy()
    for t in range(n_cycles):
        if t > 0:
            if mobility == "alley":
                state = ref_step_alley(state, deployment.speed, dt)
            else:
                state = ref_step_rdmm(state, deployment.speed, dt,
                                      deployment.min_distance, mob, hits)
            delta = state.positions - prev_positions
            rel = np.linalg.norm(delta[intf] - delta[victim], axis=1)
            mid = np.linalg.norm((delta[intf] + delta[victim]) / 2.0, axis=1)
            prev_positions = state.positions.copy()
            shadow_los = ref_ar1_advance(shadow_los, std_los, dcorr, rel, chan)
            shadow_nlos = ref_ar1_advance(shadow_nlos, std_nlos, dcorr, rel, chan)
            psi_latent = ref_ar1_advance(psi_latent, 1.0, dcorr, mid, chan)
            fade_los = ref_complex_advance(fade_los, rho_f, chan)
            fade_nlos = ref_complex_advance(fade_nlos, rho_f, chan)
            ref_traffic_step(traffic, activity, start, stop, traf)
        chi = ref_sample_own_slots(traffic, activity, traf)

        tx_pos = state.positions[intf, None, :] + state.offsets[intf]
        dist = np.linalg.norm(tx_pos - state.positions[victim], axis=-1)
        pl_los_db, pl_nlos_db = ch.pathloss_inf_db(dist, deployment.carrier_freq)
        pl_los = ch.db_to_linear(-pl_los_db)
        pl_nlos = ch.db_to_linear(-pl_nlos_db)
        h_los = (np.sqrt(k_lin / (k_lin + 1.0)) * np.exp(1j * los_phase)
                 + np.sqrt(1.0 / (k_lin + 1.0)) * fade_los)
        h_los_sq = (np.abs(h_los) ** 2).mean(axis=2)
        h_nlos_sq = (np.abs(fade_nlos) ** 2).mean(axis=2)
        psi = ch.soft_los_weight(psi_latent + channel_params.soft_los_bias)[:, None]
        sh_los = ch.db_to_linear(shadow_los)[:, None]
        sh_nlos = ch.db_to_linear(shadow_nlos)[:, None]
        gain = ch.channel_gain(psi, h_los_sq, h_nlos_sq, pl_los, pl_nlos,
                               sh_los, sh_nlos)
        emitted = deployment.tx_power * chi * gain
        phase = clock_offset + t * deployment.schedule_drift
        u = (slots_idx[None, :] - phase[:, None]) % n_sa
        k1 = np.floor(u).astype(int) % n_sa
        k2 = (k1 + 1) % n_sa
        w2 = u - np.floor(u)
        contrib = ((1.0 - w2) * emitted[rows[:, None], k1]
                   + w2 * emitted[rows[:, None], k2])
        true_power[:, t] = contrib.sum(axis=0)

    ref = max(int(noise_ref_fraction * n_cycles), 1)
    est_noise_std = channel_params.est_noise_fraction * float(true_power[:, :ref].mean())
    est_power = true_power + noise.normal(0.0, est_noise_std, true_power.shape) \
        if est_noise_std > 0 else true_power.copy()
    est_power = np.maximum(est_power, channel_params.power_floor_w)
    sa_dist = np.linalg.norm(state.offsets[victim], axis=1)
    signal_power = deployment.tx_power * ch.db_to_linear(
        -ch.pathloss_inf_db(sa_dist, deployment.carrier_freq)[0])
    return true_power, est_power, signal_power


# ------------------------------------------------------------ simulator

DESK = desk_preset(3)
PUSH_PULL = replace(DESK.traffic, variant="push-pull", n_reserved=2, intensity=5.0)
# a crowded floor: collisions are frequent and some retry budgets run out
CROWDED = dict(n_subnetworks=16, area=(15.0, 15.0), sn_radius=1.0, min_distance=3.0,
               speed=30.0)
SIM_CASES = {
    "rdmm-bernoulli": {},
    "rdmm-push-pull": {"traffic": PUSH_PULL},
    "alley-bernoulli": {"mobility": "alley"},
    "alley-push-pull": {"mobility": "alley", "traffic": PUSH_PULL},
    "one-look": {"channel": {"est_looks": 1}},
    "twelve-looks": {"channel": {"est_looks": 12}},
    "no-drift": {"deployment": {"schedule_drift": 0}},
    "one-cycle": {"n_cycles": 1},
    "one-cycle-alley": {"n_cycles": 1, "mobility": "alley"},
    # one slot and fifteen interferers: the slot sum runs over >= 8 terms
    "one-slot-fifteen-interferers": {"deployment": {"sa_pairs_per_sn": 1, "n_subbands": 1}},
    "crowded": {"deployment": CROWDED, "traffic": PUSH_PULL},
    # real-field coefficients far from 1 and different per link, beside the
    # fading's constant rho in one recursion
    **{name: {"n_cycles": n, "channel": {"decorrelation_distance": 0.05},
              "deployment": {"speed": 30.0}}
       for name, n in (("fast-decorrelation", 300),
                       (f"fast-decorrelation-{BLOCK + 1}-cycles", BLOCK + 1))},
    # pass 1 runs in blocks of BLOCK cycles after cycle 0
    **{f"{name}-{n}-cycles": {"n_cycles": n, **case}
       for n in (BLOCK, BLOCK + 1, 2 * BLOCK + 3)
       for name, case in (("rdmm-push-pull", {"traffic": PUSH_PULL}),
                          ("alley-bernoulli", {"mobility": "alley"}))},
}


def _sim_inputs(case):
    deployment = replace(DESK.deployment, **case.get("deployment", {}))
    channel = replace(DESK.channel, **case.get("channel", {}))
    return (deployment, case.get("traffic", DESK.traffic), channel,
            case.get("n_cycles", 300), case.get("mobility", "rdmm"))


@pytest.mark.parametrize("name", SIM_CASES)
def test_simulate_trace_matches_cycle_by_cycle_reference(name):
    deployment, traffic, channel, n_cycles, mobility = _sim_inputs(SIM_CASES[name])
    hits = {"reflect": 0, "retry": 0, "exhausted": 0}
    want = ref_simulate_trace(deployment, traffic, channel, n_cycles, DESK.seed,
                              mobility, hits)
    got = simulate_trace(deployment, traffic, channel, n_cycles, DESK.seed,
                         mobility=mobility)
    assert np.array_equal(got.true_power, want[0])
    assert np.array_equal(got.est_power, want[1])
    assert np.array_equal(got.signal_power, want[2])
    assert got.true_power.flags.c_contiguous and got.est_power.flags.c_contiguous
    if name == "crowded":
        assert hits["retry"] > 0 and hits["exhausted"] > 0
        assert hits["reflect"] > 0


@pytest.mark.parametrize("n_int", (1, 3, 15))
@pytest.mark.parametrize("looks", (1, 8, 12))
def test_row_recursion_matches_complex_reference(looks, n_int):
    # simulate_trace's row: three real fields per link, then the LOS and
    # NLOS fading as (re, im) floats, advanced by one recursion over two
    # blocks, the second a single row, so the states cross a block boundary
    n_sa, dcorr, rho = 4, 10.0, ch.fading_coefficient(80.0, 1e-3)
    field_stds = (4.0, 7.0, 1.0)
    n_real = 3 * n_int
    shape = (2, n_int, n_sa, looks)
    n_row = n_real + 4 * n_int * n_sa * looks
    got_rng, want_rng = np.random.default_rng(21), np.random.default_rng(21)
    moves = np.random.default_rng(22)
    field = ch.Ar1Field(np.repeat(field_stds, n_int), dcorr, got_rng.standard_normal(n_row))
    fades = ch.ComplexAr1(shape, rho, field.values[n_real:], n_real)
    reals = [s * want_rng.standard_normal(n_int) for s in field_stds]
    fading = [ref_complex_normal(want_rng, shape[1:]) for _ in range(2)]

    def check(got_reals, got_fading):
        assert np.array_equal(got_reals, np.concatenate(reals))
        for k in range(2):
            assert np.array_equal(got_fading[k, 0], fading[k].real)
            assert np.array_equal(got_fading[k, 1], fading[k].imag)

    check(field.values[:n_real], fades.values)
    for b in (5, 1):
        disp = moves.uniform(0.0, 30.0, (b, n_real))
        coef = np.full((b, n_row), rho)
        row = got_rng.standard_normal((b, n_row))
        fades.advance(row)
        states = field.advance(disp, row, coef)
        for t in range(b):
            reals = [ref_ar1_advance(v, s, dcorr, disp[t, k * n_int:(k + 1) * n_int], want_rng)
                     for k, (v, s) in enumerate(zip(reals, field_stds))]
            fading = [ref_complex_advance(f, rho, want_rng) for f in fading]
            check(states[t, :n_real], states[t, n_real:].reshape(fades.values.shape))
        check(field.values[:n_real], fades.values)


# start and stop probabilities near 1/2, so that toggles and resets to either
# value are frequent (the desk traces see under one toggle a trace); and no
# starts at all, from a carried state of half bursts
SCAN_TRAFFIC = {"churn": replace(PUSH_PULL, intensity=700.0, burst_duration_s=2e-3),
                "no-starts": replace(PUSH_PULL, intensity=0.0)}


@pytest.mark.parametrize("name", SCAN_TRAFFIC)
def test_burst_scan_matches_per_cycle_recurrence(name):
    traffic = SCAN_TRAFFIC[name]
    reserved = traffic.n_reserved
    rng = np.random.default_rng(5)
    proc = TrafficProcess(traffic, 5, DESK.deployment.sa_pairs_per_sn,
                          DESK.deployment.tx_cycle_duration, rng)
    proc.activity[:, reserved:] = rng.random((5, proc.n_push)) < 0.5
    push = proc.activity[:, reserved:].copy()
    seen = {"toggle": 0, "reset to on": 0, "reset to off": 0}
    # the state carries across consecutive steps of every block length
    for b in (1, 2, 250, 1, 250, 2, 1):
        uniforms = rng.random((b, 2, 5, proc.n_push))
        got = proc.step(uniforms)
        starts = uniforms[:, 0] < proc.start
        stays = ~(uniforms[:, 1] < proc.stop)
        for t in range(b):
            push = np.where(push, stays[t], starts[t])
            assert np.array_equal(got[t, :, reserved:], push)
            assert not got[t, :, :reserved].any()
        seen["toggle"] += int((starts & ~stays).sum())
        seen["reset to on"] += int((starts & stays).sum())
        seen["reset to off"] += int((~starts & ~stays).sum())
    assert np.array_equal(proc.activity[:, reserved:], push)
    if name == "churn":
        assert min(seen.values()) > 0
    else:
        assert seen["toggle"] == seen["reset to on"] == 0 < seen["reset to off"]


@pytest.mark.parametrize("sizes", [(1,), (3, 1, 7), (40_000, 1, 60_001, 17)])
def test_one_fill_equals_the_consecutive_draws_it_replaces(sizes):
    """simulate_trace draws a block's normals, and its uniforms, with one
    fill per stream; the stream must equal the smaller draws in a row.
    The 10^5 normals take the ziggurat's rejection path many times."""
    for fill in ("standard_normal", "random"):
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        row = np.empty(sum(sizes))
        getattr(rng, fill)(out=row)
        want = np.concatenate([getattr(ref_rng, fill)(n) for n in sizes])
        assert np.array_equal(row, want)
        assert rng.random() == ref_rng.random()     # the states stay in step


def test_rdmm_step_matches_scalar_reference_through_collisions():
    config = replace(DESK.deployment, **CROWDED)
    state = ref_state = deploy(config, np.random.default_rng(3))
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    hits = {"reflect": 0, "retry": 0, "exhausted": 0}
    for _ in range(300):
        state = step_mobility(state, config.speed, config.tx_cycle_duration,
                              config.min_distance, rng)
        ref_state = ref_step_rdmm(ref_state, config.speed, config.tx_cycle_duration,
                                  config.min_distance, ref_rng, hits)
        assert np.array_equal(state.positions, ref_state.positions)
        assert np.array_equal(state.headings, ref_state.headings)
    assert hits["retry"] > 0 and hits["exhausted"] > 0


# desk deployments at three seeds, a crowded floor, a sparse one, where most
# free runs start with no pair within reach of a crowding, and a standing one
FREE_RUN_CASES = {**{f"desk-{seed}": ({}, seed) for seed in (0, 7, 811)},
                  "crowded": (CROWDED, 3), "sparse": ({"area": (100.0, 100.0)}, 0),
                  "zero-speed": ({"speed": 0.0}, 0)}


@pytest.mark.parametrize("name", FREE_RUN_CASES)
def test_free_runs_and_event_steps_equal_per_step_mobility(name):
    """simulate_trace takes the rdmm steps that draw nothing from free runs,
    of at most HORIZON steps, and calls step_mobility only at the other
    steps (the events); positions, headings and the generator's stream
    must equal 10,000 plain steps."""
    changes, seed = FREE_RUN_CASES[name]
    config = replace(DESK.deployment, **changes)
    n_steps = 10_000
    state = ref_state = deploy(config, np.random.default_rng(seed))
    rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    want_pos = np.empty((n_steps, config.n_subnetworks, 2))
    want_head = np.empty((n_steps, config.n_subnetworks))
    for t in range(n_steps):
        ref_state = step_mobility(ref_state, config.speed, config.tx_cycle_duration,
                                  config.min_distance, ref_rng)
        want_pos[t], want_head[t] = ref_state.positions, ref_state.headings

    step = config.speed * config.tx_cycle_duration
    guard = config.min_distance + 2.0 * step
    lo, hi = np.array(state.bounds[:2]), np.array(state.bounds[2:])
    # reflections and retries at the events; free steps whose heading moved
    hits = {"reflect": 0, "retry": 0, "drift": 0}
    # free runs, and those with no pair closer than guard + 2 step horizon
    runs = {"all": 0, "no pair in reach": 0}
    t = 0
    while t < n_steps:
        horizon = min(HORIZON, n_steps - t)
        dist = np.linalg.norm(state.positions[:, None] - state.positions, axis=-1)
        np.fill_diagonal(dist, np.inf)
        runs["all"] += 1
        runs["no pair in reach"] += bool((dist >= guard + 2.0 * step * horizon).all())
        positions, headings = free_run(state, step, guard, horizon)
        k = len(positions)
        if k:
            assert np.array_equal(positions, want_pos[t:t + k])
            assert np.array_equal(headings, want_head[t:t + k])
            previous = np.concatenate([state.headings[None], headings[:-1]])
            hits["drift"] += int((headings != previous).any(axis=1).sum())
            state = replace(state, positions=positions[-1], headings=headings[-1])
        t += k
        if k < horizon:
            unit = np.stack([np.cos(state.headings), np.sin(state.headings)], axis=1)
            cand = state.positions + step * unit
            hits["reflect"] += bool(((cand < lo) | (cand > hi)).any())
            before = rng.bit_generator.state
            state = step_mobility(state, config.speed, config.tx_cycle_duration,
                                  config.min_distance, rng)
            hits["retry"] += rng.bit_generator.state != before
            assert np.array_equal(state.positions, want_pos[t])
            assert np.array_equal(state.headings, want_head[t])
            t += 1
    assert rng.random() == ref_rng.random()
    if name == "zero-speed":
        assert hits == {"reflect": 0, "retry": 0, "drift": 0}
    else:
        assert hits["reflect"] > 0 and hits["retry"] > 0 and hits["drift"] > 0
    if name == "sparse":
        assert runs["no pair in reach"] > runs["all"] / 2


@pytest.mark.parametrize("center", (0.0, 7.0))
@pytest.mark.parametrize("ulps", (-1, 0, 1))
def test_free_run_stops_where_a_pair_from_the_screens_edge_crowds(ulps, center):
    """Two sub-networks head at each other from guard + 2 step HORIZON
    apart, the farthest start of a pair that can crowd within a free run,
    and from one ulp nearer or farther; centered at 7 m, the positions
    round that distance by another ulp or two.  Stepping every cycle, they
    first crowd at step HORIZON or HORIZON + 1, by rounding; the free run
    must stop right before that step."""
    config = DESK.deployment
    step = config.speed * config.tx_cycle_duration
    guard = config.min_distance + 2.0 * step
    gap = guard + 2.0 * step * HORIZON
    if ulps:
        gap = np.nextafter(gap, ulps * np.inf)
    state = MobilityState(positions=np.array([[center - gap / 2, 0.3], [center + gap / 2, 0.3]]),
                          headings=np.array([0.0, np.pi]), offsets=np.zeros((2, 1, 2)),
                          bounds=(-20.0, -20.0, 20.0, 20.0))
    positions, headings = free_run(state, step, guard, HORIZON)
    rng = np.random.default_rng(0)
    ref_state, want = state, []
    for _ in range(HORIZON + 1):
        before = rng.bit_generator.state
        ref_state = step_mobility(ref_state, config.speed, config.tx_cycle_duration,
                                  config.min_distance, rng)
        if rng.bit_generator.state != before:       # this step crowds
            break
        want.append(ref_state)
    assert len(want) in (HORIZON - 1, HORIZON) and len(positions) == len(want)
    for got_pos, got_head, ref in zip(positions, headings, want):
        assert np.array_equal(got_pos, ref.positions)
        assert np.array_equal(got_head, ref.headings)


def test_alley_lookup_matches_scalar_point_at():
    layout = build_alley_layout((180.0, 90.0), margin=6.0)
    rng = np.random.default_rng(5)
    for k in range(N_ALLEY_LOOPS):
        cum = layout.cum_lengths[k]
        # vertices, both sides of each loop's wrap, and random arc lengths
        arcs = np.concatenate([cum, cum[-1] * np.array([2.0, 3.0, 1.0 - 1e-16]),
                               np.nextafter(cum, np.inf), rng.uniform(0, 5 * cum[-1], 200)])
        positions = layout.locate(np.full(arcs.size, k), arcs)
        for s, pos in zip(arcs, positions):
            assert np.array_equal(pos, ref_point_at(layout, k, s))


def test_alley_steps_equal_precomputed_positions():
    config = replace(DESK.deployment, n_subnetworks=7)
    ref_state = ref_deploy_alley(config, np.random.default_rng(4))
    got = alley_centers(config, np.arange(config.n_subnetworks), 201)
    assert np.array_equal(got[0], ref_state.positions)
    for t in range(1, 201):
        ref_state = ref_step_alley(ref_state, config.speed, config.tx_cycle_duration)
        assert np.array_equal(got[t], ref_state.positions)


@pytest.mark.parametrize("n_subnetworks", (2, 7, DESK.deployment.n_subnetworks))
def test_alley_centers_of_any_members_are_the_columns_of_all(n_subnetworks):
    """The alley trajectory of a set of sub-networks is the matching columns
    of every sub-network's, bit for bit, in any order: the interferers and
    the victim that simulate_trace asks for, a random subset, one, none.
    The trajectory of all of them is the reference's, also where a loop
    runs no sub-network."""
    config = replace(DESK.deployment, n_subnetworks=n_subnetworks, n_subbands=1)
    n_cycles = 301
    everyone = alley_centers(config, np.arange(n_subnetworks), n_cycles)
    ref_state = ref_deploy_alley(config, np.random.default_rng(0))
    assert np.array_equal(everyone[0], ref_state.positions)
    for t in range(1, n_cycles):
        ref_state = ref_step_alley(ref_state, config.speed, config.tx_cycle_duration)
        assert np.array_equal(everyone[t], ref_state.positions)

    rng = np.random.default_rng(n_subnetworks)
    bands = subband_assignment(n_subnetworks, config.n_subbands)
    subsets = [np.append(interferer_set(everyone[0], 0, bands), 0),
               rng.permutation(n_subnetworks)[:rng.integers(1, n_subnetworks + 1)],
               np.arange(n_subnetworks)[::-1], np.array([n_subnetworks - 1]),
               np.array([], dtype=int)]
    for members in subsets:
        got = alley_centers(config, members, n_cycles)
        assert got.shape == (n_cycles, members.size, 2)
        assert got.tobytes() == everyone[:, members].tobytes()
