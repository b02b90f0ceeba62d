"""Bit-exact contract of the per-cycle decision kernels and the simulator.

The sigmoid, the layer norm, the LSTM, the blocklength, the calibrated
read-out and the batched Wiener refit are written for low per-call
overhead.  Each must give the same bits as the plain formula kept here as
its reference, so that results, checkpoints and loss curves do not depend
on the fast form.  The Adam step is pinned to its textbook form the same
way, for any later rewrite of it.  The same holds
for the interference simulator: its two-pass form must give the traces of
the cycle-by-cycle loop with scalar mobility kernels kept here.
"""

from dataclasses import replace

import numpy as np
import pytest

from subnetpred import ra
from subnetpred.config import ModelConfig, TrafficModel, desk_preset
from subnetpred.model import baselines, layers
from subnetpred.model.optim import Adam
from subnetpred.model.network import PREDICT_BATCH, forward, init_params, predict
from subnetpred.scenario import channel as ch
from subnetpred.scenario.deploy import MobilityState, deploy, disc_offsets
from subnetpred.scenario.mobility import (alley_positions, build_alley_layout,
                                          deploy_alley, step_mobility)
from subnetpred.scenario.simulate import (interferer_set, simulate_trace,
                                          subband_assignment)
from subnetpred.scenario.traffic import TrafficProcess
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


def ref_wiener_predict(series, t_indices, order, history=None):
    """The per-point refit: one window, one recursion, one dot per point."""
    s = np.asarray(series, dtype=float).ravel()
    hist = history if history is not None else 4 * (order + 1)
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
    """The LSTM backward with the gate blocks of dz concatenated per step."""
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
    hs, steps = layers.lstm_forward(tokens, wx, wh, bias)
    assert np.array_equal(hs, ref_lstm_hidden(tokens, wx, wh, bias))
    dhs = rng.normal(size=hs.shape)
    for got, want in zip(layers.lstm_backward(steps, wx, wh, dhs),
                         ref_lstm_backward(steps, wx, wh, dhs)):
        assert np.array_equal(got, want)


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


# --------------------------------------------------------------------- Adam

def test_adam_matches_textbook_step_on_every_tensor_rank():
    rng = np.random.default_rng(50)
    # a split client's head bias is 0-d and its gradient a numpy scalar
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
    trace = simulate_trace(DESK.deployment, DESK.traffic, DESK.channel, 900, DESK.seed)
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


def ref_propose(positions, headings, step, bounds):
    lo_x, lo_y, hi_x, hi_y = bounds
    cand = positions + step * np.stack([np.cos(headings), np.sin(headings)], axis=1)
    new_head = headings.copy()
    for i in range(cand.shape[0]):
        cx, hx = ref_reflect(cand[i, 0], np.cos(new_head[i]), lo_x, hi_x)
        cy, hy = ref_reflect(cand[i, 1], np.sin(new_head[i]), lo_y, hi_y)
        cand[i] = (cx, cy)
        new_head[i] = np.arctan2(hy, hx)
    return cand, new_head


def ref_step_rdmm(state, speed, dt, min_distance, rng, hits, max_retries=8):
    """hits counts the collision retries and the exhausted retry budgets."""
    step = speed * dt
    if step == 0.0:
        return state
    pos = state.positions
    head = state.headings.copy()
    cand, cand_head = ref_propose(pos, head, step, state.bounds)
    guard = min_distance + 2.0 * step
    for _ in range(max_retries):
        dist = np.linalg.norm(cand[:, None, :] - cand[None, :, :], axis=-1)
        np.fill_diagonal(dist, np.inf)
        bad = (dist < guard).any(axis=1)
        if not bad.any():
            break
        hits["retry"] += 1
        head[bad] = rng.uniform(0.0, 2.0 * np.pi, int(bad.sum()))
        redo, redo_head = ref_propose(pos[bad], head[bad], step, state.bounds)
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
    return a + frac * (b - a), float(np.arctan2(b[1] - a[1], b[0] - a[0]))


def ref_deploy_alley(config, rng):
    layout = build_alley_layout(config.area, margin=max(config.sn_radius * 2, 5.0))
    n = config.n_subnetworks
    path_ids = np.arange(n) % layout.n_loops
    arc = np.empty(n)
    positions = np.empty((n, 2))
    headings = np.empty(n)
    per_loop = np.bincount(path_ids, minlength=layout.n_loops)
    seen = np.zeros(layout.n_loops, dtype=int)
    for i in range(n):
        k = path_ids[i]
        arc[i] = seen[k] * layout.total_length(k) / max(per_loop[k], 1)
        seen[k] += 1
        positions[i], headings[i] = ref_point_at(layout, k, arc[i])
    offsets = disc_offsets(n, config.sa_pairs_per_sn, config.sn_radius, rng)
    return MobilityState(positions=positions, headings=headings, offsets=offsets,
                         path_ids=path_ids, arc_positions=arc, layout=layout,
                         bounds=(0.0, 0.0, *config.area))


def ref_step_alley(state, speed, dt):
    arc = state.arc_positions + speed * dt
    positions = np.empty_like(state.positions)
    headings = np.empty_like(state.headings)
    for i in range(positions.shape[0]):
        positions[i], headings[i] = ref_point_at(state.layout, state.path_ids[i], arc[i])
    return replace(state, positions=positions, headings=headings, arc_positions=arc)


def ref_sample_own_slots(proc, rng, n_slots):
    owner = np.arange(n_slots) % proc.n_sa
    if proc.model.variant == "bernoulli":
        scheduled = np.ones((proc.n_sn, n_slots), dtype=bool)
    else:
        scheduled = proc.activity[:, owner].copy()
        scheduled[:, np.arange(n_slots) < proc.model.n_reserved] = True
    return scheduled & (rng.random((proc.n_sn, n_slots)) < proc.model.eta), owner


def ref_simulate_trace(deployment, traffic, channel_params, n_cycles, seed,
                       mobility, hits, victim=0, noise_ref_fraction=0.7):
    """The cycle-by-cycle simulator: (true_power, est_power, signal_power)."""
    rng = np.random.default_rng(seed)
    n_sa = deployment.sa_pairs_per_sn
    n_slots = deployment.slots
    dt = deployment.tx_cycle_duration
    if mobility == "alley":
        state = ref_deploy_alley(deployment, rng)
    else:
        state = deploy(deployment, rng)
    bands = subband_assignment(deployment.n_subnetworks, deployment.n_subbands)
    intf = interferer_set(state.positions, victim, deployment.interferer_set_size, bands)
    n_int = intf.size
    k_lin = ch.db_to_linear(channel_params.rician_k_db)
    rho_f = ch.fading_coefficient(channel_params.doppler_hz, dt)
    shadow_los = ch.Ar1Field(n_int, channel_params.shadow_std_los_db,
                             channel_params.decorrelation_distance, rng)
    shadow_nlos = ch.Ar1Field(n_int, channel_params.shadow_std_nlos_db,
                              channel_params.decorrelation_distance, rng)
    psi_latent = ch.Ar1Field(n_int, 1.0, channel_params.decorrelation_distance, rng)
    looks = channel_params.est_looks
    fade_los = ch.ComplexAr1((n_int, n_sa, looks), rho_f, rng)
    fade_nlos = ch.ComplexAr1((n_int, n_sa, looks), rho_f, rng)
    los_phase = rng.uniform(0.0, 2.0 * np.pi, (n_int, n_sa, looks))
    traffic_proc = TrafficProcess(traffic, n_int, n_sa, dt, rng)
    clock_offset = rng.uniform(0.0, n_slots, n_int)

    true_power = np.zeros((n_sa, n_cycles))
    rows = np.arange(n_int)
    slots_idx = np.arange(n_slots)
    prev_positions = state.positions.copy()
    for t in range(n_cycles):
        if t > 0:
            if mobility == "alley":
                state = ref_step_alley(state, deployment.speed, dt)
            else:
                state = ref_step_rdmm(state, deployment.speed, dt,
                                      deployment.min_distance, rng, hits)
            delta = state.positions - prev_positions
            rel = np.linalg.norm(delta[intf] - delta[victim], axis=1)
            mid = np.linalg.norm((delta[intf] + delta[victim]) / 2.0, axis=1)
            prev_positions = state.positions.copy()
            if channel_params.shadowing:
                shadow_los.advance(rel, rng)
                shadow_nlos.advance(rel, rng)
            psi_latent.advance(mid, rng)
            if channel_params.fading:
                fade_los.advance(rng)
                fade_nlos.advance(rng)
            traffic_proc.step(rng)
        chi, owner = ref_sample_own_slots(traffic_proc, rng, n_slots)

        tx_pos = state.positions[intf, None, :] + state.offsets[intf]
        dist = np.linalg.norm(tx_pos - state.positions[victim], axis=-1)
        pl_los = ch.db_to_linear(-ch.pathloss_inf_db(dist, deployment.carrier_freq, los=True))
        pl_nlos = ch.db_to_linear(-ch.pathloss_inf_db(dist, deployment.carrier_freq, los=False))
        if channel_params.fading:
            h_los = (np.sqrt(k_lin / (k_lin + 1.0)) * np.exp(1j * los_phase)
                     + np.sqrt(1.0 / (k_lin + 1.0)) * fade_los.values)
            h_los_sq = (np.abs(h_los) ** 2).mean(axis=2)
            h_nlos_sq = (np.abs(fade_nlos.values) ** 2).mean(axis=2)
            psi = ch.soft_los_weight(psi_latent.values
                                     + channel_params.soft_los_bias)[:, None]
        else:
            h_los_sq = np.ones((n_int, n_sa))
            h_nlos_sq = np.ones((n_int, n_sa))
            psi = np.ones((n_int, 1))
        if channel_params.shadowing:
            sh_los = ch.db_to_linear(shadow_los.values)[:, None]
            sh_nlos = ch.db_to_linear(shadow_nlos.values)[:, None]
        else:
            sh_los = sh_nlos = np.ones((n_int, 1))
        gain = ch.channel_gain(psi, h_los_sq, h_nlos_sq, pl_los, pl_nlos,
                               sh_los, sh_nlos)
        emitted = deployment.tx_power * chi * gain[rows[:, None], owner]
        phase = clock_offset + t * deployment.schedule_drift
        u = (slots_idx[None, :] - phase[:, None]) % n_slots
        k1 = np.floor(u).astype(int) % n_slots
        k2 = (k1 + 1) % n_slots
        w2 = u - np.floor(u)
        contrib = ((1.0 - w2) * emitted[rows[:, None], k1]
                   + w2 * emitted[rows[:, None], k2])
        true_power[:, t] = contrib.sum(axis=0)[:n_sa]

    ref = max(int(noise_ref_fraction * n_cycles), 1)
    est_noise_std = channel_params.est_noise_fraction * float(true_power[:, :ref].mean())
    est_power = true_power + rng.normal(0.0, est_noise_std, true_power.shape) \
        if est_noise_std > 0 else true_power.copy()
    est_power = np.maximum(est_power, channel_params.power_floor_w)
    sa_dist = np.linalg.norm(state.offsets[victim], axis=1)
    signal_power = deployment.tx_power * ch.db_to_linear(
        -ch.pathloss_inf_db(sa_dist, deployment.carrier_freq, los=True))
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
    "no-fading": {"channel": {"fading": False}},
    "no-shadowing": {"channel": {"shadowing": False}},
    "one-look": {"channel": {"est_looks": 1}},
    "twelve-looks": {"channel": {"est_looks": 12}},
    "alley-no-fading-no-shadowing": {"mobility": "alley",
                                     "channel": {"fading": False, "shadowing": False}},
    "six-slots": {"deployment": {"n_slots": 6}, "traffic": PUSH_PULL},
    "no-drift": {"deployment": {"schedule_drift": 0}},
    "one-cycle": {"n_cycles": 1},
    "one-cycle-alley": {"n_cycles": 1, "mobility": "alley"},
    # one slot and nine interferers: the slot sum runs over >= 8 terms
    "one-slot-nine-interferers": {"deployment": {"sa_pairs_per_sn": 1, "n_subbands": 1,
                                                 "interferer_set_size": 10}},
    "crowded": {"deployment": CROWDED, "traffic": PUSH_PULL},
}


def _sim_inputs(case):
    deployment = replace(DESK.deployment, **case.get("deployment", {}))
    channel = replace(DESK.channel, **case.get("channel", {}))
    return (deployment, case.get("traffic", DESK.traffic), channel,
            case.get("n_cycles", 300), case.get("mobility", "rdmm"))


@pytest.mark.parametrize("name", SIM_CASES)
def test_simulate_trace_matches_cycle_by_cycle_reference(name):
    deployment, traffic, channel, n_cycles, mobility = _sim_inputs(SIM_CASES[name])
    hits = {"retry": 0, "exhausted": 0}
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


def test_rdmm_step_matches_scalar_reference_through_collisions():
    config = replace(DESK.deployment, **CROWDED)
    state = ref_state = deploy(config, np.random.default_rng(3))
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    hits = {"retry": 0, "exhausted": 0}
    for _ in range(300):
        state = step_mobility(state, config.speed, config.tx_cycle_duration,
                              config.min_distance, rng)
        ref_state = ref_step_rdmm(ref_state, config.speed, config.tx_cycle_duration,
                                  config.min_distance, ref_rng, hits)
        assert np.array_equal(state.positions, ref_state.positions)
        assert np.array_equal(state.headings, ref_state.headings)
    assert hits["retry"] > 0 and hits["exhausted"] > 0


def test_alley_lookup_matches_scalar_point_at():
    layout = build_alley_layout((180.0, 90.0), margin=6.0)
    rng = np.random.default_rng(5)
    for k in range(layout.n_loops):
        cum = layout.cum_lengths[k]
        # vertices, both sides of each loop's wrap, and random arc lengths
        arcs = np.concatenate([cum, cum[-1] * np.array([2.0, 3.0, 1.0 - 1e-16]),
                               np.nextafter(cum, np.inf), rng.uniform(0, 5 * cum[-1], 200)])
        positions, headings = layout.locate(np.full(arcs.size, k), arcs)
        for s, pos, head in zip(arcs, positions, headings):
            ref_pos, ref_head = ref_point_at(layout, k, s)
            assert np.array_equal(pos, ref_pos) and head == ref_head


def test_alley_steps_equal_precomputed_positions():
    config = replace(DESK.deployment, n_subnetworks=7)
    state = deploy_alley(config, np.random.default_rng(4))
    ref_state = ref_deploy_alley(config, np.random.default_rng(4))
    assert np.array_equal(state.positions, ref_state.positions)
    assert np.array_equal(state.headings, ref_state.headings)
    assert np.array_equal(state.arc_positions, ref_state.arc_positions)
    got = alley_positions(state, config.speed, config.tx_cycle_duration, 201)
    assert np.array_equal(got[0], state.positions)
    for t in range(1, 201):
        ref_state = ref_step_alley(ref_state, config.speed, config.tx_cycle_duration)
        assert np.array_equal(got[t], ref_state.positions)
