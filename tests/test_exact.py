"""Bit-exact contract of the per-cycle decision kernels and the simulator.

The sigmoid, the layer norm, the LSTM, the blocklength and the calibrated
read-out are written for low per-call overhead.  Each must give the same
bits as the plain formula kept here as its reference, so that results,
checkpoints and loss curves do not depend on the fast form.  The same holds
for the interference simulator: its two-pass form must give the traces of
the cycle-by-cycle loop with scalar mobility kernels kept here.
"""

from dataclasses import replace

import numpy as np
import pytest

from subnetpred import ra
from subnetpred.config import ModelConfig, TrafficModel, desk_preset
from subnetpred.model import layers
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


def ref_simulate_trace(deployment, traffic, channel_params, n_cycles, mobility,
                       hits, victim=0, noise_ref_fraction=0.7):
    """The cycle-by-cycle simulator: (true_power, est_power, signal_power)."""
    rng = np.random.default_rng(deployment.rng_seed)
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
            h_los_sq = (np.abs(ch.rician(fade_los.values, k_lin, los_phase)) ** 2
                        ).mean(axis=2)
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
    want = ref_simulate_trace(deployment, traffic, channel, n_cycles, mobility, hits)
    got = simulate_trace(deployment, traffic, channel, n_cycles, mobility=mobility)
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
        state = step_mobility(state, "rdmm", config.speed, config.tx_cycle_duration,
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
    config = replace(DESK.deployment, n_subnetworks=7, rng_seed=4)
    state = deploy_alley(config, np.random.default_rng(4))
    ref_state = ref_deploy_alley(config, np.random.default_rng(4))
    assert np.array_equal(state.positions, ref_state.positions)
    assert np.array_equal(state.headings, ref_state.headings)
    assert np.array_equal(state.arc_positions, ref_state.arc_positions)
    want = alley_positions(state, config.speed, config.tx_cycle_duration, 201)
    assert np.array_equal(want[0], state.positions)
    for t in range(1, 201):
        state = step_mobility(state, "alley", config.speed, config.tx_cycle_duration,
                              config.min_distance, None)
        assert np.array_equal(state.positions, want[t])
