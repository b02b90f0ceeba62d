"""Scenario simulator contracts: placement, mobility, traffic, channel, and
whole-trace invariants (determinism, non-negativity, heavy tails)."""

import numpy as np
import pytest

from subnetpred.config import ChannelParams, DeploymentConfig, TrafficModel
from subnetpred.scenario import (PlacementError, TrafficProcess,
                                 build_alley_layout, channel_gain, deploy,
                                 deploy_alley, fading_coefficient,
                                 interferer_set, noise_power_w,
                                 pathloss_inf_db, simulate_trace,
                                 step_mobility, write_trace_csv)
from subnetpred.scenario.channel import Ar1Field, ComplexAr1, db_to_linear
from subnetpred.scenario.mobility import alley_positions
from subnetpred.scenario.simulate import subband_assignment

CHEAP = ChannelParams()
# no shadowing, no NLOS weight and no scattered fading: every link gain is
# its LOS path gain to within 3e-15 relative
DETERMINISTIC = ChannelParams(shadow_std_los_db=0.0, shadow_std_nlos_db=0.0,
                              rician_k_db=300.0, soft_los_bias=50.0,
                              est_noise_fraction=0.0)


def cfg(**kw):
    base = dict(n_subnetworks=16, sa_pairs_per_sn=4, area=(25.0, 25.0),
                sn_radius=2.0, speed=2.0, min_distance=3.0, n_subbands=4,
                interferer_set_size=5)
    base.update(kw)
    return DeploymentConfig(**base)


# ----------------------------------------------------------------- placement

def test_single_sn_offsets_within_radius():
    c = cfg(n_subnetworks=1, interferer_set_size=0)
    state = deploy(c, np.random.default_rng(0))
    assert state.positions.shape == (1, 2)
    assert np.all(np.linalg.norm(state.offsets[0], axis=1) <= c.sn_radius)


def test_dense_placement_respects_min_distance():
    state = deploy(cfg(), np.random.default_rng(3))
    d = np.linalg.norm(state.positions[:, None] - state.positions[None], axis=-1)
    np.fill_diagonal(d, np.inf)
    assert d.min() >= 3.0


def test_overpacked_area_raises():
    with pytest.raises(PlacementError):
        deploy(cfg(n_subnetworks=50, area=(5.0, 5.0), interferer_set_size=4,
                   sn_radius=1.5), np.random.default_rng(0))


def test_deployment_determinism():
    a = deploy(cfg(), np.random.default_rng(9))
    b = deploy(cfg(), np.random.default_rng(9))
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.offsets, b.offsets)


# ------------------------------------------------------------------ mobility

def test_zero_speed_leaves_state_unchanged():
    rng = np.random.default_rng(0)
    state = deploy(cfg(), rng)
    out = step_mobility(state, 0.0, 1e-3, 3.0, rng)
    assert np.array_equal(out.positions, state.positions)


def test_step_displacement_magnitude():
    c = cfg(n_subnetworks=2, interferer_set_size=1, min_distance=0.0)
    state = deploy(c, np.random.default_rng(0))
    out = step_mobility(state, 2.0, 1e-3, 0.0, np.random.default_rng(1))
    moved = np.linalg.norm(out.positions - state.positions, axis=1)
    assert np.allclose(moved, 0.002, atol=1e-12)


def test_long_rdmm_run_stays_in_bounds_and_spaced():
    c = cfg()
    state = deploy(c, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    lo_x, lo_y, hi_x, hi_y = state.bounds
    for _ in range(10000):
        state = step_mobility(state, c.speed, c.tx_cycle_duration,
                              c.min_distance, rng)
        p = state.positions
        assert p[:, 0].min() >= lo_x - 1e-9 and p[:, 0].max() <= hi_x + 1e-9
        assert p[:, 1].min() >= lo_y - 1e-9 and p[:, 1].max() <= hi_y + 1e-9
        d = np.linalg.norm(p[:, None] - p[None], axis=-1)
        np.fill_diagonal(d, np.inf)
        assert d.min() >= c.min_distance


def test_alley_mobility_follows_loops_and_wraps():
    c = cfg(n_subnetworks=6, area=(180.0, 90.0), interferer_set_size=3,
            speed=2.0)
    rng = np.random.default_rng(6)
    state = deploy_alley(c, rng)
    positions = alley_positions(state, c.speed, c.tx_cycle_duration, 201)
    assert np.array_equal(positions[0], state.positions)
    assert np.all(positions[..., 0] >= 0)
    assert np.all(positions[..., 0] <= 180.0)
    moved = np.linalg.norm(positions[-1] - positions[0], axis=1)
    assert moved.max() > 0.2     # 200 steps x 2 mm
    # past a full circuit every sub-network is back on its loop's start
    total = state.layout.total_length(0)
    laps = alley_positions(state, total / c.tx_cycle_duration, c.tx_cycle_duration, 2)
    assert np.allclose(laps[1], laps[0])


# ------------------------------------------------------------------- traffic

def test_bernoulli_certain_transmission():
    model = TrafficModel(variant="bernoulli", eta=1.0)
    rng = np.random.default_rng(0)
    proc = TrafficProcess(model, n_sn=8, n_sa=4, dt=1e-3, rng=rng)
    chi = proc.sample_own_slots(proc.activity, rng.random((8, 4)))
    assert chi.shape == (8, 4) and chi.all()      # one slot per SA pair


def test_bernoulli_empirical_rate():
    model = TrafficModel(variant="bernoulli", eta=0.9)
    rng = np.random.default_rng(1)
    proc = TrafficProcess(model, n_sn=25000, n_sa=4, dt=1e-3, rng=rng)
    chi = proc.sample_own_slots(proc.activity, rng.random((25000, 4)))
    n = chi.size
    sigma = np.sqrt(0.9 * 0.1 / n)
    assert n == 100000
    assert abs(chi.mean() - 0.9) < 3 * sigma


def test_push_pull_reserved_slots_map_to_pull_pairs():
    model = TrafficModel(variant="push-pull", eta=1.0, intensity=5.0,
                         n_reserved=2)
    rng = np.random.default_rng(2)
    proc = TrafficProcess(model, n_sn=10, n_sa=6, dt=1e-3, rng=rng)
    chi = proc.sample_own_slots(proc.activity, rng.random((10, 6)))
    assert chi[:, :2].all()                      # eta=1, pull always on
    assert not proc.activity[:, :2].any()        # the burst states are not written
    # eta=1: a push slot carries a transmission exactly during a burst
    assert np.array_equal(chi[:, 2:], proc.activity[:, 2:])


def test_push_burst_duty_cycle_matches_equilibrium():
    from subnetpred.scenario.traffic import (push_start_probability,
                                             push_stop_probability)
    model = TrafficModel(variant="push-pull", eta=1.0, intensity=5.0,
                         n_reserved=2, burst_duration_s=0.2)
    rng = np.random.default_rng(3)
    proc = TrafficProcess(model, n_sn=200, n_sa=6, dt=1e-3, rng=rng)
    activity = proc.step(rng.random((3000, 2, 200, 4)))
    assert np.array_equal(proc.activity, activity[-1])
    duties = activity[:, :, 2:].mean(axis=(1, 2))
    start = push_start_probability(model, 1e-3)
    stop = push_stop_probability(model, 1e-3)
    expect = start / (start + stop)
    assert abs(np.mean(duties) - expect) < 0.05


# ------------------------------------------------------------------- channel

def test_channel_gain_pure_los_and_nlos_limits():
    assert channel_gain(1.0, 2.0, 7.0, 0.5, 0.25) == pytest.approx(1.0)
    assert channel_gain(0.0, 2.0, 7.0, 0.5, 0.25) == pytest.approx(1.75)


def test_channel_gain_deterministic_pathloss_value():
    # hand evaluation of the InF-DL LOS formula at 10 m, 6 GHz
    pl_db = 31.84 + 21.5 * np.log10(10.0) + 19.0 * np.log10(6.0)
    lin = 10 ** (-pl_db / 10.0)
    got = channel_gain(1.0, 1.0, 1.0, db_to_linear(-pathloss_inf_db(10.0, 6e9)),
                       db_to_linear(-pathloss_inf_db(10.0, 6e9, los=False)))
    assert got == pytest.approx(lin, rel=1e-12)


def test_nlos_pathloss_takes_max():
    # at short range the LOS formula dominates the NLOS expression
    assert pathloss_inf_db(1.0, 6e9, los=False) == pytest.approx(
        pathloss_inf_db(1.0, 6e9, los=True))
    assert pathloss_inf_db(100.0, 6e9, los=False) > pathloss_inf_db(100.0, 6e9)


def test_noise_power_reference_value():
    # -174 dBm/Hz + 10 log10(25 MHz) + 5 dB = -95.02 dBm
    n_w = noise_power_w(100e6, 4, 5.0)
    assert 10 * np.log10(n_w * 1e3) == pytest.approx(-95.02, abs=0.01)


def test_fading_coefficient_clarke_value():
    assert fading_coefficient(80.0, 1e-3) == pytest.approx(0.937, abs=0.002)


def test_fading_coefficient_is_scipy_j0_bit_for_bit():
    # Doppler values whose 2 pi f dt covers [0, J0_FIRST_ZERO), including
    # the x < 1e-5 branch
    from scipy.special import j0

    from subnetpred.config import J0_FIRST_ZERO
    dt = 1e-3
    top = J0_FIRST_ZERO / (2.0 * np.pi * dt)
    doppler = np.concatenate([np.linspace(0.0, top, 20000, endpoint=False),
                              np.logspace(-9, -2, 500) * top])
    got = np.array([fading_coefficient(f, dt) for f in doppler])
    np.testing.assert_array_equal(got.view(np.int64),
                                  j0(2.0 * np.pi * doppler * dt).view(np.int64))
    assert (got > 0).all()
    # the rational branch holds on [0, 5] only: 800 Hz at 1 ms is 5.03
    with pytest.raises(ValueError, match="outside"):
        fading_coefficient(800.0, dt)


def test_fading_power_autocorrelation_matches_coefficient():
    rho = fading_coefficient(80.0, 1e-3)
    rng = np.random.default_rng(7)
    proc = ComplexAr1((1,), rho, rng)
    n = 100000
    vals = np.abs(proc.advance(rng.standard_normal((n, 1, 2)))[:, 0]) ** 2
    a, b = vals[:-1], vals[1:]
    corr = np.corrcoef(a, b)[0, 1]
    assert corr == pytest.approx(rho**2, abs=0.05)


def test_shadowing_increment_matches_gudmundson_structure():
    # RMS difference over displacement delta follows sqrt(2 sigma^2 (1-exp(-delta/d)))
    rng = np.random.default_rng(8)
    sigma, dcorr = 4.0, 10.0
    field = Ar1Field(np.full(20000, sigma), dcorr, rng)
    before = field.values.copy()
    delta = 0.1 * dcorr
    field.advance(np.full((1, 20000), delta), rng.standard_normal((1, 20000)))
    rms = np.sqrt(np.mean((field.values - before) ** 2))
    expect = np.sqrt(2 * sigma**2 * (1 - np.exp(-delta / dcorr)))
    assert rms == pytest.approx(expect, rel=0.03)


def test_shadowing_small_step_continuity():
    # sub-centimeter motion moves the field by far less than its std
    rng = np.random.default_rng(9)
    sigma, dcorr = 4.0, 10.0
    field = Ar1Field(np.full(20000, sigma), dcorr, rng)
    before = field.values.copy()
    field.advance(np.full((1, 20000), 0.002), rng.standard_normal((1, 20000)))
    rms = np.sqrt(np.mean((field.values - before) ** 2))
    assert rms < 0.12       # analytic value 0.080 dB at 2 mm
    assert rms == pytest.approx(np.sqrt(2 * sigma**2 * (1 - np.exp(-0.0002))),
                                rel=0.05)


# ---------------------------------------------------------------- full trace

def small_trace(seed=0, traffic=None, n_cycles=400, **kw):
    return simulate_trace(cfg(**kw), traffic or TrafficModel(), CHEAP, n_cycles, seed)


def test_trace_determinism_bit_identical():
    a = small_trace(seed=4)
    b = small_trace(seed=4)
    assert np.array_equal(a.true_power, b.true_power)
    assert np.array_equal(a.est_power, b.est_power)


def test_trace_non_negative_and_est_floor():
    tr = small_trace(seed=5)
    assert tr.true_power.min() >= 0.0
    assert tr.est_power.min() >= CHEAP.power_floor_w


def test_no_active_interferers_means_zero_interference():
    quiet = TrafficModel(variant="push-pull", eta=1.0, intensity=0.0,
                         n_reserved=0)
    c = cfg(sa_pairs_per_sn=4)
    tr = simulate_trace(c, quiet, ChannelParams(est_noise_fraction=0.0), 100, 6)
    assert np.all(tr.true_power == 0.0)


def test_single_interferer_contribution_is_gain():
    c = cfg(n_subnetworks=3, interferer_set_size=2, n_subbands=1, speed=0.0)
    tr = simulate_trace(c, TrafficModel(eta=1.0), DETERMINISTIC, 12, 7)
    # deterministic channel, static geometry: reconstruct the one-term
    # per-SA gains of the single interferer (placement is the first draw)
    state = deploy(c, np.random.default_rng(7))
    intf = interferer_set(state.positions, 0, 2, subband_assignment(3, 1))
    tx = state.positions[intf[0]] + state.offsets[intf[0]]
    dist = np.linalg.norm(tx - state.positions[0], axis=1)
    expected = c.tx_power * db_to_linear(-pathloss_inf_db(dist, c.carrier_freq))
    m = c.sa_pairs_per_sn
    # every victim slot is a convex blend of two adjacent interferer slots,
    # so each cycle's slot powers partition the emitted energy exactly and
    # stay within the per-SA gain envelope
    assert np.allclose(tr.true_power.sum(axis=0), expected.sum())
    assert np.all(tr.true_power >= expected.min() - 1e-18)
    assert np.all(tr.true_power <= expected.max() + 1e-18)
    # schedule drift of one slot per cycle makes the pattern period-M
    assert np.allclose(tr.true_power[:, 0], tr.true_power[:, m])
    assert not np.allclose(tr.true_power[:, 0], tr.true_power[:, 1])


def test_zero_drift_keeps_slot_gains_constant():
    c = cfg(n_subnetworks=3, interferer_set_size=2, n_subbands=1, speed=0.0,
            schedule_drift=0)
    tr = simulate_trace(c, TrafficModel(eta=1.0), DETERMINISTIC, 8, 7)
    assert np.allclose(tr.true_power, tr.true_power[:, :1])


def test_interfering_link_count_matches_set_size():
    # single sub-band: the set size alone fixes the link count at |B| - 1
    full = small_trace(seed=8, n_cycles=10, n_subbands=1)
    assert len(full.meta["interferer_set"]) == 4    # |B| - 1 with |B| = 5
    # reuse 1/4 over 16 SNs leaves a co-channel pool of 3 interferers
    reuse = small_trace(seed=8, n_cycles=10)
    assert len(reuse.meta["interferer_set"]) == 3
    capped = simulate_trace(cfg(n_subnetworks=3, interferer_set_size=2,
                                n_subbands=1),
                            TrafficModel(), CHEAP, 10, 8)
    assert len(capped.meta["interferer_set"]) == 1


def test_interferer_set_prefers_nearest_co_channel():
    state = deploy(cfg(), np.random.default_rng(12))
    bands = subband_assignment(16, 4)
    chosen = interferer_set(state.positions, 0, 5, bands)
    assert all(bands[j] == bands[0] for j in chosen)
    dist = np.linalg.norm(state.positions - state.positions[0], axis=1)
    pool = [j for j in range(16) if j != 0 and bands[j] == bands[0]]
    assert sorted(chosen.tolist()) == sorted(sorted(pool, key=lambda j: dist[j])[:4])


def test_heavy_tail_exceeds_gaussian_surrogate():
    from scipy.stats import kurtosis
    tr = small_trace(seed=9, n_cycles=4000)
    db = tr.est_dbm()
    rng = np.random.default_rng(0)
    for m in range(db.shape[0]):
        surrogate = rng.normal(db[m].mean(), db[m].std(), db[m].size)
        assert kurtosis(db[m]) > kurtosis(surrogate)


def test_predicted_sinr_monotone_in_interference():
    # over-predicted interference lowers the predicted SINR S / (I + N); at
    # eps = 0.5 the blocklength is D / log2(1 + SINR), so the predictor's
    # allocation is no shorter than the genie's
    from subnetpred.ra import evaluate_ra
    tr = small_trace(seed=10, n_cycles=50)
    for t in (0, 10, 49):
        true_i = tr.true_power[0, t]
        rows = evaluate_ra([[true_i * 2 + 1e-12]], [[true_i]],
                           tr.signal_power[:1], tr.noise_power, 200, [0.5])
        assert rows[0]["mean_overhead"] >= 1.0
        assert rows[0]["frac_met"] == 1.0


def test_trace_csv_round_trip(tmp_path):
    import csv as csvmod
    tr = small_trace(seed=11, n_cycles=20)
    path = tmp_path / "trace.csv"
    write_trace_csv(tr, path)
    with open(path) as fh:
        rows = list(csvmod.DictReader(fh))
    assert len(rows) == 20 * 4
    assert float(rows[0]["est_dBm"]) == pytest.approx(tr.est_dbm()[0, 0], abs=1e-5)
    assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]  # no sidecar
