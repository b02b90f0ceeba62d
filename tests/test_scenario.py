"""Scenario simulator contracts: placement, mobility, traffic, channel, and
whole-trace invariants (determinism, non-negativity, heavy tails)."""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import subnetpred
from subnetpred.config import (ChannelParams, DeploymentConfig, TrafficModel,
                               desk_preset)
from subnetpred.rng import tagged_rng
from subnetpred.scenario.channel import (Ar1Field, ComplexAr1, channel_gain,
                                         db_to_linear, fading_coefficient,
                                         noise_power_w, pathloss_inf_db)
from subnetpred.scenario.deploy import PlacementError, deploy
from subnetpred.scenario.mobility import (alley_centers, build_alley_layout,
                                          step_mobility)
from subnetpred.scenario.simulate import (interferer_set, simulate_trace,
                                          subband_assignment, write_trace_csv)
from subnetpred.scenario.traffic import TrafficProcess

# single-look estimates with a 10% noise term (the defaults average eight
# looks), and bernoulli traffic at eta = 0.9
CHEAP = ChannelParams(soft_los_bias=2.0, est_looks=1, est_noise_fraction=0.1)
TRAFFIC = TrafficModel(eta=0.9)
# no shadowing, no NLOS weight and no scattered fading: every link gain is
# its LOS path gain to within 3e-15 relative
DETERMINISTIC = ChannelParams(shadow_std_los_db=0.0, shadow_std_nlos_db=0.0,
                              rician_k_db=300.0, soft_los_bias=50.0,
                              est_looks=1, est_noise_fraction=0.0)


def cfg(**kw):
    base = dict(n_subnetworks=16, sa_pairs_per_sn=4, area=(25.0, 25.0),
                sn_radius=2.0, speed=2.0, min_distance=3.0, n_subbands=4)
    base.update(kw)
    return DeploymentConfig(**base)


# ----------------------------------------------------------------- placement

def test_sn_offsets_within_radius():
    # two sub-networks on one sub-band: the fewest that leave a victim an
    # interferer (n_subnetworks > n_subbands)
    c = cfg(n_subnetworks=2, n_subbands=1)
    state = deploy(c, np.random.default_rng(0))
    assert state.positions.shape == (2, 2)
    assert np.all(np.linalg.norm(state.offsets, axis=-1) <= c.sn_radius)


def test_dense_placement_respects_min_distance():
    state = deploy(cfg(), np.random.default_rng(3))
    d = np.linalg.norm(state.positions[:, None] - state.positions[None], axis=-1)
    np.fill_diagonal(d, np.inf)
    assert d.min() >= 3.0


def test_overpacked_area_raises():
    with pytest.raises(PlacementError):
        deploy(cfg(n_subnetworks=50, area=(5.0, 5.0), sn_radius=1.5),
               np.random.default_rng(0))


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
    c = cfg(n_subnetworks=3, n_subbands=1, min_distance=0.0)
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
    c = cfg(n_subnetworks=6, area=(180.0, 90.0), speed=2.0)
    members = np.arange(c.n_subnetworks)
    positions = alley_centers(c, members, 201)
    assert np.array_equal(positions[0], alley_centers(c, members, 1)[0])
    assert np.all(positions[..., 0] >= 0)
    assert np.all(positions[..., 0] <= 180.0)
    moved = np.linalg.norm(positions[-1] - positions[0], axis=1)
    assert moved.max() > 0.2     # 200 steps x 2 mm
    # past a full circuit every sub-network is back on its loop's start
    total = build_alley_layout(c.area, c.alley_margin).cum_lengths[0][-1]
    laps = alley_centers(replace(c, speed=total / c.tx_cycle_duration), members, 2)
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
    assert channel_gain(1.0, 2.0, 7.0, 0.5, 0.25, 1.0, 1.0) == pytest.approx(1.0)
    assert channel_gain(0.0, 2.0, 7.0, 0.5, 0.25, 1.0, 1.0) == pytest.approx(1.75)


def test_channel_gain_deterministic_pathloss_value():
    # hand evaluation of the InF-DL LOS formula at 10 m, 6 GHz
    pl_db = 31.84 + 21.5 * np.log10(10.0) + 19.0 * np.log10(6.0)
    lin = 10 ** (-pl_db / 10.0)
    pl_los, pl_nlos = pathloss_inf_db(10.0, 6e9)
    got = channel_gain(1.0, 1.0, 1.0, db_to_linear(-pl_los), db_to_linear(-pl_nlos), 1.0, 1.0)
    assert got == pytest.approx(lin, rel=1e-12)


def test_nlos_pathloss_takes_max():
    # at short range the LOS formula dominates the NLOS expression
    pl_los, pl_nlos = pathloss_inf_db(1.0, 6e9)
    assert pl_nlos == pytest.approx(pl_los)
    pl_los, pl_nlos = pathloss_inf_db(100.0, 6e9)
    assert pl_nlos > pl_los
    # spot values of 3GPP TR 38.901 Table 7.4.1-1 (InF) at f = 6 GHz,
    # d the 3D distance in m, f in GHz:
    #   PL_LOS    = 31.84 + 21.5 log10(d) + 19.0 log10(f)
    #   PL_InF-DL = 18.6  + 35.7 log10(d) + 20.0 log10(f)
    #   PL_NLOS   = max(PL_LOS, PL_InF-DL)
    # d = 10 m: 31.84 + 21.5 + 14.7849 = 68.1249 and 18.6 + 35.7 + 15.5630
    # = 69.8630; d = 1 m: 31.84 + 14.7849 = 46.6249 > 18.6 + 15.5630, and
    # below 1 m the distance is clamped to 1 m.  The values are written to
    # 4 decimals, so they hold within 5e-5 dB.
    for d, los, nlos in ((10.0, 68.1249, 69.8630), (1.0, 46.6249, 46.6249),
                         (0.5, 46.6249, 46.6249)):
        pl_los, pl_nlos = pathloss_inf_db(d, 6e9)
        assert pl_los == pytest.approx(los, rel=0, abs=5e-5)
        assert pl_nlos == pytest.approx(nlos, rel=0, abs=5e-5)


def test_noise_power_reference_value():
    # -174 dBm/Hz + 10 log10(25 MHz) + 5 dB = -95.02 dBm
    n_w = noise_power_w(100e6, 4, 5.0)
    assert 10 * np.log10(n_w * 1e3) == pytest.approx(-95.02, abs=0.01)


def test_fading_coefficient_clarke_value():
    assert fading_coefficient(80.0, 1e-3) == pytest.approx(0.937, abs=0.002)


def test_fading_coefficient_is_j0_within_1e_15():
    # the power series against scipy on Doppler values whose 2 pi f dt
    # covers [0, J0_FIRST_ZERO], and against two entries of Abramowitz &
    # Stegun, Table 9.1 (J0 to 15 decimals), at a stated 1e-15 absolute
    from scipy.special import j0

    from subnetpred.config import J0_FIRST_ZERO
    dt = 1e-3
    top = J0_FIRST_ZERO / (2.0 * np.pi * dt)
    doppler = np.concatenate([np.linspace(0.0, top, 20001),
                              np.logspace(-9, -2, 500) * top])
    got = np.array([fading_coefficient(f, dt) for f in doppler])
    np.testing.assert_allclose(got, j0(2.0 * np.pi * doppler * dt), rtol=0, atol=1e-15)
    assert (got[:20000] > 0).all()
    for x, table in ((1.0, 0.765197686557967), (2.0, 0.223890779141236)):
        assert fading_coefficient(x / (2.0 * np.pi * dt), dt) == pytest.approx(
            table, rel=0, abs=1e-15)
    # outside [0, J0_FIRST_ZERO] the coefficient is refused: 800 Hz at 1 ms
    # is 5.03
    with pytest.raises(ValueError, match="outside"):
        fading_coefficient(800.0, dt)


def test_fading_power_autocorrelation_matches_coefficient():
    rho = fading_coefficient(80.0, 1e-3)
    rng = np.random.default_rng(7)
    field = Ar1Field(np.empty(0), 1.0, rng.standard_normal(2))
    proc = ComplexAr1((1,), rho, field.values, 0)
    n = 100000
    states = field.advance(np.empty((n, 0)), proc.advance(rng.standard_normal((n, 2))),
                           np.full((n, 2), rho))
    vals = np.abs(states[:, 0] + 1j * states[:, 1]) ** 2
    a, b = vals[:-1], vals[1:]
    corr = np.corrcoef(a, b)[0, 1]
    assert corr == pytest.approx(rho**2, abs=0.05)


def test_shadowing_increment_matches_gudmundson_structure():
    # RMS difference over displacement delta follows sqrt(2 sigma^2 (1-exp(-delta/d)))
    rng = np.random.default_rng(8)
    sigma, dcorr = 4.0, 10.0
    field = Ar1Field(np.full(20000, sigma), dcorr, rng.standard_normal(20000))
    before = field.values.copy()
    delta = 0.1 * dcorr
    field.advance(np.full((1, 20000), delta), rng.standard_normal((1, 20000)),
                  np.empty((1, 20000)))
    rms = np.sqrt(np.mean((field.values - before) ** 2))
    expect = np.sqrt(2 * sigma**2 * (1 - np.exp(-delta / dcorr)))
    assert rms == pytest.approx(expect, rel=0.03)


def test_shadowing_correlation_over_a_move_is_exponential():
    # one move of dd over n links: the field's values before and after are
    # correlated exp(-dd / d_corr) (Gudmundson).  The sample correlation
    # of n bivariate normal pairs has standard error about (1 - rho^2) /
    # sqrt(n), so it must lie within five of them: 0.0117 at n = 20,000.
    n, dd, dcorr = 20_000, 2.0, 10.0
    rng = np.random.default_rng(12)
    field = Ar1Field(np.full(n, 4.0), dcorr, rng.standard_normal(n))
    before = field.values.copy()
    field.advance(np.full((1, n), dd), rng.standard_normal((1, n)), np.empty((1, n)))
    rho = np.exp(-dd / dcorr)
    assert rho == pytest.approx(0.8187, abs=1e-4)
    tol = 5.0 * (1.0 - rho**2) / np.sqrt(n)
    assert np.corrcoef(before, field.values)[0, 1] == pytest.approx(rho, rel=0, abs=tol)


def test_shadowing_small_step_continuity():
    # sub-centimeter motion moves the field by far less than its std
    rng = np.random.default_rng(9)
    sigma, dcorr = 4.0, 10.0
    field = Ar1Field(np.full(20000, sigma), dcorr, rng.standard_normal(20000))
    before = field.values.copy()
    field.advance(np.full((1, 20000), 0.002), rng.standard_normal((1, 20000)),
                  np.empty((1, 20000)))
    rms = np.sqrt(np.mean((field.values - before) ** 2))
    assert rms < 0.12       # analytic value 0.080 dB at 2 mm
    assert rms == pytest.approx(np.sqrt(2 * sigma**2 * (1 - np.exp(-0.0002))),
                                rel=0.05)


# ---------------------------------------------------------------- full trace

def small_trace(seed=0, traffic=None, n_cycles=400, **kw):
    return simulate_trace(cfg(**kw), traffic or TRAFFIC, CHEAP, n_cycles, seed, "rdmm")


def test_trace_determinism_bit_identical():
    a = small_trace(seed=4)
    b = small_trace(seed=4)
    assert np.array_equal(a.true_power, b.true_power)
    assert np.array_equal(a.est_power, b.est_power)


def test_components_draw_from_streams_of_their_own():
    # at one seed a desk rdmm trace and an alley trace are placed and move
    # apart, but draw the same estimation noise from the noise stream: the
    # noise each adds, in units of its std, agrees wherever neither
    # estimate was clamped at the power floor
    desk = desk_preset(3)
    rdmm, alley = (simulate_trace(desk.deployment, desk.traffic, desk.channel,
                                  1000, desk.seed, mobility=mobility)
                   for mobility in ("rdmm", "alley"))
    floor = desk.channel.power_floor_w
    kept = (rdmm.est_power > floor) & (alley.est_power > floor)
    assert kept.mean() > 0.5
    rdmm_z, alley_z = ((t.est_power - t.true_power)[kept] / t.est_noise_std
                       for t in (rdmm, alley))
    np.testing.assert_allclose(rdmm_z, alley_z, rtol=1e-6)
    assert not np.allclose(rdmm.true_power, alley.true_power)


def test_trace_non_negative_and_est_floor():
    tr = small_trace(seed=5)
    assert tr.true_power.min() >= 0.0
    assert tr.est_power.min() >= CHEAP.power_floor_w


@pytest.mark.parametrize("mobility", ("rdmm", "alley"))
def test_noiseless_estimate_is_the_true_power_at_its_floor(mobility):
    # with no estimation noise the estimate is the true power clamped at
    # the floor, bit for bit; at eta = 0.3 with one interferer some slots
    # are silent, so the floor is reached
    c = cfg(n_subnetworks=8, n_subbands=4)
    channel = replace(CHEAP, est_noise_fraction=0.0)
    tr = simulate_trace(c, TrafficModel(eta=0.3), channel, 400, 8, mobility)
    assert tr.est_noise_std == 0.0
    assert (tr.true_power == 0.0).any() and (tr.true_power > 0.0).any()
    want = np.maximum(tr.true_power, channel.power_floor_w)
    assert tr.est_power.tobytes() == want.tobytes()


def test_no_active_interferers_means_zero_interference():
    quiet = TrafficModel(variant="push-pull", eta=1.0, intensity=0.0,
                         n_reserved=0)
    c = cfg(sa_pairs_per_sn=4)
    tr = simulate_trace(c, quiet, replace(CHEAP, est_noise_fraction=0.0), 100, 6, "rdmm")
    assert np.all(tr.true_power == 0.0)


def test_single_interferer_contribution_is_gain():
    c = cfg(n_subnetworks=2, n_subbands=1, speed=0.0)
    tr = simulate_trace(c, TrafficModel(eta=1.0), DETERMINISTIC, 12, 7, "rdmm")
    # deterministic channel, static geometry: reconstruct the one-term
    # per-SA gains of the single interferer (placement is the first draw
    # of the mobility stream)
    state = deploy(c, tagged_rng(7, "mobility"))
    intf = interferer_set(state.positions, 0, subband_assignment(2, 1))
    tx = state.positions[intf[0]] + state.offsets[intf[0]]
    dist = np.linalg.norm(tx - state.positions[0], axis=1)
    expected = c.tx_power * db_to_linear(-pathloss_inf_db(dist, c.carrier_freq)[0])
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
    c = cfg(n_subnetworks=2, n_subbands=1, speed=0.0, schedule_drift=0)
    tr = simulate_trace(c, TrafficModel(eta=1.0), DETERMINISTIC, 8, 7, "rdmm")
    assert np.allclose(tr.true_power, tr.true_power[:, :1])


def test_interfering_link_count_matches_set_size():
    # every other sub-network on the victim's sub-band interferes: one band
    # over 16 SNs gives 15 links, and reuse 1/4 gives 16 / 4 - 1 = 3
    full = small_trace(seed=8, n_cycles=10, n_subbands=1)
    assert len(full.meta["interferer_set"]) == 15
    reuse = small_trace(seed=8, n_cycles=10)
    assert len(reuse.meta["interferer_set"]) == 3


@pytest.mark.parametrize("mobility", ["rdmm", "alley"])
def test_desk_trace_peak_memory_is_bounded(mobility):
    # pass 2 runs block by block and alley positions cover the members only:
    # a 10,000-cycle desk trace peaks at about 3.4-3.7 MiB, against 10.7 (rdmm)
    # and 11.4 MiB (alley) with pass 2 over all cycles at once
    desk = desk_preset(0)
    tracemalloc.start()
    try:
        simulate_trace(desk.deployment, desk.traffic, desk.channel, 10_000,
                       desk.seed, mobility=mobility)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


# three 10,000-cycle desk traces (rdmm, push-pull) in one process; prints
# the minor page faults of the third
WARM_TRACE_FAULTS = """
import resource
from dataclasses import replace
from subnetpred.config import desk_preset
from subnetpred.scenario.simulate import simulate_trace
desk = desk_preset(0)
traffic = replace(desk.traffic, variant="push-pull", n_reserved=2, intensity=5.0)
for k in range(3):
    if k == 2:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    simulate_trace(desk.deployment, traffic, desk.channel, 10_000, desk.seed, "rdmm")
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

# the minor page faults of a fresh process's first 10,000-cycle desk rdmm
# trace
FIRST_TRACE_FAULTS = """
import resource
from subnetpred.config import desk_preset
from subnetpred.scenario.simulate import simulate_trace
desk = desk_preset(0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
simulate_trace(desk.deployment, desk.traffic, desk.channel, 10_000, desk.seed, "rdmm")
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _faults_in_fresh_process(script):
    # a fresh process, because a large free made earlier in this one would
    # hide the churn
    src = str(Path(subnetpred.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         check=True, capture_output=True, text=True).stdout
    return int(out)


def test_warm_desk_trace_reuses_its_block_buffers():
    # every block of simulate_trace writes into buffers allocated once per
    # trace; when each block allocated and freed its own 768 KB of complex
    # temporaries, the allocator handed them back to the system and faulted
    # them in again: about 17,000 minor faults per warm trace, against about
    # 600
    assert _faults_in_fresh_process(WARM_TRACE_FAULTS) <= 5_000


def test_first_desk_trace_keeps_its_free_run_temporaries_on_the_heap():
    # a free run's temporaries, its [HORIZON x 2 x N] steps and positions
    # and the distances of the pairs within reach of a crowding, stay far
    # below the allocator's initial mmap threshold (128 KiB), so the free
    # runs of a process's first trace reuse the heap; when a run formed all
    # N x N distances in fresh 128 KiB arrays (HORIZON = 64, 16
    # sub-networks), each run mapped and faulted them in: about 18,000 minor
    # faults, against about 1,350
    assert _faults_in_fresh_process(FIRST_TRACE_FAULTS) <= 5_000


def test_interferer_set_prefers_nearest_co_channel():
    state = deploy(cfg(), np.random.default_rng(12))
    bands = subband_assignment(16, 4)
    chosen = interferer_set(state.positions, 0, bands)
    # the whole co-channel band, nearest first
    dist = np.linalg.norm(state.positions - state.positions[0], axis=1)
    pool = [j for j in range(16) if j != 0 and bands[j] == bands[0]]
    assert chosen.tolist() == sorted(pool, key=lambda j: dist[j])
    assert len(pool) == 3 and np.all(np.diff(dist[chosen]) > 0)


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
