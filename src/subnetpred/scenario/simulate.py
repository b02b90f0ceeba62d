"""End-to-end interference trace generation for one victim sub-network.

Per TX cycle: mobility step, correlated channel updates, slot-level traffic
of the co-channel interferers, and the resulting interference power at the
victim controller for each of its SA-pair slots.  Estimation noise is added
in the linear power domain afterwards and clamped at a positive floor so
the dB conversion is total.  simulate_trace computes the cycles in two
passes: one that steps through them and one vectorized over each block of
them, in buffers allocated once per trace.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..config import spec_to_dict
from . import channel as ch
from .deploy import deploy
from .mobility import alley_positions, deploy_alley, free_run, step_mobility
from .traffic import TrafficProcess


@dataclass
class InterferenceTrace:
    """True and noise-corrupted interference per victim SA pair and cycle."""

    true_power: np.ndarray        # [M x T] watts
    est_power: np.ndarray         # [M x T] watts, clamped at floor
    signal_power: np.ndarray      # [M] watts, constant per SA pair
    noise_power: float            # watts over one sub-band
    est_noise_std: float          # watts
    seed: int
    meta: dict

    @property
    def n_series(self):
        return self.true_power.shape[0]

    @property
    def n_cycles(self):
        return self.true_power.shape[1]

    def est_dbm(self, floor=1e-20):
        return ch.watts_to_dbm(self.est_power, floor)

    def true_dbm(self):
        return ch.watts_to_dbm(self.true_power)


def subband_assignment(n_subnetworks, n_subbands):
    """Round-robin sub-band colors in deployment order (reuse 1/n_subbands)."""
    return np.arange(n_subnetworks) % n_subbands


def interferer_set(positions, victim, set_size, bands):
    """Interfering members of the victim's co-channel set.

    The set is the victim plus its nearest sub-networks on the same
    sub-band, at most set_size members in total.  Returns the interferer
    indices (victim excluded), possibly fewer than set_size - 1 when the
    co-channel pool is small.
    """
    dist = np.linalg.norm(positions - positions[victim], axis=1)
    order = np.argsort(dist)
    pool = [i for i in order if i != victim and bands[i] == bands[victim]]
    return np.array(pool[:max(set_size - 1, 0)], dtype=int)


def _link_motion(delta):
    """Relative and mean displacement of each interferer-victim link, given
    the displacements delta [... x (n_int + 1) x 2] of the interferers'
    centers and, last, the victim's."""
    own = delta[..., -1:, :]
    return (ch.planar_norm(delta[..., :-1, :] - own),
            ch.planar_norm((delta[..., :-1, :] + own) / 2.0))


# the sub-network whose interference is simulated
VICTIM = 0
# leading share of the trace whose mean true power sets the estimation
# noise level (a train-prefix statistic)
NOISE_REF_FRACTION = 0.7
# cycles per block: the block's draws become states, and its states power,
# at once, and its buffers stay small next to the trace's own arrays (a
# 10,000-cycle desk trace peaks at 3.4-3.7 MiB of Python allocation)
BLOCK = 250
# rdmm steps per free run (mobility.free_run): FIRST after an event, twice
# as many after each run that met none, at most HORIZON.  A run costs about
# 45 us plus 2 us a step, and the steps past its event are dropped.  On desk
# rdmm traces (seeds 0, 7, 811, both traffic patterns) any cap from 16 to
# 128 gives the same 0.34-0.35 s a trace (8: 0.41 s, 256: 0.36 s); 32 keeps
# the runs' distance buffer, [2 x HORIZON x N x N] float64, at 128 KiB for
# 16 sub-networks.  Starting at 4 keeps a crowded floor, with an event about
# every other step, at the speed of stepping every cycle (1.34 s for 10k
# cycles against 1.42 s).
HORIZON = 32
FIRST = 4


def _look_power(fading, out):
    """Summed power of the fading looks [... x looks] of each link; the
    looks' powers go through out, a float buffer of fading's shape."""
    np.square(np.abs(fading, out=out), out=out)
    return np.add.reduce(out, axis=-1)


def simulate_trace(deployment, traffic, channel_params, n_cycles, seed,
                   mobility="rdmm"):
    """Simulate the estimated-interference time series of one sub-network.

    Deterministic given seed.  Every sub-network has one TDD slot per SA
    pair, and every link has shadowing, a soft-LOS weight and Rician LOS
    and Rayleigh NLOS fading.  The estimation noise std is
    channel_params.est_noise_fraction times the mean true power over the
    leading NOISE_REF_FRACTION of the trace.

    The cycles run in two passes.  Pass 1 makes every draw from the trace's
    generator, in the order of a cycle-by-cycle simulation, so the stream
    and the trace do not depend on how the cycles are grouped.  It runs in
    blocks of BLOCK cycles.  Per cycle it makes only the draws: those of an
    rdmm mobility step, then one standard-normal fill of a row holding all
    of the cycle's normals (shadowing LOS, shadowing NLOS, soft-LOS latent,
    then the LOS and NLOS fading, real parts before imaginary), then one
    uniform fill of a row holding its traffic uniforms (push starts, push
    stops, then the Bern(eta) draws).  A fill equals the consecutive
    smaller draws it replaces.  Cycle 0 keeps the initial states and draws
    only its Bern(eta) uniforms.  An rdmm step draws only when it reflects
    at the border or crowds another sub-network (an event), so pass 1 takes
    the positions of the steps between events from free runs
    (mobility.free_run, at most HORIZON steps each) and calls step_mobility
    only at the event cycles; the draw order is that of stepping every
    cycle.  Alley positions draw nothing and are computed up front, for
    the interferers and the victim only.  Per block, the rows become states
    at once, with two AR(1) recursions: one over the three real fields of
    every link (shadowing LOS and NLOS and the soft-LOS latent), one over
    the LOS and NLOS fading, which share their coefficient; then the push
    bursts, in one scan (TrafficProcess.step).  Pass 2 then runs on the
    same block (cycle 0 is a block of its own), so no gain or slot array
    ever spans all cycles: the fading looks' power sums, path loss,
    shadowing and soft-LOS transforms, link gains, the TDD misalignment and
    the slot sums, written into the block's columns of the true power.

    The trace owns its block-sized buffers and allocates them once: the
    rows of draws, the fading states (ComplexAr1.advance forms the drive
    in them and runs the recursion over it), the Rician sum of the LOS
    fading and the looks' powers, and the free runs' pairwise distances.
    Every block and every free run writes into them, so neither frees a
    large array for the allocator to hand back to the system and fault in
    again.
    """
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    rng = np.random.default_rng(seed)
    n_sa = deployment.sa_pairs_per_sn
    dt = deployment.tx_cycle_duration

    if mobility == "alley":
        state = deploy_alley(deployment, rng)
    else:
        state = deploy(deployment, rng)

    bands = subband_assignment(deployment.n_subnetworks, deployment.n_subbands)
    intf = interferer_set(state.positions, VICTIM,
                          deployment.interferer_set_size, bands)
    n_int = intf.size
    if n_int == 0:
        raise ValueError("interferer set is empty; nothing to simulate")

    k_lin = ch.db_to_linear(channel_params.rician_k_db)
    rho_f = ch.fading_coefficient(channel_params.doppler_hz, dt)
    # one real field over the shadowing LOS, the shadowing NLOS and the
    # soft-LOS latent of every link, in the order of their draws
    stds = np.repeat([channel_params.shadow_std_los_db,
                      channel_params.shadow_std_nlos_db, 1.0], n_int)
    real_field = ch.Ar1Field(stds, channel_params.decorrelation_distance, rng)
    n_real = stds.size
    # independent fading looks per link (frequency/pilot diversity of the
    # slot power estimate); the measured power averages their energies.
    # One process holds the LOS and then the NLOS fading.
    looks = channel_params.est_looks
    fade_shape = (2, n_int, n_sa, looks)
    fades = ch.ComplexAr1(fade_shape, rho_f, rng)
    specular = ch.los_specular(k_lin, rng.uniform(0.0, 2.0 * np.pi,
                                                  (n_int, n_sa, looks)))

    traffic_proc = TrafficProcess(traffic, n_int, n_sa, dt, rng)
    # TDD misalignment of non-synchronized sub-networks: every interferer's
    # slot grid sits at a fractional offset (partial slot collisions) and
    # drifts by schedule_drift slots per TX cycle
    clock_offset = rng.uniform(0.0, n_sa, n_int)

    # ---- pass 1: every draw, cycle by cycle; the states, block by block
    # centers of the interferers, then the victim, per cycle
    members = np.append(intf, VICTIM)
    if mobility == "alley":
        centers = alley_positions(
            replace(state, path_ids=state.path_ids[members],
                    arc_positions=state.arc_positions[members]),
            deployment.speed, dt, n_cycles)
    else:
        centers = np.empty((n_cycles, n_int + 1, 2))
        centers[0] = state.positions[members]
    offsets = state.offsets[intf]
    step = deployment.speed * dt
    guard = deployment.min_distance + 2.0 * step

    work = np.empty((2, HORIZON) + (deployment.n_subnetworks,) * 2)

    def free_cycles(t):
        """Fill the centers from cycle t on with free-run positions, up to
        the next rdmm event; returns the event's cycle (n_cycles if none)."""
        nonlocal state
        longest = FIRST
        while t < n_cycles:
            horizon = min(longest, n_cycles - t)
            positions, headings = free_run(state, step, guard, horizon, work)
            k = len(positions)
            if k:
                centers[t:t + k] = positions[:, members]
                state = replace(state, positions=positions[-1],
                                headings=headings[-1])
            t += k
            if k < horizon:
                break
            longest = min(2 * longest, HORIZON)
        return t

    # the block buffers, laid out and owned as the docstring states: per
    # cycle one row of normals, one of uniforms, the fading states, the
    # Rician sum of the LOS fading and the looks' powers
    normals = np.empty((BLOCK, n_real + 2 * fades.values.size))
    n_push = 2 * n_int * traffic_proc.n_push
    uniforms = np.empty((BLOCK, n_push + n_int * n_sa))
    fading_buf = np.empty((BLOCK,) + fade_shape, dtype=complex)
    los_buf = np.empty((BLOCK,) + fade_shape[1:], dtype=complex)
    power_buf = np.empty((BLOCK,) + fade_shape[1:])
    true_power = np.empty((n_sa, n_cycles))

    def block_power(start, reals, fading, chi):
        """Pass 2 of the cycles from start on, given their states: the real
        fields [b x n_real], the LOS and NLOS fading [b x 2 x ...] and the
        slot occupancy [b x n_int x n_sa]; writes their true power."""
        b = len(reals)
        stop = start + b
        c = centers[start:stop]
        # per-link gains toward every SA position of each interferer
        dist = ch.planar_norm(c[:, :-1, None, :] + offsets - c[:, -1, None, None, :])
        pl_los = ch.db_to_linear(-ch.pathloss_inf_db(dist, deployment.carrier_freq, los=True))
        pl_nlos = ch.db_to_linear(-ch.pathloss_inf_db(dist, deployment.carrier_freq, los=False))
        # mean fading power over the looks
        h_los = _look_power(ch.rician(fading[:, 0], k_lin, specular, los_buf[:b]),
                            power_buf[:b]) / looks
        h_nlos = _look_power(fading[:, 1], power_buf[:b]) / looks
        psi = ch.soft_los_weight(reals[:, -n_int:] + channel_params.soft_los_bias)[:, :, None]
        sh_los = ch.db_to_linear(reals[:, :n_int])[:, :, None]
        sh_nlos = ch.db_to_linear(reals[:, n_int:2 * n_int])[:, :, None]
        gain = ch.channel_gain(psi, h_los, h_nlos, pl_los, pl_nlos, sh_los, sh_nlos)
        # slot k of every interferer belongs to its SA pair k
        emitted = deployment.tx_power * chi * gain
        # victim slot m overlaps two adjacent interferer slots when the
        # grids are fractionally misaligned; interference is the
        # time-share-weighted sum of both occupants
        phase = clock_offset + (np.arange(start, stop) * deployment.schedule_drift)[:, None]
        u = (np.arange(n_sa) - phase[:, :, None]) % n_sa
        k1 = np.floor(u)
        w2 = u - k1
        k1 = k1.astype(int) % n_sa
        k2 = (k1 + 1) % n_sa
        contrib = ((1.0 - w2) * np.take_along_axis(emitted, k1, axis=2)
                   + w2 * np.take_along_axis(emitted, k2, axis=2))
        true_power[:, start:stop] = np.add.reduce(contrib, axis=1).T

    def block_states(start, stop):
        """Turn the rows of draws of cycles [start, stop) into their states,
        then their true power."""
        b = stop - start
        rel, mid = _link_motion(centers[start:stop] - centers[start - 1:stop - 1])
        reals = real_field.advance(np.concatenate([rel, rel, mid], axis=1),
                                   normals[:b, :n_real])
        fading = fades.advance(normals[:b, n_real:].reshape((b, 2, 2) + fade_shape[1:]),
                               fading_buf[:b])
        activity = traffic_proc.step(
            uniforms[:b, :n_push].reshape(b, 2, n_int, traffic_proc.n_push))
        chi = traffic_proc.sample_own_slots(
            activity, uniforms[:b, n_push:].reshape(b, n_int, n_sa))
        block_power(start, reals, fading, chi)

    chi = traffic_proc.sample_own_slots(
        traffic_proc.activity,
        rng.random(out=uniforms[0, n_push:]).reshape(n_int, n_sa))
    block_power(0, real_field.values[None], fades.values[None], chi[None])
    event = n_cycles if mobility == "alley" else free_cycles(1)
    for start in range(1, n_cycles, BLOCK):
        stop = min(start + BLOCK, n_cycles)
        for i in range(stop - start):
            if start + i == event:
                state = step_mobility(state, deployment.speed, dt,
                                      deployment.min_distance, rng)
                centers[event] = state.positions[members]
                event = free_cycles(event + 1)
            rng.standard_normal(out=normals[i])
            rng.random(out=uniforms[i])
        block_states(start, stop)
    del normals, uniforms, fading_buf, los_buf, power_buf

    ref = max(int(NOISE_REF_FRACTION * n_cycles), 1)
    est_noise_std = channel_params.est_noise_fraction * float(true_power[:, :ref].mean())
    est_power = true_power + rng.normal(0.0, est_noise_std, true_power.shape) \
        if est_noise_std > 0 else true_power.copy()
    est_power = np.maximum(est_power, channel_params.power_floor_w)

    sa_dist = np.linalg.norm(state.offsets[VICTIM], axis=1)
    signal_power = deployment.tx_power * ch.db_to_linear(
        -ch.pathloss_inf_db(sa_dist, deployment.carrier_freq, los=True))
    noise_power = ch.noise_power_w(channel_params.bandwidth_hz,
                                   deployment.n_subbands,
                                   channel_params.noise_figure_db)

    meta = {
        "deployment": spec_to_dict(deployment),
        "traffic": spec_to_dict(traffic),
        "channel": spec_to_dict(channel_params),
        "mobility": mobility,
        "victim": VICTIM,
        "n_cycles": n_cycles,
        "interferer_set": intf.tolist(),
    }
    return InterferenceTrace(true_power=true_power, est_power=est_power,
                             signal_power=signal_power,
                             noise_power=float(noise_power),
                             est_noise_std=float(est_noise_std),
                             seed=seed, meta=meta)


def save_trace(trace, stem):
    """Write the arrays and scalars as one npz and `meta` as JSON, both
    named after stem; load_trace reads them back bit for bit."""
    stem = Path(stem)
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(trace.meta, fh, indent=2)
    np.savez(stem.with_suffix(".npz"), true_power=trace.true_power,
             est_power=trace.est_power, signal_power=trace.signal_power,
             noise_power=trace.noise_power, est_noise_std=trace.est_noise_std,
             seed=trace.seed)


def load_trace(stem):
    stem = Path(stem)
    with open(stem.with_suffix(".json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    with np.load(stem.with_suffix(".npz")) as arrays:
        return InterferenceTrace(
            true_power=arrays["true_power"], est_power=arrays["est_power"],
            signal_power=arrays["signal_power"],
            noise_power=float(arrays["noise_power"]),
            est_noise_std=float(arrays["est_noise_std"]),
            seed=int(arrays["seed"]), meta=meta)


def write_trace_csv(trace, path):
    """CSV export: cycle,slot,sa_index,true_dBm,est_dBm,signal_dBm.  No
    command calls it; it stays because perfbench's traced run wraps it and
    counts a missing wrapped function as a failed check."""
    true_dbm = trace.true_dbm()
    est_dbm = trace.est_dbm()
    sig_dbm = ch.watts_to_dbm(trace.signal_power)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cycle", "slot", "sa_index", "true_dBm", "est_dBm",
                         "signal_dBm"])
        for t in range(trace.n_cycles):
            for m in range(trace.n_series):
                writer.writerow([t, m, m, f"{true_dbm[m, t]:.6f}",
                                 f"{est_dbm[m, t]:.6f}", f"{sig_dbm[m]:.6f}"])
