"""End-to-end interference trace generation for one victim sub-network.

Per TX cycle: mobility step, correlated channel updates, slot-level traffic
of the co-channel interferers, and the resulting interference power at the
victim controller for each of its SA-pair slots.  Estimation noise is added
in the linear power domain afterwards and clamped at a positive floor so
the dB conversion is total.  simulate_trace draws from one random stream
per component, computes the trajectory up front, and then the cycles block
by block, in buffers allocated once per trace.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..config import spec_to_dict
from ..rng import tagged_rng
from . import channel as ch
from .deploy import deploy, disc_offsets
from .mobility import alley_centers, free_run, step_mobility
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


def interferer_set(positions, victim, bands):
    """Indices of every other sub-network on the victim's sub-band, nearest
    to the victim first at positions.  The order is the per-link layout of
    simulate_trace's draws and states."""
    dist = np.linalg.norm(positions - positions[victim], axis=1)
    order = np.argsort(dist)
    return np.array([i for i in order if i != victim and bands[i] == bands[victim]],
                    dtype=int)


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
# cycles per block: the block's rows of normals become its states in place,
# by one recursion, and its states power, at once; its buffers stay small
# next to the trace's own arrays (a 10,000-cycle desk trace peaks at 3.4 MiB)
BLOCK = 250
# rdmm steps per free run (mobility.free_run); an event ends a run early,
# and the steps past it are dropped.  A run forms the distances of only the
# pairs that start within its reach, so on a desk floor a longer run costs
# little: a 10,000-cycle desk trajectory (seeds 0 and 7) takes about 21, 19,
# 18, 17 and 16 ms at horizons 32, 48, 64, 80 and 96, against 30 ms when
# every run formed all N x N distances at 32.  On a crowded floor, with an
# event about every other step and most pairs in reach, the dropped steps
# cost more as the horizon grows: 10,000 cycles take 0.72 s at 48, 0.76 s
# at 64, as the unscreened runs at 32 did, and about 15% more at 80.  64 is
# the longest horizon that does not slow that floor.
HORIZON = 64


def _look_power(fading, out):
    """Summed power of the fading looks [... x looks] of each link; the
    looks' powers go through out, a float buffer of fading's shape."""
    np.square(np.abs(fading, out=out), out=out)
    return np.add.reduce(out, axis=-1)


def _rdmm_centers(state, deployment, members, n_cycles, rng):
    """Centers [n_cycles x members x 2] of the sub-networks members along
    an rdmm trajectory from state.  The steps between events come from
    free runs (mobility.free_run) of at most HORIZON steps; step_mobility,
    drawing from rng, takes each event step."""
    speed, dt, min_distance = (deployment.speed, deployment.tx_cycle_duration,
                               deployment.min_distance)
    step = speed * dt
    guard = min_distance + 2.0 * step
    centers = np.empty((n_cycles, members.size, 2))
    centers[0] = state.positions[members]
    t = 1
    while t < n_cycles:
        horizon = min(HORIZON, n_cycles - t)
        positions, headings = free_run(state, step, guard, horizon)
        k = len(positions)
        if k:
            centers[t:t + k] = positions[:, members]
            state = replace(state, positions=positions[-1], headings=headings[-1])
        t += k
        if k < horizon:
            state = step_mobility(state, speed, dt, min_distance, rng)
            centers[t] = state.positions[members]
            t += 1
    return centers


def simulate_trace(deployment, traffic, channel_params, n_cycles, seed, mobility):
    """Simulate the estimated-interference time series of one sub-network.

    Deterministic given seed.  Every sub-network has one TDD slot per SA
    pair, and every link has shadowing, a soft-LOS weight and Rician LOS
    and Rayleigh NLOS fading.  The estimation noise std is
    channel_params.est_noise_fraction times the mean true power over the
    leading NOISE_REF_FRACTION of the trace.

    Each component draws from a stream of its own, rng.tagged_rng(seed,
    name) with the component's name, so its draws do not depend on what
    the others drew, or on how the cycles are grouped:

    - mobility: the placement (deploy, or the alley's SA offsets), then
      rdmm's event steps in cycle order.  An rdmm step draws only when it
      reflects at the border or crowds another sub-network (an event), so
      the trajectory is computed up front: free runs (mobility.free_run)
      of at most HORIZON steps between the events, step_mobility at them.
      An alley center is a function of its sub-network's index and the
      cycle (mobility.alley_centers) and draws nothing.  Both trajectories
      cover the interferers and the victim only.
    - channel: the initial real fields (shadowing LOS, shadowing NLOS and
      soft-LOS latent of every link), the initial LOS and NLOS fading,
      the LOS phases, then per cycle one row of standard normals in the
      same layout: the three real fields, then the LOS and NLOS fading,
      real parts before imaginary.
    - traffic: the initial push bursts, the clock offsets, cycle 0's
      Bern(eta) uniforms, then per cycle one row of uniforms: push starts,
      push stops, then the Bern(eta) draws.
    - noise: the estimation noise of every SA pair and cycle.

    Cycle 0 keeps the initial states.  The later cycles run in blocks of
    BLOCK cycles; each block fills its rows of normals and of uniforms
    with one call per stream, which equals the row-by-row draws it
    replaces.  Pass 1 turns the rows of normals into states in place, with
    one AR(1) recursion over the whole row (Ar1Field.advance): the three
    real fields of every link take exp(-move / d_corr), and the LOS and
    NLOS fading's (re, im) floats take their shared coefficient, once
    ComplexAr1.advance has scaled their normals into the drive; then the
    push bursts, in one scan (TrafficProcess.step).  Pass 2 then runs on the
    same block (cycle 0 is a block of its own), so no gain or slot array
    ever spans all cycles: the fading looks' power sums, path loss,
    shadowing and soft-LOS transforms, link gains, the TDD misalignment
    and the slot sums, written into the block's columns of the true power.

    The trace owns its block-sized buffers and allocates them once: the
    rows of draws, which become the states, the rows of coefficients, the
    complex looks of one link kind (the Rician sum of the LOS fading, then
    the NLOS fading, the one complex array, which _look_power reads) and
    their powers.  Every block writes into them, so none frees a large
    array for the allocator to hand back to the system and fault in again.
    """
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    rng_mobility, rng_channel, rng_traffic, rng_noise = (
        tagged_rng(seed, name) for name in ("mobility", "channel", "traffic", "noise"))
    n_sn = deployment.n_subnetworks
    n_sa = deployment.sa_pairs_per_sn
    dt = deployment.tx_cycle_duration

    if mobility == "alley":
        positions = alley_centers(deployment, np.arange(n_sn), 1)[0]
        offsets = disc_offsets(n_sn, n_sa, deployment.sn_radius, rng_mobility)
    else:
        state = deploy(deployment, rng_mobility)
        positions, offsets = state.positions, state.offsets

    bands = subband_assignment(n_sn, deployment.n_subbands)
    intf = interferer_set(positions, VICTIM, bands)
    n_int = intf.size

    k_lin = ch.db_to_linear(channel_params.rician_k_db)
    rho_f = ch.fading_coefficient(channel_params.doppler_hz, dt)
    # one row of AR(1) values, in the order of their draws: a real field
    # over the shadowing LOS, the shadowing NLOS and the soft-LOS latent of
    # every link, then the LOS and NLOS fading.  The fading has independent
    # looks per link (frequency/pilot diversity of the slot power
    # estimate); the measured power averages their energies.
    stds = np.repeat([channel_params.shadow_std_los_db,
                      channel_params.shadow_std_nlos_db, 1.0], n_int)
    n_real = stds.size
    looks = channel_params.est_looks
    fade_shape = (2, n_int, n_sa, looks)
    n_row = n_real + 4 * n_int * n_sa * looks
    real_field = ch.Ar1Field(stds, channel_params.decorrelation_distance,
                             rng_channel.standard_normal(n_row))
    fades = ch.ComplexAr1(fade_shape, rho_f, real_field.values[n_real:], n_real)
    specular = ch.los_specular(k_lin, rng_channel.uniform(0.0, 2.0 * np.pi,
                                                          (n_int, n_sa, looks)))
    scatter = np.sqrt(1.0 / (k_lin + 1.0))

    traffic_proc = TrafficProcess(traffic, n_int, n_sa, dt, rng_traffic)
    # TDD misalignment of non-synchronized sub-networks: every interferer's
    # slot grid sits at a fractional offset (partial slot collisions) and
    # drifts by schedule_drift slots per TX cycle
    clock_offset = rng_traffic.uniform(0.0, n_sa, n_int)

    # centers of the interferers, then the victim, per cycle
    members = np.append(intf, VICTIM)
    if mobility == "alley":
        centers = alley_centers(deployment, members, n_cycles)
    else:
        centers = _rdmm_centers(state, deployment, members, n_cycles, rng_mobility)
    intf_offsets = offsets[intf]

    # the block buffers, laid out and owned as the docstring states: per
    # cycle one row of normals (then states), one of coefficients, whose
    # fading columns hold rho_f throughout, and one of uniforms; the looks
    # of one link kind, complex, and their powers
    normals = np.empty((BLOCK, n_row))
    coef = np.empty((BLOCK, n_row))
    coef[:, n_real:] = rho_f
    n_push = 2 * n_int * traffic_proc.n_push
    uniforms = np.empty((BLOCK, n_push + n_int * n_sa))
    looks_buf = np.empty((BLOCK,) + fade_shape[1:], dtype=complex)
    power_buf = np.empty((BLOCK,) + fade_shape[1:])
    true_power = np.empty((n_sa, n_cycles))

    def block_power(start, reals, fading, chi):
        """Pass 2 of the cycles from start on, given their states: the real
        fields [b x n_real], the LOS and NLOS fading as (re, im) floats [b
        x 2 x 2 x ...] and the slot occupancy [b x n_int x n_sa]; writes
        their true power."""
        b = len(reals)
        stop = start + b
        c = centers[start:stop]
        # per-link gains toward every SA position of each interferer
        dist = ch.planar_norm(c[:, :-1, None, :] + intf_offsets - c[:, -1, None, None, :])
        pl_los, pl_nlos = (ch.db_to_linear(-pl)
                           for pl in ch.pathloss_inf_db(dist, deployment.carrier_freq))
        # mean fading power over the looks: the Rician sum of the LOS
        # fading, sqrt(1/(K+1)) h plus the specular term, then the NLOS
        h = looks_buf[:b]
        for part, spec, fade in ((h.real, specular.real, fading[:, 0, 0]),
                                 (h.imag, specular.imag, fading[:, 0, 1])):
            np.add(spec, np.multiply(scatter, fade, out=part), out=part)
        h_los = _look_power(h, power_buf[:b]) / looks
        h.real, h.imag = fading[:, 1, 0], fading[:, 1, 1]
        h_nlos = _look_power(h, power_buf[:b]) / looks
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

    chi = traffic_proc.sample_own_slots(
        traffic_proc.activity,
        rng_traffic.random(out=uniforms[0, n_push:]).reshape(n_int, n_sa))
    block_power(0, real_field.values[None, :n_real], fades.values[None], chi[None])
    for start in range(1, n_cycles, BLOCK):
        stop = min(start + BLOCK, n_cycles)
        b = stop - start
        rng_channel.standard_normal(out=normals[:b])
        rng_traffic.random(out=uniforms[:b])
        rel, mid = _link_motion(centers[start:stop] - centers[start - 1:stop - 1])
        fades.advance(normals[:b])
        states = real_field.advance(np.concatenate([rel, rel, mid], axis=1),
                                    normals[:b], coef[:b])
        activity = traffic_proc.step(
            uniforms[:b, :n_push].reshape(b, 2, n_int, traffic_proc.n_push))
        chi = traffic_proc.sample_own_slots(
            activity, uniforms[:b, n_push:].reshape(b, n_int, n_sa))
        block_power(start, states[:, :n_real],
                    states[:, n_real:].reshape((b,) + fades.values.shape), chi)
    del normals, coef, uniforms, looks_buf, power_buf

    ref = max(int(NOISE_REF_FRACTION * n_cycles), 1)
    est_noise_std = channel_params.est_noise_fraction * float(true_power[:, :ref].mean())
    est_power = np.maximum(
        true_power + rng_noise.normal(0.0, est_noise_std, true_power.shape),
        channel_params.power_floor_w)

    sa_dist = np.linalg.norm(offsets[VICTIM], axis=1)
    signal_power = deployment.tx_power * ch.db_to_linear(
        -ch.pathloss_inf_db(sa_dist, deployment.carrier_freq)[0])
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
