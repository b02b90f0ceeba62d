"""End-to-end interference trace generation for one victim sub-network.

Per TX cycle: mobility step, correlated channel updates, slot-level traffic
of the co-channel interferers, and the resulting interference power at the
victim controller for each of its SA-pair slots.  Estimation noise is added
in the linear power domain afterwards and clamped at a positive floor so
the dB conversion is total.  simulate_trace computes the cycles in two
passes: one that steps through them and one vectorized over all of them.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..config import spec_to_dict
from . import channel as ch
from .deploy import deploy
from .mobility import alley_positions, deploy_alley, step_mobility
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


def simulate_trace(deployment, traffic, channel_params, n_cycles, seed,
                   mobility="rdmm"):
    """Simulate the estimated-interference time series of one sub-network.

    Deterministic given seed.  The estimation noise std is
    channel_params.est_noise_fraction times the mean true power over the
    leading NOISE_REF_FRACTION of the trace.

    The cycles run in two passes.  Pass 1 steps through them one at a time
    and does only the work that draws from the trace's generator: rdmm
    mobility, the shadowing, soft-LOS and fading advances and the traffic.
    It also sums the fading looks' powers per link, so that the per-cycle
    fading state need not be kept.  Every draw happens in pass 1, in the
    order of a cycle-by-cycle simulation, so the stream and the trace do
    not depend on the split.  Alley positions draw nothing and are computed
    up front.  Pass 2 computes the rest for all cycles at once: path loss,
    shadowing and soft-LOS transforms, link gains, the TDD misalignment and
    the slot sums.
    """
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    rng = np.random.default_rng(seed)
    n_sa = deployment.sa_pairs_per_sn
    n_slots = deployment.slots
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
    shadow_los = ch.Ar1Field(n_int, channel_params.shadow_std_los_db,
                             channel_params.decorrelation_distance, rng)
    shadow_nlos = ch.Ar1Field(n_int, channel_params.shadow_std_nlos_db,
                              channel_params.decorrelation_distance, rng)
    psi_latent = ch.Ar1Field(n_int, 1.0, channel_params.decorrelation_distance, rng)
    # independent fading looks per link (frequency/pilot diversity of the
    # slot power estimate); the measured power averages their energies
    looks = channel_params.est_looks
    fade_los = ch.ComplexAr1((n_int, n_sa, looks), rho_f, rng)
    fade_nlos = ch.ComplexAr1((n_int, n_sa, looks), rho_f, rng)
    specular = ch.los_specular(k_lin, rng.uniform(0.0, 2.0 * np.pi,
                                                  (n_int, n_sa, looks)))

    traffic_proc = TrafficProcess(traffic, n_int, n_sa, dt, rng)
    # TDD misalignment of non-synchronized sub-networks: every interferer's
    # slot grid sits at a fractional offset (partial slot collisions) and
    # drifts by schedule_drift slots per TX cycle
    clock_offset = rng.uniform(0.0, n_slots, n_int)

    # ---- pass 1: every draw, cycle by cycle
    # centers of the interferers, then the victim, per cycle
    members = np.append(intf, VICTIM)
    if mobility == "alley":
        centers = alley_positions(state, deployment.speed, dt, n_cycles)[:, members]
        rels, mids = _link_motion(np.diff(centers, axis=0))
    else:
        centers = np.empty((n_cycles, n_int + 1, 2))
        centers[0] = state.positions[members]
    sh_los_db = np.empty((n_cycles, n_int))
    sh_nlos_db = np.empty((n_cycles, n_int))
    latent = np.empty((n_cycles, n_int))
    h_los_sum = np.empty((n_cycles, n_int, n_sa))
    h_nlos_sum = np.empty((n_cycles, n_int, n_sa))
    chi = np.empty((n_cycles, n_int, n_slots), dtype=bool)

    for t in range(n_cycles):
        if t > 0:
            if mobility == "alley":
                rel, mid = rels[t - 1], mids[t - 1]
            else:
                state = step_mobility(state, deployment.speed, dt,
                                      deployment.min_distance, rng)
                centers[t] = state.positions[members]
                rel, mid = _link_motion(centers[t] - centers[t - 1])
            if channel_params.shadowing:
                shadow_los.advance(rel, rng)
                shadow_nlos.advance(rel, rng)
            psi_latent.advance(mid, rng)
            if channel_params.fading:
                fade_los.advance(rng)
                fade_nlos.advance(rng)
            traffic_proc.step(rng)
        chi[t], owner = traffic_proc.sample_own_slots(rng, n_slots)
        sh_los_db[t] = shadow_los.values
        sh_nlos_db[t] = shadow_nlos.values
        latent[t] = psi_latent.values
        if channel_params.fading:
            h_los_sum[t] = np.add.reduce(
                np.abs(ch.rician(fade_los.values, k_lin, specular)) ** 2, axis=2)
            h_nlos_sum[t] = np.add.reduce(np.abs(fade_nlos.values) ** 2, axis=2)

    # ---- pass 2: per-link gains toward every SA position of each
    # interferer, for all cycles at once
    dist = ch.planar_norm(centers[:, :-1, None, :] + state.offsets[intf]
                          - centers[:, -1, None, None, :])
    pl_los = ch.db_to_linear(-ch.pathloss_inf_db(dist, deployment.carrier_freq, los=True))
    pl_nlos = ch.db_to_linear(-ch.pathloss_inf_db(dist, deployment.carrier_freq, los=False))
    if channel_params.fading:
        h_los_sum /= looks          # mean fading power over the looks
        h_nlos_sum /= looks
        psi = ch.soft_los_weight(latent + channel_params.soft_los_bias)[:, :, None]
    else:
        h_los_sum = h_nlos_sum = np.ones((n_int, n_sa))
        psi = np.ones((n_int, 1))
    if channel_params.shadowing:
        sh_los = ch.db_to_linear(sh_los_db)[:, :, None]
        sh_nlos = ch.db_to_linear(sh_nlos_db)[:, :, None]
    else:
        sh_los = sh_nlos = np.ones((n_int, 1))
    gain = ch.channel_gain(psi, h_los_sum, h_nlos_sum, pl_los, pl_nlos,
                           sh_los, sh_nlos)
    del dist, pl_los, pl_nlos, h_los_sum, h_nlos_sum
    emitted = deployment.tx_power * chi * gain[:, np.arange(n_int)[:, None], owner]
    del gain

    # victim slot m overlaps two adjacent interferer slots when the
    # grids are fractionally misaligned; interference is the
    # time-share-weighted sum of both occupants
    phase = clock_offset + (np.arange(n_cycles) * deployment.schedule_drift)[:, None]
    u = (np.arange(n_slots) - phase[:, :, None]) % n_slots
    k1 = np.floor(u)
    w2 = u - k1
    k1 = k1.astype(int) % n_slots
    k2 = (k1 + 1) % n_slots
    contrib = ((1.0 - w2) * np.take_along_axis(emitted, k1, axis=2)
               + w2 * np.take_along_axis(emitted, k2, axis=2))
    true_power = np.ascontiguousarray(np.add.reduce(contrib, axis=1)[:, :n_sa].T)

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
    """CSV export: cycle,slot,sa_index,true_dBm,est_dBm,signal_dBm."""
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
