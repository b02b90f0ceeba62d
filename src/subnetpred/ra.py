"""Finite-blocklength resource allocation and predictor quality metrics.

Channel usage is sized with the normal approximation for the AWGN channel:
given a payload of ``D`` information bits, a target decoding error
``eps_target`` and an (estimated) SINR, the required blocklength solves

    D = R*C(g) - Qinv(eps) * sqrt(R*V(g))

with Shannon capacity ``C(g) = log2(1+g)`` and channel dispersion
``V(g) = (1 - (1+g)^-2) * log2(e)^2``.  The closed form returned by
:func:`blocklength` is the exact positive root of that quadratic in sqrt(R),
so the BLER Q((R*C - D) / sqrt(R*V)) that the un-ceiled blocklength achieves
recovers ``eps_target`` to a relative 1e-12 (tests/test_ra.py; 4.4e-14 at
most on its grid of SINRs, payloads and targets down to 1e-7).

A decision sizes several targets for one SINR, so the closed form's
SINR-only half (the positivity check, then D/C, V, 2C^2 and 4DC) runs once per
SINR and its terms are cached for the two most recent SINRs, keyed by the
SINR's float64 bytes, its shape and the payload: two, because
:func:`evaluate_ra` alternates the predicted and the true SINR per target.
The cached arrays are read-only and no returned array aliases them.
"""

from __future__ import annotations

from functools import lru_cache
from statistics import NormalDist

import numpy as np

LOG2E = float(np.log2(np.e))


def q_inverse(eps):
    """Inverse Gaussian Q-function: returns x with Q(x) = eps.

    eps is a scalar in (0, 1).  Taken as -Phi^-1(eps) from the stdlib's
    NormalDist (Wichura's AS241, within 8 ulps of scipy's ndtri):
    Phi^-1(1 - eps) would round 1 - eps first, a relative error of 7.7e-10
    in x at eps = 1e-9.
    """
    eps = float(eps)
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    return -NormalDist().inv_cdf(eps)


def _capacity_dispersion(snr):
    """Shannon capacity C(g) = log2(1+g) in bits per channel use and the
    dispersion V(g) = (1 - (1+g)^-2) * log2(e)^2 of a float64 SINR array."""
    g1 = 1.0 + snr
    return np.log2(g1), (1.0 - g1 ** -2) * LOG2E**2


@lru_cache(maxsize=None)
def _q_inverse_sq(eps):
    """Qinv(eps)^2; a decision sizes the same few targets every cycle."""
    return q_inverse(eps) ** 2


@lru_cache(maxsize=2)
def _sinr_terms(snr_bytes, shape, payload_bits):
    """(D/C, V, 2C^2, 4DC) of one SINR, read-only, in blocklength's order."""
    snr = np.frombuffer(snr_bytes).reshape(shape)
    if (snr <= 0.0).any():
        raise ValueError("snr must be positive")
    c, v = _capacity_dispersion(snr)
    terms = (payload_bits / c, v, 2.0 * c**2, 4.0 * payload_bits * c)
    for t in terms:
        if t.shape:
            t.setflags(write=False)
    return terms


def blocklength(snr, payload_bits, eps_target):
    """Real-valued channel usage meeting the target BLER at the given SINR.

    At eps_target = 0.5 the dispersion correction vanishes and the result is
    exactly payload_bits / C(snr).  The SINR-only terms come from the two-entry
    cache keyed by (snr's float64 bytes, its shape, payload_bits); each call
    returns a new array, or a float for a 0-d snr, that aliases none of them.
    """
    snr = np.asarray(snr, dtype=float)
    base, v, two_c2, four_dc = _sinr_terms(snr.tobytes(), snr.shape, payload_bits)
    if not 0.0 < eps_target <= 0.5:
        raise ValueError("eps_target must lie in (0, 0.5]")
    if eps_target == 0.5:
        return base.copy() if base.shape else float(base)
    q2v = _q_inverse_sq(float(eps_target)) * v
    corr = q2v / two_c2 * (1.0 + np.sqrt(1.0 + four_dc / q2v))
    out = base + corr
    return out if out.shape else float(out)


def coverage_probability(predictions, labels):
    """Fraction of labels not exceeding their prediction, per column.

    Both arguments are [n_instances x n_series]; returns a length-n_series
    vector. 1-D inputs are treated as a single series.
    """
    p = np.atleast_2d(np.asarray(predictions, dtype=float).T).T
    y = np.atleast_2d(np.asarray(labels, dtype=float).T).T
    if p.shape != y.shape:
        raise ValueError("predictions and labels must have equal shapes")
    return (y <= p).mean(axis=0)


def coverage_width(predictions, labels, normalize=False):
    """Mean absolute prediction-label gap per column.

    With normalize=True each column is divided by its label range (degenerate
    ranges fall back to 1), matching the normalized-width reporting
    convention used alongside :func:`coverage_probability`.
    """
    p = np.atleast_2d(np.asarray(predictions, dtype=float).T).T
    y = np.atleast_2d(np.asarray(labels, dtype=float).T).T
    if p.shape != y.shape:
        raise ValueError("predictions and labels must have equal shapes")
    width = np.abs(p - y).mean(axis=0)
    if normalize:
        span = y.max(axis=0) - y.min(axis=0)
        span = np.where(span > 0, span, 1.0)
        width = width / span
    return width


def evaluate_ra(pred_interference_w, true_interference_w, signal_w, noise_w,
                payload_bits, eps_targets):
    """Risk-aware allocation outcome for one predictor against the genie.

    All power arguments are linear watts with shape [n_instances x n_series]
    (signal_w may be a length-n_series vector).  For each target BLER the
    predictor's SINR sizes the allocation, the true SINR decides whether it
    meets the target, and the overhead ratio is computed on the un-ceiled
    blocklengths against a genie that knows the true interference.  An
    allocation of r channel uses meets eps when its achieved BLER
    Q((r*C - D) / sqrt(r*V)) at the true SINR is at most eps; Q is strictly
    decreasing, so that is tested as (r*C - D) / sqrt(r*V) >= Qinv(eps).

    Returns a list of dict rows per target: frac_met, the aggregate
    channel-usage overhead (total predictor usage over total genie usage,
    the resource-consumption ratio), and the mean per-instance ratio.
    """
    pred = np.asarray(pred_interference_w, dtype=float)
    true = np.asarray(true_interference_w, dtype=float)
    sig = np.broadcast_to(np.asarray(signal_w, dtype=float), pred.shape)
    snr_hat = sig / (pred + noise_w)
    snr_true = sig / (true + noise_w)
    c_true, v_true = _capacity_dispersion(snr_true)
    rows = []
    for eps in eps_targets:
        r_real = blocklength(snr_hat, payload_bits, eps)
        r_int = np.maximum(np.ceil(r_real), 1.0)
        margin = (r_int * c_true - payload_bits) / np.sqrt(r_int * v_true)
        r_genie = blocklength(snr_true, payload_bits, eps)
        rows.append({
            "eps_target": float(eps),
            "frac_met": float((margin >= q_inverse(eps)).mean()),
            "mean_overhead": float(r_real.sum() / r_genie.sum()),
            "mean_instance_overhead": float((r_real / r_genie).mean()),
        })
    return rows
