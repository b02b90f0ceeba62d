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

A SINR is sized in one pass broadcast over a leading target axis, with the
per-target closed form's bits.  :func:`evaluate_ra` makes one pass per
SINR.  A decision sizes several targets for one SINR, so
:func:`blocklength` keeps one read-only row per target of its most recent
SINR, sized at the targets asked at the SINR before it plus the one asked
for: the rest of a decision's targets are a row lookup.
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
def _q2_column(targets, ndim):
    """Qinv(eps)^2 of each target, read-only, on a leading axis over an
    ndim-D SINR; a decision sizes the same few targets every cycle."""
    q2 = np.array([q_inverse(eps) ** 2 for eps in targets])
    q2 = q2.reshape(q2.shape + (1,) * ndim)
    q2.setflags(write=False)
    return q2


# blocklength's most recent SINR: its key, its terms, {target: row} and the
# targets asked at it
_LAST = [None, None, {}, ()]


def _sinr_terms(snr, payload_bits):
    """(D/C, V, 2C^2, 4DC) of one SINR, in blocklength's order; D/C is
    read-only, as it is the row at eps = 0.5."""
    # x / 2 < x holds for every positive finite double and fails at 0, below
    # 0, at +-inf and at NaN: the whole check in one comparison
    if not (0.5 * snr < snr).all():
        raise ValueError("snr must be positive and finite")
    c, v = _capacity_dispersion(snr)
    base = payload_bits / c
    base.setflags(write=False)
    return base, v, 2.0 * c**2, 4.0 * payload_bits * c


def _rows(terms, targets):
    """{target: read-only row} at targets in (0, 0.5]: D/C at 0.5, the rest
    sized in one pass broadcast over a leading target axis."""
    if not all(0.0 < eps <= 0.5 for eps in targets):
        raise ValueError("eps_target must lie in (0, 0.5]")
    base, v, two_c2, four_dc = terms
    below = tuple(eps for eps in targets if eps != 0.5)
    q2v = _q2_column(below, v.ndim) * v
    out = base + q2v / two_c2 * (1.0 + np.sqrt(1.0 + four_dc / q2v))
    out.setflags(write=False)
    rows = iter(out)
    return {eps: base if eps == 0.5 else next(rows) for eps in targets}


def blocklength(snr, payload_bits, eps_target):
    """Real-valued channel usage meeting the target BLER at the given SINR.

    snr must be positive and finite.  At eps_target = 0.5 the dispersion
    correction vanishes and the result is exactly payload_bits / C(snr).
    Rows come from the most recent SINR, keyed by (snr's float64 bytes, its
    shape, payload_bits).  Each call returns a new array, or a float for a
    0-d snr.
    """
    snr = np.asarray(snr, dtype=float)
    key = (snr.tobytes(), snr.shape, payload_bits)
    eps = float(eps_target)
    if key != _LAST[0]:
        terms, recent = _sinr_terms(snr, payload_bits), _LAST[3]
        sized = recent if eps in recent else (*recent, eps)
        _LAST[:] = key, terms, _rows(terms, sized), ()
    _, terms, rows, asked = _LAST
    if eps not in rows:
        rows.update(_rows(terms, (eps,)))
    if eps not in asked:
        _LAST[3] = (*asked, eps)
    row = rows[eps]
    return row.copy() if row.shape else float(row)


def _columns(predictions, labels):
    """Both as float [n x n_series] arrays of equal shape."""
    p = np.atleast_2d(np.asarray(predictions, dtype=float).T).T
    y = np.atleast_2d(np.asarray(labels, dtype=float).T).T
    if p.shape != y.shape:
        raise ValueError("predictions and labels must have equal shapes")
    return p, y


def coverage_probability(predictions, labels):
    """Fraction of labels not exceeding their prediction, per column.

    Both arguments are [n_instances x n_series]; returns a length-n_series
    vector. 1-D inputs are treated as a single series.
    """
    p, y = _columns(predictions, labels)
    return (y <= p).mean(axis=0)


def coverage_width(predictions, labels, normalize=False):
    """Mean absolute prediction-label gap per column.

    With normalize=True each column is divided by its label range (degenerate
    ranges fall back to 1), matching the normalized-width reporting
    convention used alongside :func:`coverage_probability`.
    """
    p, y = _columns(predictions, labels)
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
    targets = tuple(map(float, eps_targets))
    snr_hat = sig / (pred + noise_w)
    snr_true = sig / (true + noise_w)
    hat = _rows(_sinr_terms(snr_hat, payload_bits), targets)
    genie = _rows(_sinr_terms(snr_true, payload_bits), targets)
    c_true, v_true = _capacity_dispersion(snr_true)
    rows = []
    for eps in targets:
        r_real, r_genie = hat[eps], genie[eps]
        r_int = np.maximum(np.ceil(r_real), 1.0)
        margin = (r_int * c_true - payload_bits) / np.sqrt(r_int * v_true)
        rows.append({
            "eps_target": eps,
            "frac_met": float((margin >= q_inverse(eps)).mean()),
            "mean_overhead": float(r_real.sum() / r_genie.sum()),
            "mean_instance_overhead": float((r_real / r_genie).mean()),
        })
    return rows
