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

A decision sizes several targets for one SINR, so :func:`blocklength`
keeps a table of its two most recent SINRs, keyed by the SINR's float64
bytes, its shape and the payload: two, because :func:`evaluate_ra`
alternates the predicted and the true SINR per target.  An entry holds the
SINR's terms (D/C, V, 2C^2 and 4DC, formed once after the check that the
SINR is positive and finite; D/C is the row at 0.5) and one finished row
per target sized at it.  A new SINR is sized in one pass broadcast over a
leading target axis, at the targets asked at the most recent SINR plus the
one asked for, so the rest of a decision's targets are a row lookup; a
target an entry lacks is sized into it.  Asked, not sized: a caller that
asks each SINR at another target then keeps two rows an entry, not every
target it ever asked.  Every row keeps the per-target closed form's bits:
the same operations in the same order.  An entry holds (5 + T) arrays of
the SINR's size at T targets below 0.5, the key's bytes included: 256 B of
data for a decision's 4-series SINR at three targets, 2 MB for a
[2,002 x 16] test block.  The rows are read-only and no returned array
aliases them.
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


# blocklength's table, least recent SINR first: key -> (terms, {target:
# row}, the targets below 0.5 asked at the SINR)
_TABLE = {}


def _sinr_terms(snr, payload_bits):
    """(D/C, V, 2C^2, 4DC) of one SINR, in blocklength's order; D/C is
    read-only, as it is the row at eps = 0.5."""
    # x / 2 < x holds for every positive finite double and fails at 0, below
    # 0, at +-inf and at NaN: the whole check in one comparison
    if not (0.5 * snr < snr).all():
        raise ValueError("snr must be positive and finite")
    c, v = _capacity_dispersion(snr)
    base = payload_bits / c
    if base.shape:
        base.setflags(write=False)
    return base, v, 2.0 * c**2, 4.0 * payload_bits * c


def _rows(terms, targets):
    """{target: read-only row} at targets below 0.5, sized in one pass
    broadcast over a leading target axis."""
    base, v, two_c2, four_dc = terms
    q2v = _q2_column(targets, v.ndim) * v
    out = base + q2v / two_c2 * (1.0 + np.sqrt(1.0 + four_dc / q2v))
    out.setflags(write=False)
    return dict(zip(targets, out))


def blocklength(snr, payload_bits, eps_target):
    """Real-valued channel usage meeting the target BLER at the given SINR.

    snr must be positive and finite.  At eps_target = 0.5 the dispersion
    correction vanishes and the result is exactly payload_bits / C(snr).
    Rows come from a table of the two most recent SINRs, keyed by (snr's
    float64 bytes, its shape, payload_bits), with one read-only row per
    target sized at each: a SINR it lacks is sized in one pass at the
    targets asked at the most recent SINR plus eps_target and evicts the
    least recent, and a target an entry lacks is sized into it.  An entry
    holds (5 + T) arrays of the SINR's size at T targets below 0.5.  Each
    call returns a new array, or a float for a 0-d snr, that aliases none
    of them.
    """
    snr = np.asarray(snr, dtype=float)
    key = (snr.tobytes(), snr.shape, payload_bits)
    entry = _TABLE.pop(key, None)
    if entry is None:
        terms = _sinr_terms(snr, payload_bits)
    if not 0.0 < eps_target <= 0.5:
        raise ValueError("eps_target must lie in (0, 0.5]")
    eps = float(eps_target)
    if entry is None:
        recent = next(reversed(_TABLE.values()))[2] if _TABLE else ()
        sized = recent if eps in recent or eps == 0.5 else (*recent, eps)
        entry = terms, _rows(terms, sized), ()
        if len(_TABLE) == 2:
            del _TABLE[next(iter(_TABLE))]
    terms, rows, asked = entry
    if eps == 0.5:
        row = terms[0]
    else:
        if eps not in rows:
            rows.update(_rows(terms, (eps,)))
        if eps not in asked:
            asked += (eps,)
        row = rows[eps]
    _TABLE[key] = terms, rows, asked
    return row.copy() if row.shape else float(row)


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
