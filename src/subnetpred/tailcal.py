"""Calibrated interference tail estimation.

Three ingredients, all operating in the (normalized) label domain:

* exceedances of the training labels over the quantile predictor's
  thresholds, modeled per series with a Generalized Pareto distribution
  fitted by maximum likelihood,
* an inductive-conformal score: the finite-sample (1-beta) quantile of
  absolute calibration residuals,
* a read-out that adds the GPD tail quantile and the conformal score on
  top of the predicted threshold.

``calibrate`` computes the first two in one uncached step (milliseconds);
``write_calibration_report`` records them, and nothing reads them back.
The upper band edge is used throughout: underprediction is the reliability
risk when the output feeds resource allocation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import minimize

SHAPE_CLAMP = 0.9
MIN_EXCEEDANCES = 30         # per series, for a tail fit


class InsufficientExceedancesError(ValueError):
    """Raised when too few samples exceed the predicted thresholds."""


@dataclass(frozen=True)
class GpdTail:
    """Fitted GPD for exceedances over a (moving) threshold."""

    shape: float
    scale: float
    n_exceedances: int
    log_likelihood: float
    fallback: bool = False

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("GPD scale must be positive")


@dataclass(frozen=True)
class CalibratedTail:
    """GPD tails plus conformity scores z_{1-beta} for every series of one
    scenario, with the block sizes and levels they were computed at."""

    tails: tuple
    scores: np.ndarray
    beta: float
    n_train: int
    n_calibration: int
    varsigma: float

    @cached_property
    def margins(self):
        """Per-series GPD read-out margins Q(1 - varsigma), computed once."""
        return np.array([gpd_quantile(tail, 1.0 - self.varsigma)
                         for tail in self.tails])


def _gpd_nll(shape, scale, samples):
    """Negative log-likelihood of positive exceedances under GPD."""
    if scale <= 0 or abs(shape) > SHAPE_CLAMP:
        return np.inf
    z = shape * samples / scale
    if np.any(1.0 + z <= 0):
        return np.inf
    n = samples.size
    if abs(shape) < 1e-12:
        return n * math.log(scale) + float(samples.sum()) / scale
    return n * math.log(scale) + (1.0 + 1.0 / shape) * float(np.log1p(z).sum())


def moments_estimate(samples):
    """Method-of-moments (shape, scale) initializer.

    Zero-variance input degenerates to an exponential fit (shape 0).
    """
    m = float(np.mean(samples))
    s2 = float(np.var(samples))
    if s2 <= 0 or m <= 0:
        return 0.0, max(m, np.finfo(float).tiny)
    ratio = m * m / s2
    shape = 0.5 * (1.0 - ratio)
    scale = 0.5 * m * (ratio + 1.0)
    return float(np.clip(shape, -SHAPE_CLAMP, SHAPE_CLAMP)), scale


def gpd_fit(exceedances):
    """Fit GPD (shape, scale) to positive exceedances by MLE.

    Nelder-Mead on (shape, log scale) from the moments initializer; on
    optimizer failure, a clamped shape, or a likelihood no better than the
    initializer, the moments estimate is returned with ``fallback=True``.
    """
    y = np.asarray(exceedances, dtype=float).ravel()
    if y.size < MIN_EXCEEDANCES:
        raise InsufficientExceedancesError(
            f"need >= {MIN_EXCEEDANCES} exceedances, got {y.size}")
    if np.any(y <= 0):
        raise ValueError("exceedances must be strictly positive")

    shape0, scale0 = moments_estimate(y)
    nll0 = _gpd_nll(shape0, scale0, y)
    if float(np.var(y)) <= 0:
        return GpdTail(shape0, scale0, y.size, -nll0, fallback=True)

    def objective(theta):
        return _gpd_nll(theta[0], math.exp(theta[1]), y)

    res = minimize(objective, x0=[shape0, math.log(scale0)], method="Nelder-Mead",
                   options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 2000})
    shape_hat = float(res.x[0])
    scale_hat = float(math.exp(res.x[1]))
    nll_hat = _gpd_nll(shape_hat, scale_hat, y)
    boundary = abs(shape_hat) >= SHAPE_CLAMP - 1e-6
    if (not res.success) or boundary or not np.isfinite(nll_hat) or nll_hat > nll0:
        return GpdTail(shape0, scale0, y.size, -min(nll0, nll_hat), fallback=True)
    return GpdTail(shape_hat, scale_hat, y.size, -nll_hat)


def gpd_quantile(tail, p):
    """Exceedance level at tail probability p: Q(p) = scale/shape*((1-p)^-shape - 1).

    The shape->0 limit is -scale*log(1-p).  p = 1 is the finite endpoint
    scale/|shape| for negative shape and is an error otherwise.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p == 1.0:
        if tail.shape >= 0:
            raise ValueError("tail quantile is unbounded at p=1 for shape >= 0")
        return tail.scale / abs(tail.shape)
    if abs(tail.shape) < 1e-12:
        return -tail.scale * math.log1p(-p)
    return tail.scale * math.expm1(-tail.shape * math.log1p(-p)) / tail.shape


def collect_exceedances(labels, thresholds):
    """Positive parts of (label - threshold), pooled per series column.

    labels/thresholds are [n_instances x n_series]; raises
    InsufficientExceedancesError when any column yields fewer than
    MIN_EXCEEDANCES exceedances.
    """
    y = np.atleast_2d(np.asarray(labels, dtype=float).T).T
    t = np.atleast_2d(np.asarray(thresholds, dtype=float).T).T
    if y.shape != t.shape:
        raise ValueError("labels and thresholds must have equal shapes")
    out = []
    for m in range(y.shape[1]):
        diff = y[:, m] - t[:, m]
        exc = diff[diff > 0]
        if exc.size < MIN_EXCEEDANCES:
            raise InsufficientExceedancesError(
                f"series {m}: {exc.size} exceedances < required {MIN_EXCEEDANCES}")
        out.append(exc)
    return out


def finite_sample_quantile(residuals, beta):
    """ceil((n+1)*(1-beta))-th order statistic, saturating at the maximum."""
    r = np.sort(np.asarray(residuals, dtype=float).ravel())
    n = r.size
    if n == 0:
        raise ValueError("empty residual set")
    k = math.ceil((n + 1) * (1.0 - beta))
    return float(r[min(k, n) - 1])


def conformity_scores(predictions, labels, beta):
    """Per-series conformal scores from a disjoint calibration set.

    Scores are the finite-sample (1-beta) quantiles of absolute residuals
    |label - prediction| per column; they may differ across series.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    p = np.atleast_2d(np.asarray(predictions, dtype=float).T).T
    y = np.atleast_2d(np.asarray(labels, dtype=float).T).T
    if p.shape != y.shape:
        raise ValueError("predictions and labels must have equal shapes")
    if p.shape[0] == 0:
        raise ValueError("empty calibration set")
    resid = np.abs(y - p)
    return np.array([finite_sample_quantile(resid[:, m], beta)
                     for m in range(resid.shape[1])])


def calibrated_quantile(thresholds, calibrated):
    """Upper calibrated tail quantile: threshold + GPD Q(1-varsigma) + score.

    thresholds is [n_instances x n_series]; returns the same shape, each
    element summed as (t + margin) + score.  varsigma = 1 reduces to the
    conformally calibrated threshold; varsigma -> 0 walks out to the tail
    endpoint for negative-shape fits.
    """
    return (np.asarray(thresholds, dtype=float) + calibrated.margins
            + calibrated.scores)


def calibrate(thresholds, labels, beta, varsigma):
    """GPD fits to the training exceedances plus the conformity scores of
    the calibration block; thresholds and labels are (train, calibration,
    test) blocks of WindowedDataset.partition, [n_instances x n_series]."""
    (t_train, t_cal, _), (y_train, y_cal, _) = thresholds, labels
    tails = tuple(gpd_fit(e) for e in collect_exceedances(y_train, t_train))
    return CalibratedTail(tails=tails, scores=conformity_scores(t_cal, y_cal, beta),
                          beta=beta, n_train=len(y_train),
                          n_calibration=len(y_cal), varsigma=varsigma)


def calibration_report(calibrated):
    """JSON-ready calibration summary: per-series fit, score, diagnostics."""
    rows = []
    for m, tail in enumerate(calibrated.tails):
        rows.append({
            "series": m,
            "shape": tail.shape,
            "scale": tail.scale,
            "n_exceedances": tail.n_exceedances,
            "log_likelihood": tail.log_likelihood,
            "fallback": tail.fallback,
            "conformity_score": float(calibrated.scores[m]),
            "exceedance_fraction": tail.n_exceedances / calibrated.n_train,
        })
    return {
        "beta": calibrated.beta,
        "n_calibration": calibrated.n_calibration,
        "varsigma": calibrated.varsigma,
        "series": rows,
    }


def write_calibration_report(path, calibrated):
    """Record a CalibratedTail as JSON; the pipeline does not read it back."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(calibration_report(calibrated), fh, indent=2)
