"""Calibrated interference tail estimation.

Three ingredients, all operating in the (normalized) label domain:

* exceedances of the training labels over the quantile predictor's
  thresholds, modeled per series with a Generalized Pareto distribution
  fitted by the Zhang-Stephens posterior-mean estimator,
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
    fallback: bool = False      # read only by perfbench's traced gpd_fit hook

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


def gpd_fit(exceedances):
    """Fit GPD (shape, scale) to positive exceedances by the Zhang-Stephens
    estimator (Zhang & Stephens 2009, Technometrics 51(3)).

    With y sorted and n = y.size, the profile log-likelihood
    l(theta) = n*(log(theta/k) + k - 1), k(theta) = -mean(log1p(-theta*y)),
    is evaluated on the m = 30 + isqrt(n) points
    theta_j = 1/y_max + (1 - sqrt(m/(j - 1/2)))/(3*y[(n+2)//4 - 1]), and
    theta is estimated by its mean under weights exp(l - max l).  Then
    shape = -k and scale = k/theta.  Every theta_j < 1/y_max, so the fitted
    support contains every exceedance; log_likelihood is the closed form
    n*(k - 1 - log(scale)).
    """
    y = np.sort(np.asarray(exceedances, dtype=float).ravel())
    if y.size < MIN_EXCEEDANCES:
        raise InsufficientExceedancesError(
            f"need >= {MIN_EXCEEDANCES} exceedances, got {y.size}")
    if y[0] <= 0:
        raise ValueError("exceedances must be strictly positive")

    n = y.size
    m = 30 + math.isqrt(n)
    theta = 1.0 / y[-1] + (1.0 - np.sqrt(m / (np.arange(1, m + 1) - 0.5))) \
        / (3.0 * y[(n + 2) // 4 - 1])
    k = -np.mean(np.log1p(-theta[:, None] * y), axis=1)
    profile = n * (np.log(theta / k) + k - 1.0)
    weights = np.exp(profile - profile.max())
    theta_hat = float(weights @ theta / weights.sum())
    k_hat = -float(np.mean(np.log1p(-theta_hat * y)))
    scale = k_hat / theta_hat
    return GpdTail(-k_hat, scale, n, n * (k_hat - 1.0 - math.log(scale)))


def gpd_quantile(tail, p):
    """Exceedance level at tail probability p in [0, 1):
    Q(p) = scale/shape*((1-p)^-shape - 1), with the shape->0 limit
    -scale*log(1-p).
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("p must lie in [0, 1)")
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
