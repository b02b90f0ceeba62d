"""Tail-calibration oracles: GPD recovery from inversion sampling, conformal
finite-sample quantiles, and the calibrated read-out identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnetpred.tailcal import (MIN_EXCEEDANCES, CalibratedTail, GpdTail,
                                InsufficientExceedancesError, calibrate,
                                calibrated_quantile, calibration_report,
                                collect_exceedances, conformity_scores,
                                finite_sample_quantile, gpd_fit, gpd_quantile,
                                moments_estimate, _gpd_nll, _nelder_mead)


def gpd_samples(shape, scale, n, rng):
    """Sampling-inversion oracle for GPD draws."""
    u = rng.random(n)
    if abs(shape) < 1e-12:
        return -scale * np.log1p(-u)
    return scale / shape * ((1.0 - u) ** -shape - 1.0)


# ------------------------------------------------------------------ fitting

def test_gpd_fit_recovers_exponential_limit():
    rng = np.random.default_rng(0)
    samples = rng.exponential(2.0, 5000)
    tail = gpd_fit(samples)
    assert abs(tail.shape) < 0.05
    assert tail.scale == pytest.approx(2.0, rel=0.05)
    assert not tail.fallback


def test_gpd_fit_recovers_heavy_tail():
    rng = np.random.default_rng(1)
    samples = gpd_samples(0.2, 1.0, 5000, rng)
    tail = gpd_fit(samples)
    assert 0.15 <= tail.shape <= 0.25
    assert 0.95 <= tail.scale <= 1.05


def test_gpd_fit_bounded_support_negative_shape():
    rng = np.random.default_rng(2)
    samples = gpd_samples(-0.3, 1.0, 5000, rng)
    tail = gpd_fit(samples)
    assert tail.shape == pytest.approx(-0.3, abs=0.05)
    # fitted support must contain every sample
    assert 1.0 + tail.shape * samples.max() / tail.scale > 0


def test_gpd_fit_repeated_value_falls_back_to_moments():
    tail = gpd_fit(np.full(50, 3.0))
    assert tail.fallback
    assert tail.scale == pytest.approx(3.0)


def test_gpd_fit_likelihood_not_worse_than_moments_start():
    rng = np.random.default_rng(3)
    samples = gpd_samples(0.35, 2.0, 800, rng)
    tail = gpd_fit(samples)
    s0, sc0 = moments_estimate(samples)
    assert -tail.log_likelihood <= _gpd_nll(s0, sc0, samples) + 1e-9


def test_gpd_fit_requires_minimum_samples_and_positivity():
    with pytest.raises(InsufficientExceedancesError):
        gpd_fit(np.ones(10))
    with pytest.raises(ValueError):
        gpd_fit(np.concatenate([np.ones(40), [-1.0]]))


def scipy_gpd_fit(y):
    """gpd_fit with scipy's Nelder-Mead, the oracle of the port."""
    from scipy.optimize import minimize

    shape0, scale0 = moments_estimate(y)
    nll0 = _gpd_nll(shape0, scale0, y)
    res = minimize(lambda th: _gpd_nll(th[0], math.exp(th[1]), y),
                   x0=[shape0, math.log(scale0)], method="Nelder-Mead",
                   options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 2000})
    shape_hat, scale_hat = float(res.x[0]), float(math.exp(res.x[1]))
    nll_hat = _gpd_nll(shape_hat, scale_hat, y)
    if (not res.success) or abs(shape_hat) >= 0.9 - 1e-6 \
            or not np.isfinite(nll_hat) or nll_hat > nll0:
        return GpdTail(shape0, scale0, y.size, -min(nll0, nll_hat), fallback=True)
    return GpdTail(shape_hat, scale_hat, y.size, -nll_hat)


def seeded_exceedances(n_samples):
    """GPD samples over the shapes, scales and sizes the pipeline fits,
    every seventh rounded so that the likelihood has flat stretches."""
    rng = np.random.default_rng(20)
    for i in range(n_samples):
        y = gpd_samples(rng.uniform(-0.6, 0.8), 10 ** rng.uniform(-2, 1),
                        int(rng.integers(MIN_EXCEEDANCES, 400)), rng)
        yield np.round(y, 1) + 0.05 if i % 7 == 0 else y


# For strongly negative shapes the moments start can lie outside the
# sample's support; every vertex of the first simplex then has an infinite
# likelihood, ordered by np.argsort among ties, and scipy and the port both
# warn on inf - inf in the fatol test.  Those fits are kept in the comparison.
SHARED_WARNING = "ignore:invalid value encountered in subtract:RuntimeWarning"


@pytest.mark.filterwarnings(SHARED_WARNING)
def test_gpd_fit_equals_scipy_nelder_mead_fit():
    fits = [(gpd_fit(y), scipy_gpd_fit(y)) for y in seeded_exceedances(200)]
    assert all(got == want for got, want in fits)
    assert 0 < sum(want.fallback for _, want in fits) < len(fits)


@pytest.mark.filterwarnings(SHARED_WARNING)
def test_nelder_mead_equals_scipy_when_stopped_early():
    # at a small maxiter many searches stop unconverged: the flag and the
    # vertex it stops at must both match scipy's
    from scipy.optimize import minimize

    rng = np.random.default_rng(21)
    flags = []
    for y in seeded_exceedances(80):
        def f(th):
            return _gpd_nll(th[0], math.exp(th[1]), y)
        shape0, scale0 = moments_estimate(y)
        x0, maxiter = [shape0, math.log(scale0)], int(rng.integers(2, 80))
        res = minimize(f, x0=x0, method="Nelder-Mead",
                       options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": maxiter})
        x, converged = _nelder_mead(f, x0, xatol=1e-8, fatol=1e-10, maxiter=maxiter)
        np.testing.assert_array_equal(x.view(np.int64), res.x.view(np.int64))
        assert converged == res.success
        flags.append(converged)
    assert 0 < sum(flags) < len(flags)


# ---------------------------------------------------------------- quantiles

def test_gpd_quantile_identities():
    assert gpd_quantile(GpdTail(0.5, 1.0, 100, 0.0), 0.0) == 0.0
    assert gpd_quantile(GpdTail(0.5, 1.0, 100, 0.0), 0.75) == pytest.approx(2.0)
    assert gpd_quantile(GpdTail(0.0, 1.0, 100, 0.0), 1 - math.exp(-1)) == pytest.approx(1.0)


def test_gpd_quantile_endpoint_rules():
    with pytest.raises(ValueError):
        gpd_quantile(GpdTail(0.1, 1.0, 100, 0.0), 1.0)
    assert gpd_quantile(GpdTail(-0.5, 1.0, 100, 0.0), 1.0) == pytest.approx(2.0)


@given(st.floats(0.0, 0.999), st.floats(0.0, 0.999))
@settings(max_examples=60, deadline=None)
def test_gpd_quantile_monotone_in_p(p1, p2):
    tail = GpdTail(0.3, 1.2, 100, 0.0)
    lo, hi = sorted((p1, p2))
    assert gpd_quantile(tail, lo) <= gpd_quantile(tail, hi) + 1e-12


def test_quantile_inverts_cdf():
    # G(Q(p)) == p with the independent CDF expression
    tail = GpdTail(0.25, 2.0, 100, 0.0)
    for p in (0.1, 0.5, 0.9, 0.99):
        y = gpd_quantile(tail, p)
        cdf = 1.0 - (1.0 + tail.shape * y / tail.scale) ** (-1.0 / tail.shape)
        assert cdf == pytest.approx(p, abs=1e-12)


# ---------------------------------------------------------------- exceedance

def test_collect_exceedances_rules():
    labels = np.arange(40, dtype=float).reshape(-1, 1)
    with pytest.raises(InsufficientExceedancesError):
        collect_exceedances(labels, labels + 1.0)      # none exceed
    exc = collect_exceedances(labels, labels - 1.0)
    assert np.allclose(exc[0], 1.0)
    # the floor is MIN_EXCEEDANCES per series: 30 pass, 29 do not
    thresholds = labels + 1.0
    thresholds[:MIN_EXCEEDANCES] -= 2.0
    assert collect_exceedances(labels, thresholds)[0].size == MIN_EXCEEDANCES
    thresholds[0] += 2.0
    with pytest.raises(InsufficientExceedancesError, match="29 exceedances"):
        collect_exceedances(labels, thresholds)


# ----------------------------------------------------------------- conformal

def test_conformity_scores_examples():
    zeros = conformity_scores(np.zeros((10, 1)), np.zeros((10, 1)), beta=0.1)
    assert zeros[0] == 0.0

    resid = np.arange(1, 100, dtype=float)
    assert finite_sample_quantile(resid, beta=0.05) == 95.0

    small = finite_sample_quantile(np.array([3.0, 1.0, 2.0]), beta=0.05)
    assert small == 3.0     # ceil(4*0.95)=4 > n -> saturates at the max


def test_conformity_scores_per_series_differ():
    rng = np.random.default_rng(5)
    preds = np.zeros((500, 2))
    labels = np.stack([rng.normal(0, 1, 500), rng.normal(0, 5, 500)], axis=1)
    scores = conformity_scores(preds, labels, beta=0.1)
    assert scores[1] > scores[0]
    with pytest.raises(ValueError):
        conformity_scores(np.zeros((0, 2)), np.zeros((0, 2)), beta=0.1)


def test_marginal_coverage_guarantee_on_exchangeable_data():
    # Monte-Carlo check of the conformal validity property
    rng = np.random.default_rng(6)
    beta = 0.1
    hits = []
    for _ in range(100):
        cal = rng.standard_normal(500)
        test = rng.standard_normal(500)
        cs = finite_sample_quantile(np.abs(cal), beta)
        hits.append((test <= cs).mean())
    mean_cov = float(np.mean(hits))
    assert mean_cov >= 1 - beta - 0.01


# --------------------------------------------------------------- read-out

def make_calibrated(shape, scale, cs, varsigma):
    tails = (GpdTail(shape, scale, 100, 0.0),)
    return CalibratedTail(tails=tails, scores=np.array([cs]), beta=0.05,
                          n_train=2000, n_calibration=100, varsigma=varsigma)


def test_calibrated_quantile_reduces_to_threshold_plus_score_at_one():
    cal = make_calibrated(0.2, 1.0, 0.3, varsigma=1.0)
    out = calibrated_quantile(np.array([[10.0]]), cal)
    assert out[0, 0] == pytest.approx(10.3)


def test_calibrated_quantile_direct_value():
    cal = make_calibrated(0.0, 1.0, 0.3, varsigma=0.5)
    out = calibrated_quantile(np.array([[10.0]]), cal)
    assert out[0, 0] == pytest.approx(10.0 + math.log(2.0) + 0.3, abs=1e-9)


def test_calibrated_quantile_walks_to_endpoint():
    cal = make_calibrated(-0.5, 1.0, 0.3, varsigma=1e-12)
    out = calibrated_quantile(np.array([[10.0]]), cal)
    assert out[0, 0] == pytest.approx(10.0 + 2.0 + 0.3, rel=1e-3)


@given(st.floats(0.01, 1.0), st.floats(0.0, 2.0), st.floats(-5.0, 5.0))
@settings(max_examples=60, deadline=None)
def test_calibrated_quantile_monotonicity(varsigma, cs, threshold):
    lo = calibrated_quantile(np.array([[threshold]]),
                             make_calibrated(0.2, 1.0, cs, varsigma))[0, 0]
    hi_cs = calibrated_quantile(np.array([[threshold]]),
                                make_calibrated(0.2, 1.0, cs + 0.5, varsigma))[0, 0]
    hi_t = calibrated_quantile(np.array([[threshold + 1.0]]),
                               make_calibrated(0.2, 1.0, cs, varsigma))[0, 0]
    smaller_vs = calibrated_quantile(
        np.array([[threshold]]),
        make_calibrated(0.2, 1.0, cs, max(varsigma - 0.3, 1e-6)))[0, 0]
    assert hi_cs >= lo
    assert hi_t >= lo
    assert smaller_vs >= lo - 1e-9    # smaller varsigma = deeper tail quantile


def test_calibrate_fits_train_block_and_scores_calibration_block():
    # calibrate is gpd_fit over the training exceedances plus the conformity
    # scores of the calibration block; the test block is never read, and the
    # read-out margin has one definition, CalibratedTail.margins
    rng = np.random.default_rng(12)
    labels = rng.standard_normal((1000, 3)) * [1.0, 2.0, 0.5]
    thresholds = np.quantile(labels, 0.9, axis=0) + 0.01 * rng.standard_normal((1000, 3))
    unread = labels.copy()
    unread[900:] = np.nan
    cal = calibrate((thresholds[:700], thresholds[700:900], thresholds[900:]),
                    (unread[:700], unread[700:900], unread[900:]), 0.05, 0.37)
    tails = tuple(gpd_fit(e) for e in collect_exceedances(labels[:700],
                                                            thresholds[:700]))
    assert cal.tails == tails
    assert np.array_equal(cal.scores, conformity_scores(thresholds[700:900],
                                                        labels[700:900], 0.05))
    assert (cal.beta, cal.n_train, cal.n_calibration, cal.varsigma) \
        == (0.05, 700, 200, 0.37)
    assert np.array_equal(cal.margins, [gpd_quantile(t, 1.0 - 0.37) for t in tails])
    t = rng.standard_normal((5, 3))
    assert np.array_equal(calibrated_quantile(t, cal), (t + cal.margins) + cal.scores)
    rep = calibration_report(cal)
    assert [r["exceedance_fraction"] for r in rep["series"]] \
        == [t.n_exceedances / 700 for t in tails]


def test_calibration_report_shape():
    cal = make_calibrated(0.1, 1.0, 0.5, 0.5)
    rep = calibration_report(cal)
    assert rep["beta"] == 0.05
    assert rep["series"][0]["conformity_score"] == 0.5
    assert rep["series"][0]["exceedance_fraction"] == 0.05
