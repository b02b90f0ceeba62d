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
                                finite_sample_quantile, gpd_fit, gpd_quantile)


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


def test_gpd_fit_requires_minimum_samples_and_positivity():
    with pytest.raises(InsufficientExceedancesError):
        gpd_fit(np.ones(10))
    with pytest.raises(ValueError):
        gpd_fit(np.concatenate([np.ones(40), [-1.0]]))


def known_gpd_samples(n_samples):
    """(shape, scale, samples) over the shapes, scales and sizes the pipeline
    fits: shape ~ U[-0.6, 0.8], scale ~ 10^U[-2, 1], n ~ U{30..399}."""
    rng = np.random.default_rng(20)
    for _ in range(n_samples):
        shape, scale = rng.uniform(-0.6, 0.8), 10 ** rng.uniform(-2, 1)
        yield shape, scale, gpd_samples(shape, scale,
                                        int(rng.integers(MIN_EXCEEDANCES, 400)), rng)


def seeded_exceedances(n_samples):
    """known_gpd_samples, every seventh rounded so that it has ties."""
    for i, (_, _, y) in enumerate(known_gpd_samples(n_samples)):
        yield np.round(y, 1) + 0.05 if i % 7 == 0 else y


def test_gpd_fit_quantiles_match_known_truth():
    # relative error of the fitted Q(0.5) and Q(0.9) against the sampled law:
    # median, 90th percentile and worst read about 0.06 / 0.17 / 0.57 here
    errors = np.array([[abs(gpd_quantile(gpd_fit(y), p)
                            / gpd_quantile(GpdTail(shape, scale, y.size, 0.0), p) - 1.0)
                        for p in (0.5, 0.9)]
                       for shape, scale, y in known_gpd_samples(400)])
    assert np.all(np.median(errors, axis=0) <= 0.08)
    assert np.all(np.quantile(errors, 0.9, axis=0) <= 0.20)
    assert np.all(errors.max(axis=0) <= 1.0)


def test_gpd_fit_is_feasible_with_its_log_likelihood():
    # every fit covers its largest exceedance, and log_likelihood is the
    # GPD log-density summed over the sample
    for y in [*seeded_exceedances(200), np.full(50, 3.0)]:
        tail = gpd_fit(y)
        z = tail.shape * y / tail.scale
        assert np.isfinite(tail.log_likelihood)
        assert 1.0 + tail.shape * y.max() / tail.scale > 0
        log_density = -math.log(tail.scale) - (1.0 + 1.0 / tail.shape) * np.log1p(z)
        assert tail.log_likelihood == pytest.approx(log_density.sum(), rel=1e-12)


# ---------------------------------------------------------------- quantiles

def test_gpd_quantile_identities():
    assert gpd_quantile(GpdTail(0.5, 1.0, 100, 0.0), 0.0) == 0.0
    assert gpd_quantile(GpdTail(0.5, 1.0, 100, 0.0), 0.75) == pytest.approx(2.0)
    assert gpd_quantile(GpdTail(0.0, 1.0, 100, 0.0), 1 - math.exp(-1)) == pytest.approx(1.0)


def test_gpd_quantile_endpoint_rules():
    # p = 1 is outside the domain for either sign of the shape
    for shape in (0.1, -0.5):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            gpd_quantile(GpdTail(shape, 1.0, 100, 0.0), 1.0)


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
    # the split-conformal law: with one-sided scores y - p from n
    # exchangeable calibration draws, the coverage of one calibration set is
    # Beta(k, n + 1 - k), k = ceil((n + 1)(1 - beta)).  Labels are a level
    # plus N(0, 1) noise and the predictor is biased by +0.3, so a label is
    # covered when its noise lies below q + 0.3: each set's coverage is
    # exactly Phi(q + 0.3), the k-th order statistic of uniforms
    from scipy.stats import beta as beta_law
    from scipy.stats import kstest, norm

    n, beta, bias, sets = 1000, 0.05, 0.3, 2000
    k = math.ceil((n + 1) * (1 - beta))
    assert k == 951
    rng = np.random.default_rng(6)
    level = rng.uniform(-10.0, 10.0, (sets, n))
    labels = level + rng.standard_normal((sets, n))
    preds = level + bias
    q = np.array([finite_sample_quantile(y - p, beta)
                  for y, p in zip(labels, preds)])
    coverage = norm.cdf(q + bias)
    law = beta_law(k, n + 1 - k)
    assert abs(coverage.mean() - law.mean()) <= 4 * law.std() / math.sqrt(sets)
    # a KS test of size 0.001 against the law
    assert kstest(coverage, law.cdf).pvalue > 0.001


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
