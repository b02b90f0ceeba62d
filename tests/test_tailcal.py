"""Tail-calibration oracles: GPD recovery from inversion sampling, conformal
finite-sample quantiles, and the calibrated read-out identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnetpred.tailcal import (MIN_EXCEEDANCES, CalibratedTail,
                                ConformalRecord, GpdTail,
                                InsufficientExceedancesError,
                                calibrated_quantile, calibration_report,
                                collect_exceedances, conformity_scores,
                                finite_sample_quantile, gpd_fit, gpd_quantile,
                                moments_estimate, read_calibration_report,
                                write_calibration_report, _gpd_nll)


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
    assert zeros.scores[0] == 0.0

    resid = np.arange(1, 100, dtype=float)
    assert finite_sample_quantile(resid, beta=0.05) == 95.0

    small = finite_sample_quantile(np.array([3.0, 1.0, 2.0]), beta=0.05)
    assert small == 3.0     # ceil(4*0.95)=4 > n -> saturates at the max


def test_conformity_scores_per_series_differ():
    rng = np.random.default_rng(5)
    preds = np.zeros((500, 2))
    labels = np.stack([rng.normal(0, 1, 500), rng.normal(0, 5, 500)], axis=1)
    rec = conformity_scores(preds, labels, beta=0.1)
    assert rec.scores[1] > rec.scores[0]
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
    record = ConformalRecord(scores=np.array([cs]), beta=0.05, n_calibration=100)
    return CalibratedTail(tails=tails, record=record, varsigma=varsigma)


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


def test_calibration_report_shape():
    cal = make_calibrated(0.1, 1.0, 0.5, 0.5)
    rep = calibration_report(cal, exceedance_fractions=[0.05])
    assert rep["beta"] == 0.05
    assert rep["series"][0]["conformity_score"] == 0.5
    assert rep["series"][0]["exceedance_fraction"] == 0.05


def test_calibration_report_round_trips_exactly(tmp_path):
    tails = (GpdTail(0.1 / 3, math.pi, 41, -math.e), GpdTail(-0.7, 1e-9, 30, -1e300,
                                                                 fallback=True))
    cal = CalibratedTail(tails=tails,
                         record=ConformalRecord(np.array([1 / 7, 2.0 ** -60]),
                                                beta=0.05, n_calibration=123),
                         varsigma=0.3)
    write_calibration_report(tmp_path / "cal.json", cal, [0.05, 0.1])
    back = read_calibration_report(tmp_path / "cal.json")
    assert back.tails == cal.tails and back.varsigma == cal.varsigma
    assert (back.record.beta, back.record.n_calibration) == (0.05, 123)
    assert np.array_equal(back.record.scores, cal.record.scores)
