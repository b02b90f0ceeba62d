"""Finite-blocklength closed forms checked against independent evaluations."""

from statistics import NormalDist

import numpy as np
import pytest
from scipy.special import erfc, ndtri

from subnetpred.ra import (blocklength, capacity, coverage_probability,
                           coverage_width, dispersion, evaluate_ra, q_inverse)


def q_function(x):
    """Gaussian upper-tail probability Q(x), from scipy's erfc."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def achieved_bler(r, snr, payload_bits):
    """BLER of r channel uses carrying payload_bits at SINR snr under the
    normal approximation: Q((r*C - D) / sqrt(r*V))."""
    return q_function((r * capacity(snr) - payload_bits) / np.sqrt(r * dispersion(snr)))


def bisect_q_inverse(eps, lo=-10.0, hi=10.0):
    """Independent oracle: bisection on Q(x) = eps using erfc only."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * erfc(mid / np.sqrt(2.0)) > eps:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_q_inverse_median_is_zero():
    assert q_inverse(0.5) == pytest.approx(0.0, abs=1e-12)


def test_q_inverse_high_reliability_point():
    # frozen from the bisection oracle
    oracle = bisect_q_inverse(1e-5)
    assert oracle == pytest.approx(4.26489, abs=1e-4)
    assert q_inverse(1e-5) == pytest.approx(oracle, abs=1e-9)


def test_q_roundtrip_on_log_grid():
    eps = np.logspace(-9, -0.5, 40)
    back = q_function([q_inverse(e) for e in eps])
    assert np.allclose(back, eps, rtol=1e-10, atol=0)


def test_q_inverse_is_minus_scipy_ndtri_bit_for_bit():
    # a log grid through every branch of Cephes' ndtri (both tails, the
    # centre, z = sqrt(-2 log y) on either side of 8), plus the HRLLC targets
    eps = np.concatenate([np.logspace(-300, 0, 20000, endpoint=False),
                          1.0 - np.logspace(-16, -0.01, 2000),
                          [1e-5, 1e-6, 1e-7, 1e-9, 0.5]])
    got = np.array([q_inverse(e) for e in eps])
    np.testing.assert_array_equal(got.view(np.int64), (-ndtri(eps)).view(np.int64))


@pytest.mark.parametrize("eps", [1e-5, 1e-7, 1e-9, 1e-12])
def test_q_inverse_matches_stdlib_at_hrllc_targets(eps):
    assert q_inverse(eps) == pytest.approx(-NormalDist().inv_cdf(eps), rel=1e-14, abs=0)


def test_blocklength_at_half_target_is_shannon_limit():
    assert blocklength(3.0, 200, 0.5) == pytest.approx(100.0)


def test_blocklength_asymptotics_in_payload():
    # the dispersion correction is O(sqrt(D)), so R/D -> 1/C like 1/sqrt(D)
    snr, eps = 4.0, 1e-6
    c = capacity(snr)
    assert blocklength(snr, 1e5, eps) / 1e5 == pytest.approx(1.0 / c, rel=2e-2)
    assert blocklength(snr, 1e7, eps) / 1e7 == pytest.approx(1.0 / c, rel=2e-3)
    assert blocklength(snr, 1e9, eps) / 1e9 == pytest.approx(1.0 / c, rel=2e-4)


def test_blocklength_matches_quadratic_root_oracle():
    # independent algebraic path: R = ((q sqrt(V) + sqrt(q^2 V + 4 D C)) / 2C)^2
    snr = 10.0 ** (10.0 / 10.0)
    d_bits, eps = 200, 1e-5
    q = bisect_q_inverse(eps)
    c = np.log2(1 + snr)
    v = (1 - (1 + snr) ** -2) * np.log2(np.e) ** 2
    root = (q * np.sqrt(v) + np.sqrt(q * q * v + 4 * d_bits * c)) / (2 * c)
    oracle = root * root
    assert blocklength(snr, d_bits, eps) == pytest.approx(oracle, rel=1e-9)
    # frozen regression value from the oracle above
    assert oracle == pytest.approx(72.9402, abs=1e-3)


def test_achieved_bler_zero_margin_is_half():
    snr = 5.0
    r = 200.0 / capacity(snr)
    assert achieved_bler(r, snr, 200) == pytest.approx(0.5)


def test_self_consistency_on_grid():
    # un-ceiled blocklength reproduces the target; ceiling only improves it
    rng = np.random.default_rng(0)
    snrs = 10 ** rng.uniform(-0.5, 2.0, 100)
    payloads = rng.integers(50, 2000, 100)
    epss = 10 ** rng.uniform(-7, -1, 100)
    for snr, d, eps in zip(snrs, payloads, epss):
        r_real = blocklength(snr, int(d), eps)
        assert achieved_bler(r_real, snr, int(d)) == pytest.approx(eps, rel=1e-12, abs=0)
        assert achieved_bler(np.ceil(r_real), snr, int(d)) <= eps * (1 + 1e-12)


def test_monotonicity_of_channel_usage():
    base = blocklength(5.0, 200, 1e-5)
    assert blocklength(6.0, 200, 1e-5) < base          # better SINR, fewer uses
    assert blocklength(5.0, 400, 1e-5) > base          # more bits, more uses
    assert blocklength(5.0, 200, 1e-6) > base          # stricter target, more uses


def test_overprediction_is_safe():
    # resources sized for more interference than there is keep the BLER
    # of every instance under target
    rng = np.random.default_rng(4)
    true_i = 10 ** rng.uniform(-9, -6, (200, 2))
    sig = np.full(2, 1e-5)
    for factor in (1.01, 4.0, 100.0):
        rows = evaluate_ra(true_i * factor, true_i, sig, 1e-12, 200,
                           [1e-5, 1e-7])
        for row in rows:
            assert row["frac_met"] == 1.0
            assert row["mean_overhead"] > 1.0


def test_evaluate_ra_sinr_is_signal_over_interference_plus_noise():
    # at eps = 0.5 the blocklength is D / log2(1 + SINR), so the overhead
    # is the ratio of log2(1 + S / (I + N)) at the true and predicted I
    def overhead(pred_i, true_i, sig, noise):
        rows = evaluate_ra([[pred_i]], [[true_i]], [sig], noise, 200, [0.5])
        return rows[0]["mean_overhead"], rows[0]["frac_met"]

    ovh, met = overhead(0.0, 3.0, 1.0, 1.0)       # SINR 1 predicted, 1/4 true
    assert ovh == pytest.approx(np.log2(1.25) / np.log2(2.0), rel=1e-12)
    assert met == 0.0                             # under-prediction fails
    ovh, met = overhead(1.0, 0.0, 2.0, 2.0)       # SINR 2/3 predicted, 1 true
    assert ovh == pytest.approx(np.log2(2.0) / np.log2(5.0 / 3.0), rel=1e-12)
    assert met == 1.0


def test_coverage_probability_trivials():
    y = np.random.default_rng(1).standard_normal((50, 3))
    assert np.all(coverage_probability(y + 1.0, y) == 1.0)
    assert np.all(coverage_probability(y - 1.0, y) == 0.0)


def test_coverage_width_trivials():
    y = np.random.default_rng(2).standard_normal((50, 3))
    assert np.allclose(coverage_width(y, y), 0.0)
    assert np.allclose(coverage_width(y + 2.5, y), 2.5)
    normed = coverage_width(y + 2.5, y, normalize=True)
    span = y.max(axis=0) - y.min(axis=0)
    assert np.allclose(normed, 2.5 / span)


def test_frac_met_matches_the_achieved_bler_oracle():
    # evaluate_ra tests the margin against Qinv(eps); the oracle computes
    # each allocation's BLER with erfc and compares it with eps
    rng = np.random.default_rng(5)
    true_i = 10 ** rng.uniform(-9, -6, (400, 3))
    pred_i = true_i * 10 ** rng.normal(0.0, 0.3, true_i.shape)
    sig = 10 ** rng.uniform(-6, -4, 3)
    eps_targets = [1e-5, 1e-6, 1e-7, 0.5]
    rows = evaluate_ra(pred_i, true_i, sig, 1e-12, 200, eps_targets)
    snr_hat, snr_true = sig / (pred_i + 1e-12), sig / (true_i + 1e-12)
    for row, eps in zip(rows, eps_targets):
        r_int = np.maximum(np.ceil(blocklength(snr_hat, 200, eps)), 1.0)
        met = achieved_bler(r_int, snr_true, 200) <= eps
        assert 0.0 < met.mean() < 1.0
        assert row["frac_met"] == met.mean()


def test_evaluate_ra_genie_meets_every_target():
    rng = np.random.default_rng(3)
    true_i = 10 ** rng.uniform(-9, -6, (200, 2))
    sig = np.full(2, 1e-5)
    rows = evaluate_ra(true_i, true_i, sig, 1e-12, 200, [1e-5, 1e-6, 1e-7])
    for row in rows:
        assert row["frac_met"] == 1.0
        assert row["mean_overhead"] == pytest.approx(1.0)


def test_ra_config_validation():
    with pytest.raises(ValueError):
        q_inverse(0.0)
    with pytest.raises(ValueError):
        q_inverse(1.0)
    with pytest.raises(ValueError):
        blocklength(-1.0, 200, 1e-5)


def test_dispersion_properties():
    assert dispersion(0.0) == pytest.approx(0.0, abs=1e-15)
    big = dispersion(1e9)
    assert big == pytest.approx(np.log2(np.e) ** 2, rel=1e-6)
