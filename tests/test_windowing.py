"""Window restructuring: correlation rule, splits, normalization, round trips."""

import numpy as np
import pytest

from subnetpred.windowing import (DegenerateSeriesError, lag_correlation,
                                  load_dataset, normalize, restructure,
                                  save_dataset, stationary_interval)


def ar1(rho, n, seed=0):
    rng = np.random.default_rng(seed)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    for i in range(1, n):
        x[i] = rho * x[i - 1] + np.sqrt(1 - rho**2) * rng.standard_normal()
    return x


def test_lag_zero_is_one():
    assert lag_correlation(np.random.default_rng(0).standard_normal(100), 0) == 1.0


def test_perfect_anticorrelation():
    s = np.array([1.0, -1.0] * 50)
    assert lag_correlation(s, 1) == pytest.approx(-1.0)


def test_ar1_lag_correlation_matches_analytic_power():
    x = ar1(0.9, 100000, seed=1)
    assert lag_correlation(x, 2) == pytest.approx(0.81, abs=0.02)


def test_degenerate_series_raises():
    with pytest.raises(DegenerateSeriesError):
        lag_correlation(np.ones(50), 1)


def test_stationary_interval_white_noise():
    x = np.random.default_rng(2).standard_normal((3, 5000))
    assert stationary_interval(x, threshold=0.9, max_lag=32) == 1


def test_stationary_interval_ar1_analytic():
    # rho^Delta >= 0.8 iff Delta <= ln(0.8)/ln(0.95) = 4.35 -> interval 4
    x = np.stack([ar1(0.95, 200000, seed=s) for s in (3, 4)])
    assert stationary_interval(x, threshold=0.8, max_lag=32) == 4


def test_stationary_interval_fully_correlated_series():
    # a ramp has unit lag correlation at every lag
    ramp = np.arange(5000, dtype=float)[None, :]
    assert stationary_interval(ramp, threshold=0.9, max_lag=16) == 16


def test_stationary_interval_monotone_in_threshold():
    x = np.stack([ar1(0.9, 50000, seed=s) for s in (5, 6)])
    values = [stationary_interval(x, threshold=t, max_lag=64)
              for t in (0.95, 0.9, 0.8, 0.6, 0.4)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_restructure_boundary_single_instance():
    mat = np.arange(12, dtype=float).reshape(2, 6)
    ds = restructure(mat, window=5, n_cal=0, n_test=0)
    assert ds.inputs.shape == (1, 5, 2)
    assert np.array_equal(ds.inputs[0], mat[:, :5].T)
    assert np.array_equal(ds.labels[0], mat[:, 5])


def test_restructure_paper_scale_partition_sizes():
    window = 16
    total = 9000 + window
    mat = np.random.default_rng(7).standard_normal((4, total))
    ds = restructure(mat, window=window, n_cal=1000, n_test=2000)
    assert (ds.n_train, ds.n_cal, ds.n_test) == (6000, 1000, 2000)
    tx, _ = ds.train()
    cx, _ = ds.calibration()
    sx, _ = ds.test()
    assert tx.shape[0] + cx.shape[0] + sx.shape[0] == total - window


def test_restructure_round_trip_reconstruction():
    mat = np.random.default_rng(8).standard_normal((3, 40))
    ds = restructure(mat, window=7, n_cal=5, n_test=5)
    for j in (0, 11, ds.inputs.shape[0] - 1):
        rebuilt = np.concatenate([ds.inputs[j], ds.labels[j][None, :]], axis=0)
        assert np.array_equal(rebuilt, mat[:, j:j + 8].T)


def test_restructure_too_short_raises():
    with pytest.raises(ValueError):
        restructure(np.zeros((2, 5)), window=5, n_cal=0, n_test=0)


def test_labels_are_disjoint_from_own_window():
    mat = np.random.default_rng(9).standard_normal((2, 30))
    ds = restructure(mat, window=4, n_cal=4, n_test=4)
    for j in range(ds.inputs.shape[0]):
        assert ds.labels[j][0] not in ds.inputs[j][:, 0]


def test_normalize_train_stats_only_and_midpoint():
    mat = np.concatenate([np.linspace(-100, -60, 50),
                          np.linspace(-200, 0, 10)])[None, :]
    ds = restructure(mat, window=1, n_cal=5, n_test=5)
    normed = normalize(ds)
    # train covers only the first ramp; -80 maps to the midpoint
    assert normed.norm.apply(-80.0)[0] == pytest.approx(0.5, abs=0.02)
    tx, ty = normed.train()
    assert ty.min() >= 0.0 and ty.max() <= 1.0


def test_normalize_constant_series_fallback():
    mat = np.full((1, 20), -55.0)
    with pytest.raises(DegenerateSeriesError):
        lag_correlation(mat[0], 1)
    ds = restructure(mat, window=2, n_cal=3, n_test=3)
    normed = normalize(ds)
    assert np.allclose(normed.inputs, 0.0)
    assert np.allclose(normed.labels, 0.0)


def test_normalize_round_trip_identity():
    mat = np.random.default_rng(10).uniform(-120, -40, (3, 60))
    ds = restructure(mat, window=4, n_cal=8, n_test=8)
    normed = normalize(ds)
    back = normed.norm.invert(normed.labels)
    assert np.abs(back - ds.labels).max() < 1e-12


def test_dataset_serialization_round_trip(tmp_path):
    mat = np.random.default_rng(11).standard_normal((2, 50))
    ds = normalize(restructure(mat, window=3, n_cal=6, n_test=6))
    ds.threshold = 0.75
    save_dataset(ds, tmp_path / "ds")
    back = load_dataset(tmp_path / "ds")
    assert np.array_equal(back.inputs, ds.inputs)
    assert np.array_equal(back.labels, ds.labels)
    assert back.window == ds.window and back.threshold == 0.75
    assert (back.n_train, back.n_cal, back.n_test) == (ds.n_train, ds.n_cal, ds.n_test)
    assert np.array_equal(back.norm.offset, ds.norm.offset)


def test_test_label_cycles_align_with_source_trace():
    mat = np.arange(60, dtype=float)[None, :] * 2.0
    ds = restructure(mat, window=5, n_cal=10, n_test=10)
    cycles = ds.test_label_cycles()
    _, ty = ds.test()
    assert np.array_equal(ty[:, 0], mat[0, cycles])
