"""Training behavior: quantile convergence oracles, determinism, baselines."""

import numpy as np
import pytest

from subnetpred.config import ModelConfig, TrainConfig
from subnetpred.model import (count_params, forward_flops, init_params,
                              levinson_durbin, load_checkpoint,
                              moving_average_predict, param_names, predict,
                              save_checkpoint, train, wiener_predict)
from subnetpred.model.baselines import autocorrelation
from subnetpred.model.train import TrainingDivergedError

SMALL = ModelConfig(n_series=2, window=4, d_embed=16, n_heads=4, n_layers=1,
                    lstm_hidden=16, dropout=0.0, alpha=0.05,
                    center_windows=False)


def test_zero_epochs_returns_initialization():
    x = np.zeros((10, SMALL.window, SMALL.n_series))
    y = np.zeros((10, SMALL.n_series))
    res = train(SMALL, x, y, TrainConfig(epochs=0), 3)
    ref = init_params(SMALL, seed=3)
    for k in param_names(SMALL):
        assert np.array_equal(res.params[k], ref[k])
    assert res.loss_curve == []


def test_constant_labels_drive_loss_to_zero():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((256, SMALL.window, SMALL.n_series))
    y = np.full((256, SMALL.n_series), 0.5)
    res = train(SMALL, x, y, TrainConfig(lr=5e-3, epochs=120, batch_size=64), 0)
    assert res.loss_curve[-1] < 1e-3
    preds = predict(res.params, SMALL, x[:32])
    assert np.abs(preds - 0.5).max() < 0.05


def test_iid_gaussian_labels_converge_to_upper_quantile():
    # labels carry no signal, so the optimum is the marginal 95% quantile;
    # the sample must be large relative to capacity or the regressor chases
    # spurious window-label correlations
    cfg = ModelConfig(n_series=2, window=4, d_embed=8, n_heads=2, n_layers=1,
                      lstm_hidden=8, dropout=0.0, alpha=0.05,
                      center_windows=False)
    rng = np.random.default_rng(1)
    n = 16384
    x = rng.standard_normal((n, cfg.window, cfg.n_series))
    y = rng.standard_normal((n, cfg.n_series))
    res = train(cfg, x, y, TrainConfig(lr=2e-2, epochs=20, batch_size=256), 1)
    x_test = rng.standard_normal((10000, cfg.window, cfg.n_series))
    y_test = rng.standard_normal((10000, cfg.n_series))
    preds = predict(res.params, cfg, x_test)
    assert np.abs(preds.mean() - 1.645) < 0.1
    exceed = (y_test > preds).mean()
    assert abs(exceed - cfg.alpha) < 0.02


def test_training_determinism_bitwise():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((200, SMALL.window, SMALL.n_series))
    y = rng.standard_normal((200, SMALL.n_series))
    cfg = ModelConfig(n_series=2, window=4, d_embed=16, n_heads=4,
                      n_layers=1, lstm_hidden=16, dropout=0.2, alpha=0.05)
    # (window centering active: determinism must hold through that path too)
    tc = TrainConfig(lr=1e-3, epochs=3, batch_size=64)
    a = train(cfg, x, y, tc, 42)
    b = train(cfg, x, y, tc, 42)
    for k in param_names(cfg):
        assert np.array_equal(a.params[k], b.params[k]), k
    assert a.loss_curve == b.loss_curve


def test_non_finite_loss_aborts_with_diagnostics():
    x = np.full((64, SMALL.window, SMALL.n_series), np.inf)
    y = np.zeros((64, SMALL.n_series))
    # the inf windows make NaN activations on purpose
    with pytest.raises(TrainingDivergedError) as err, \
            pytest.warns(RuntimeWarning, match="invalid value"):
        train(SMALL, x, y, TrainConfig(epochs=1, batch_size=32), 0)
    assert err.value.epoch == 0


def test_forward_flops_scale_quadratically_in_series():
    def flops(m):
        return forward_flops(ModelConfig(n_series=m, window=8, d_embed=64,
                                         n_heads=8, n_layers=2,
                                         lstm_hidden=64))
    assert flops(8192) / flops(4096) > 3.5      # attention term dominates
    assert flops(8) / flops(4) >= 2.0           # superlinear already at M=8


def test_checkpoint_round_trip(tmp_path):
    params = init_params(SMALL, seed=7)
    save_checkpoint(tmp_path / "model", params, SMALL, 7, {"note": "unit-test"})
    back, cfg, manifest = load_checkpoint(tmp_path / "model")
    assert manifest["quantile"] == 0.95
    assert manifest["seed"] == 7 and manifest["note"] == "unit-test"
    assert cfg == SMALL
    for k in param_names(SMALL):
        assert np.array_equal(back[k], params[k])
    assert count_params(back) == count_params(params)


# ------------------------------------------------------------------ baselines

def test_moving_average_constant_and_arithmetic():
    series = np.full(10, 3.3)
    assert moving_average_predict(series, [5])[0] == pytest.approx(3.3)
    s = np.array([0.0, 0.0, 2.0, 4.0])           # t-1 = 4, t-2 = 2
    assert moving_average_predict(s, [4])[0] == pytest.approx(3.0)


def test_wiener_recovers_ar1_coefficient():
    rng = np.random.default_rng(4)
    rho, n = 0.9, 30000
    x = np.empty(n)
    x[0] = rng.standard_normal()
    for i in range(1, n):
        x[i] = rho * x[i - 1] + np.sqrt(1 - rho**2) * rng.standard_normal()
    r = autocorrelation(x, 4)
    a = levinson_durbin(r, 4)
    assert a[0] == pytest.approx(0.9, abs=0.05)
    assert np.abs(a[1:]).max() < 0.05


def test_wiener_white_noise_predicts_mean():
    # zero-mean white noise: all correlation lags vanish, so the linear
    # predictor collapses to (approximately) the sample mean of zero
    rng = np.random.default_rng(5)
    x = rng.standard_normal(20000)
    r = autocorrelation(x, 6)
    a = levinson_durbin(r, 6)
    assert np.abs(a).max() < 0.05
    preds = wiener_predict(x, np.arange(4000, 4100), order=6, history=2048)
    assert np.abs(preds).max() < 0.5
    assert abs(preds.mean()) < 0.1


def test_wiener_constant_series_regularized():
    preds = wiener_predict(np.full(100, 2.5), np.arange(50, 60), order=4)
    assert np.allclose(preds, 2.5)


def test_wiener_tracks_ar_process_better_than_ma():
    rng = np.random.default_rng(6)
    rho, n = 0.95, 5000
    x = np.empty(n)
    x[0] = 0.0
    for i in range(1, n):
        x[i] = rho * x[i - 1] + np.sqrt(1 - rho**2) * rng.standard_normal()
    t = np.arange(1000, 3000)
    # on zero-mean stationary data with a trustworthy (long) history the
    # linear predictor must beat the two-tap average
    w = wiener_predict(x, t, order=4, history=512)
    ma = moving_average_predict(x, t)
    err_w = np.mean((w - x[t]) ** 2)
    err_ma = np.mean((ma - x[t]) ** 2)
    assert err_w < err_ma
