"""Training behavior: quantile convergence oracles, determinism, baselines."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from subnetpred import pipeline, windowing
from subnetpred.config import ModelConfig, TrainConfig, desk_preset
from subnetpred.model import network
from subnetpred.model.baselines import (autocorrelation, levinson_durbin,
                                        moving_average_predict, wiener_predict)
from subnetpred.model.network import (forward_flops, init_params,
                                      load_checkpoint, param_names, predict,
                                      save_checkpoint)
from subnetpred.model.train import TrainingDivergedError, train
from subnetpred.split.messages import InProcessChannel
from subnetpred.split.partition import partition
from subnetpred.split.runtime import split_train

SMALL = ModelConfig(n_series=2, window=4, d_embed=16, n_heads=4, n_layers=1,
                    lstm_hidden=16, dropout=0.0, alpha=0.05)


def test_zero_epochs_returns_initialization():
    x = np.zeros((10, SMALL.window, SMALL.n_series))
    y = np.zeros((10, SMALL.n_series))
    params, curve = train(SMALL, x, y, TrainConfig(epochs=0), 3,
                          init_params(SMALL, seed=3))
    ref = init_params(SMALL, seed=3)
    for k in param_names(SMALL):
        assert np.array_equal(params[k], ref[k])
    assert curve == []


def test_constant_labels_drive_loss_to_zero():
    # every label sits 0.5 above its window's mean, so the optimal offset
    # the head adds to that level is 0.5 for every instance, at zero loss
    rng = np.random.default_rng(0)
    x = rng.standard_normal((256, SMALL.window, SMALL.n_series))
    y = x.mean(axis=1) + 0.5
    params, curve = train(SMALL, x, y,
                          TrainConfig(lr=5e-3, epochs=240, batch_size=64,
                                      lr_decay=0.1),
                          0, init_params(SMALL, seed=0))
    assert curve[-1] < 1e-3
    preds = predict(params, SMALL, x[:32])
    assert np.abs(preds - y[:32]).max() < 0.05


def test_iid_gaussian_labels_converge_to_upper_quantile():
    # labels are the window mean plus iid N(0, 1) noise the window carries
    # no signal about, so the optimal offset from that level is the noise's
    # 95% quantile, 1.645; the sample must be large relative to capacity or
    # the regressor chases spurious window-label correlations
    cfg = ModelConfig(n_series=2, window=4, d_embed=8, n_heads=2, n_layers=1,
                      lstm_hidden=8, dropout=0.0, alpha=0.05)
    rng = np.random.default_rng(1)
    n = 16384
    x = rng.standard_normal((n, cfg.window, cfg.n_series))
    y = x.mean(axis=1) + rng.standard_normal((n, cfg.n_series))
    params, _ = train(cfg, x, y, TrainConfig(lr=2e-2, epochs=20, batch_size=256),
                      1, init_params(cfg, seed=1))
    x_test = rng.standard_normal((10000, cfg.window, cfg.n_series))
    level = x_test.mean(axis=1)
    y_test = level + rng.standard_normal((10000, cfg.n_series))
    preds = predict(params, cfg, x_test)
    assert np.abs((preds - level).mean() - 1.645) < 0.1
    exceed = (y_test > preds).mean()
    assert abs(exceed - cfg.alpha) < 0.02


def test_training_determinism_bitwise():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((200, SMALL.window, SMALL.n_series))
    y = rng.standard_normal((200, SMALL.n_series))
    cfg = ModelConfig(n_series=2, window=4, d_embed=16, n_heads=4,
                      n_layers=1, lstm_hidden=16, dropout=0.2, alpha=0.05)
    tc = TrainConfig(lr=1e-3, epochs=3, batch_size=64)
    a, curve_a = train(cfg, x, y, tc, 42, init_params(cfg, seed=42))
    b, curve_b = train(cfg, x, y, tc, 42, init_params(cfg, seed=42))
    for k in param_names(cfg):
        assert np.array_equal(a[k], b[k]), k
    assert curve_a == curve_b


def _train_central(x, y, train_cfg):
    return train(SMALL, x, y, train_cfg, 0, init_params(SMALL, 0))


def _train_split(x, y, train_cfg):
    return split_train(partition(init_params(SMALL, 0), SMALL), x, y,
                       train_cfg, InProcessChannel(), 0)


@pytest.mark.parametrize("run", [_train_central, _train_split],
                         ids=["train", "split_train"])
def test_non_finite_loss_aborts_with_diagnostics(run):
    x = np.full((64, SMALL.window, SMALL.n_series), np.inf)
    y = np.zeros((64, SMALL.n_series))
    # the inf windows make NaN activations on purpose
    with pytest.raises(TrainingDivergedError) as err, \
            pytest.warns(RuntimeWarning, match="invalid value"):
        run(x, y, TrainConfig(epochs=1, batch_size=32))
    assert (err.value.epoch, err.value.batch) == (0, 0)


def test_predict_peak_memory_is_bounded_by_its_chunk():
    # the threshold pass keeps at most two chunks' backward caches, the last
    # one's until the next forward returns, so its peak does not grow with
    # the window count: 1,024 desk-shape windows peak at 6.2 MiB in 64-row
    # chunks (3.3 MiB when each chunk's caches went before the next
    # forward), and at 24.3 MiB in 256-row chunks
    cfg = ModelConfig(n_series=4, window=16, d_embed=64, lstm_hidden=64)
    params = init_params(cfg, 0)
    x = np.random.default_rng(0).standard_normal((1024, cfg.window, cfg.n_series))
    assert len(x) >= 4 * network.PREDICT_BATCH
    tracemalloc.start()
    try:
        network.predict(params, cfg, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


@pytest.mark.parametrize("split_mode", [False, True])
def test_training_peak_memory_does_not_grow_with_the_training_set(tmp_path,
                                                                  split_mode):
    # training holds the dataset's float64 windows once and gathers and
    # casts each batch from them, so 6,000 more desk-shape training windows
    # leave the peak where it was; a float32 copy of the training set would
    # add 1.6 MB, and per-client copies of its columns as much again
    desk = desk_preset(0)
    spec = replace(desk, train=replace(desk.train, epochs=1))
    window = 16
    peaks = []
    # the first training of a process also allocates what the process then
    # keeps (about 1.1 MiB), so a one-batch training goes first
    for n_train in (128, 1000, 7000):
        out = tmp_path / str(n_train)
        out.mkdir()
        series = np.random.default_rng(0).standard_normal(
            (desk.deployment.sa_pairs_per_sn, n_train + window + 2))
        ds = windowing.normalize(windowing.restructure(series, window, 1, 1))
        assert ds.n_train == n_train
        tracemalloc.start()
        try:
            pipeline.stage_train(spec, out, ds, split_mode)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[2] - peaks[1]) < 0.5 * 2**20, peaks


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
    assert sum(v.size for v in back.values()) == sum(v.size for v in params.values())


# ------------------------------------------------------------------ baselines

@pytest.mark.parametrize("t", [[1], [5, 0], np.array([2, 1, 9]), [-1],
                               np.array([3, -2])])
def test_moving_average_needs_two_history_samples(t):
    # a negative cycle would wrap to the series' end in the gather
    with pytest.raises(ValueError, match="two history samples"):
        moving_average_predict(np.arange(10.0), t)


def test_moving_average_of_no_cycles_is_empty():
    out = moving_average_predict(np.arange(10.0), [])
    assert out.shape == (0,) and out.dtype == np.float64


def test_moving_average_constant_and_arithmetic():
    series = np.full(10, 3.3)
    assert moving_average_predict(series, [5])[0] == pytest.approx(3.3)
    s = np.array([0.0, 0.0, 2.0, 4.0])           # t-1 = 4, t-2 = 2
    assert moving_average_predict(s, [4])[0] == pytest.approx(3.0)


def test_moving_average_one_cycle_equals_batched_and_two_taps():
    # the decision loop reads one cycle at a time, the pipeline all of them:
    # both give the bits of the two taps read one by one
    s = np.random.default_rng(3).standard_normal(200) * 30.0 - 80.0
    t = np.arange(2, s.size)
    batched = moving_average_predict(s, t)
    taps = 0.5 * s[t - 1] + 0.5 * s[t - 2]
    one = np.array([moving_average_predict(s, (k,))[0] for k in t])
    assert (batched == taps).all() and (one == taps).all()


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
    # on zero-mean stationary data, the Yule-Walker coefficients of the long
    # series must predict better than the two-tap average
    a = levinson_durbin(autocorrelation(x, 4), 4)
    w = np.stack([x[t - k] for k in range(1, 5)], axis=1) @ a
    ma = moving_average_predict(x, t)
    err_w = np.mean((w - x[t]) ** 2)
    err_ma = np.mean((ma - x[t]) ** 2)
    assert err_w < err_ma
