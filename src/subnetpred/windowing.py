"""Restructuring of correlated interference series into exchangeable instances.

A measured interference series is serially correlated; conformal calibration
needs exchangeable instances.  The compromise is the stationary-interval
rule: the window length is the largest lag over which the lagged Pearson
correlation stays above a threshold, and consecutive (window, label)
instances are treated as exchangeable units.  Splits are contiguous
(train, calibration, test) blocks in instance order so no partition sees
the future of an earlier one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


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


def stationary_interval(series_matrix, threshold=0.9, max_lag=64):
    """Window length: the largest lag whose correlation clears the threshold.

    series_matrix is [n_series x T]; the interval is the largest lag in
    1..max_lag with lagged Pearson correlation >= threshold (slot-periodic
    interference makes the correlation sequence non-monotone, so every lag
    is examined rather than stopping at the first shortfall).  Per-series
    values aggregate across series by the floored median; returns at
    least 1.
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

    inputs:  [L x window x n_series]
    labels:  [L x n_series], label j is the sample right after window j
    """

    inputs: np.ndarray
    labels: np.ndarray
    window: int
    n_train: int
    n_cal: int
    n_test: int
    threshold: float = 0.9
    norm: NormalizationParams | None = None

    def __post_init__(self):
        total = self.n_train + self.n_cal + self.n_test
        if total != self.inputs.shape[0]:
            raise ValueError("partition sizes must cover all instances")
        if self.n_train <= 0:
            raise ValueError("train partition must be non-empty")

    @property
    def n_series(self):
        return self.inputs.shape[2]

    def _block(self, start, size):
        sl = slice(start, start + size)
        return self.inputs[sl], self.labels[sl]

    def train(self):
        return self._block(0, self.n_train)

    def calibration(self):
        return self._block(self.n_train, self.n_cal)

    def test(self):
        return self._block(self.n_train + self.n_cal, self.n_test)

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
    idx = np.arange(window)[None, :] + np.arange(n_inst)[:, None]
    inputs = mat.T[idx]                       # [L x window x n_series]
    labels = mat[:, window:].T.copy()         # [L x n_series]
    return WindowedDataset(inputs=inputs, labels=labels, window=window,
                           n_train=n_inst - n_cal - n_test, n_cal=n_cal,
                           n_test=n_test)


def normalize(dataset):
    """Min-max normalize per series using train-partition statistics only.

    Returns a new dataset plus the affine parameters; degenerate series
    (min == max) fall back to unit scale so the map stays invertible.
    """
    tx, ty = dataset.train()
    lo = np.minimum(tx.min(axis=(0, 1)), ty.min(axis=0))
    hi = np.maximum(tx.max(axis=(0, 1)), ty.max(axis=0))
    scale = hi - lo
    scale = np.where(scale > 0, scale, 1.0)
    norm = NormalizationParams(offset=lo, scale=scale)
    out = WindowedDataset(
        inputs=norm.apply(dataset.inputs), labels=norm.apply(dataset.labels),
        window=dataset.window, n_train=dataset.n_train, n_cal=dataset.n_cal,
        n_test=dataset.n_test, threshold=dataset.threshold, norm=norm)
    return out


def save_dataset(dataset, stem):
    """Write inputs+labels as one flat float64 blob with a JSON manifest."""
    stem = Path(stem)
    blob = np.concatenate([dataset.inputs.ravel(), dataset.labels.ravel()])
    blob.astype("<f8").tofile(stem.with_suffix(".bin"))
    manifest = {
        "inputs_shape": list(dataset.inputs.shape),
        "labels_shape": list(dataset.labels.shape),
        "window": dataset.window,
        "threshold": dataset.threshold,
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
    blob = np.fromfile(stem.with_suffix(".bin"), dtype=manifest["dtype"])
    xs = manifest["inputs_shape"]
    ys = manifest["labels_shape"]
    nx = int(np.prod(xs))
    inputs = blob[:nx].reshape(xs)
    labels = blob[nx:].reshape(ys)
    norm = None
    if "normalization" in manifest:
        norm = NormalizationParams(
            offset=np.array(manifest["normalization"]["offset"]),
            scale=np.array(manifest["normalization"]["scale"]))
    parts = manifest["partitions"]
    return WindowedDataset(inputs=inputs, labels=labels,
                           window=manifest["window"],
                           n_train=parts["train"], n_cal=parts["cal"],
                           n_test=parts["test"],
                           threshold=manifest["threshold"], norm=norm)
