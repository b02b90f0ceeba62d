"""Experiment pipeline: simulate -> window -> train -> calibrate -> evaluate.

Every stage writes its artifact plus a cache key derived from the relevant
configuration slice; re-running with the same spec and seed reuses artifacts
byte-for-byte (stage idempotency), and variants that share a trained model
(iqpt / evt-iqpt / cevt-iqpt) reuse the same checkpoint and calibration.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import ra, tailcal, windowing
from .config import ConfigError, spec_to_dict
from .model import baselines as bl
from .model import network
from .model.train import train
from .scenario import simulate
from .split import InProcessChannel, partition, split_train


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for diagnostics."""

    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


@contextmanager
def _stage(name, seconds=None):
    """Report any failure inside the block as StageError(name), unless an
    inner stage already named it; store the block's wall time in seconds."""
    t0 = time.perf_counter()
    try:
        yield
    except (ConfigError, StageError):
        raise
    except Exception as err:                       # noqa: BLE001
        raise StageError(name, err) from err
    finally:
        if seconds is not None:
            seconds[name] = time.perf_counter() - t0


def _hash(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# Output version of each cached stage, folded into its key.  A change that
# alters what a stage writes for the same inputs bumps the stage's number;
# each key holds the key of the stage before it, so the stages after it are
# rebuilt too.
STAGE_VERSIONS = {"simulate": 1, "prepare": 1, "train": 1, "calibrate": 1}


def _stage_key(stage, inputs):
    return _hash({"version": STAGE_VERSIONS[stage], **inputs})


def _file_hash(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _key_path(out, stage):
    return Path(out) / f".{stage}.key"


def _cached(out, stage, key):
    p = _key_path(out, stage)
    return p.exists() and p.read_text() == key


def _mark(out, stage, key):
    _key_path(out, stage).write_text(key)


# ------------------------------------------------------------------- stages

def stage_simulate(spec, out):
    out = Path(out)
    key = _stage_key("simulate", {
        "dep": spec_to_dict(spec.deployment),
        "traffic": spec_to_dict(spec.traffic),
        "channel": spec_to_dict(spec.channel),
        "mobility": spec.mobility, "n_cycles": spec.n_cycles, "seed": spec.seed})
    if _cached(out, "simulate", key) and (out / "trace.npz").exists():
        return simulate.load_trace(out / "trace")
    trace = simulate.simulate_trace(spec.deployment, spec.traffic, spec.channel,
                                    spec.n_cycles, spec.seed, mobility=spec.mobility)
    simulate.save_trace(trace, out / "trace")
    _mark(out, "simulate", key)
    return trace


def _learning_dbm(spec, trace):
    """Estimated interference in dBm as the predictors learn and read it.

    Learning-domain dB floor: interference a decade below the receiver
    noise floor is operationally irrelevant, and letting the raw 1e-20 W
    trace clamp through would stretch the min-max range by ~80 dB.
    """
    return trace.est_dbm(floor=max(spec.channel.power_floor_w,
                                   trace.noise_power * 0.1))


def stage_prepare(spec, out, trace):
    out = Path(out)
    key = _stage_key("prepare", {
        "sim": _key_path(out, "simulate").read_text(),
        "threshold": spec.corr_threshold, "max_lag": spec.max_lag,
        "n_cal": spec.n_cal, "n_test": spec.n_test})
    if _cached(out, "prepare", key) and (out / "dataset.json").exists():
        return windowing.load_dataset(out / "dataset")
    series = _learning_dbm(spec, trace)
    window = windowing.stationary_interval(series, spec.corr_threshold,
                                           spec.max_lag)
    ds = windowing.restructure(series, window, spec.n_cal, spec.n_test)
    ds.threshold = spec.corr_threshold
    ds = windowing.normalize(ds)
    windowing.save_dataset(ds, out / "dataset")
    _mark(out, "prepare", key)
    return ds


# variants whose read-out adds a GPD tail fitted to the training exceedances
TAIL_VARIANTS = ("evt-iqpt", "cevt-iqpt", "cevt-iqpt-split")


def check_tail_fit(spec, ds):
    """Reject, before any training, a training partition too short for the
    tail fit: a quantile head at level 1 - alpha leaves about
    alpha * n_train exceedances per series, and the fit needs
    tailcal.MIN_EXCEEDANCES of them."""
    expected = spec.alpha * ds.n_train
    if expected < tailcal.MIN_EXCEEDANCES:
        raise ConfigError(
            f"the {spec.variant} tail fit needs {tailcal.MIN_EXCEEDANCES} "
            f"training exceedances per series, but alpha * n_train = "
            f"{spec.alpha:g} * {ds.n_train} = {expected:g}; raise n_cycles "
            f"or alpha")


def _model_cfg(spec, window):
    return replace(spec.model, n_series=spec.deployment.sa_pairs_per_sn,
                   window=window, alpha=spec.alpha)


def stage_train(spec, out, ds, split_mode=False):
    out = Path(out)
    cfg = _model_cfg(spec, ds.window)
    stem = out / ("model_split" if split_mode else "model")
    key = _stage_key("train", {
        "prep": _key_path(out, "prepare").read_text(),
        "model": spec_to_dict(cfg), "train": spec_to_dict(spec.train),
        "split": split_mode})
    stage = "train_split" if split_mode else "train"
    if _cached(out, stage, key) and stem.with_suffix(".json").exists():
        params, cfg_loaded, _ = network.load_checkpoint(stem)
        return params, cfg_loaded
    tx, ty = ds.train()
    init = network.init_params(cfg, spec.seed)
    # warm-start each quantile head at its marginal target quantile; the
    # asymmetric pinball gradients otherwise overshoot and anneal slowly
    init["head.b"][:] = np.quantile(ty, 1.0 - cfg.alpha, axis=0)
    if split_mode:
        params, curve = split_train(partition(init, cfg), tx, ty, spec.train,
                                    InProcessChannel(), spec.seed)
    else:
        result = train(cfg, tx, ty, spec.train, spec.seed, params=init)
        params, curve = result.params, result.loss_curve
    network.save_checkpoint(stem, params, cfg, spec.seed,
                            {"normalization": {"offset": ds.norm.offset.tolist(),
                                               "scale": ds.norm.scale.tolist()}})
    with open(stem.parent / (stem.name + "_loss.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "pinball_loss"])
        w.writerows(enumerate(curve))
    _mark(out, stage, key)
    return params, cfg


def stage_calibrate(spec, out, ds, params, cfg, split_mode=False):
    """EVT tail fits on training exceedances plus conformal scores.

    Keyed on the train stage that built the model (stage_train must have
    run in `out`), so variants sharing a checkpoint share one calibration;
    the split model's goes to its own file.
    """
    out = Path(out)
    suffix = "_split" if split_mode else ""
    key = _stage_key("calibrate", {
        "train": _key_path(out, "train" + suffix).read_text(),
        "beta": spec.beta, "varsigma": spec.varsigma})
    stage = "calibrate" + suffix
    path = out / f"calibration{suffix}.json"
    if _cached(out, stage, key) and path.exists():
        return tailcal.read_calibration_report(path)
    tx, ty = ds.train()
    cx, cy = ds.calibration()
    thresholds_train = network.predict(params, cfg, tx)
    exceed = tailcal.collect_exceedances(ty, thresholds_train)
    tails = tuple(tailcal.gpd_fit(e) for e in exceed)
    record = tailcal.conformity_scores(network.predict(params, cfg, cx), cy,
                                       spec.beta)
    calibrated = tailcal.CalibratedTail(tails=tails, record=record,
                                        varsigma=spec.varsigma)
    fractions = [e.size / ty.shape[0] for e in exceed]
    tailcal.write_calibration_report(path, calibrated, fractions)
    _mark(out, stage, key)
    return calibrated


# ----------------------------------------------------------- evaluate stage

def _dbm_to_w(dbm):
    return 10.0 ** (np.asarray(dbm) / 10.0) * 1e-3


def predictions_dbm(spec, out, trace, ds, variant):
    """Test-partition interference predictions in dBm for one variant.

    Baselines run on the interference-to-noise ratio in dB (power over the
    receiver noise floor, the link-adaptation convention); the two-tap
    average is invariant to that reference, the raw-correlation Wiener is
    not, which is its documented failure mode.
    """
    cycles = ds.test_label_cycles()
    noise_dbm = 10.0 * np.log10(trace.noise_power) + 30.0
    inr = _learning_dbm(spec, trace) - noise_dbm
    if variant == "genie":
        return trace.true_dbm()[:, cycles].T
    if variant == "moving-average":
        return noise_dbm + np.stack(
            [bl.moving_average_predict(inr[m], cycles)
             for m in range(inr.shape[0])], axis=1)
    if variant == "wiener":
        return noise_dbm + np.stack(
            [bl.wiener_predict(inr[m], cycles, order=ds.window)
             for m in range(inr.shape[0])], axis=1)

    split_mode = variant.endswith("-split")
    with _stage("train_split" if split_mode else "train"):
        params, cfg = stage_train(spec, out, ds, split_mode=split_mode)
    sx, _ = ds.test()
    thresholds = network.predict(params, cfg, sx)
    if variant in ("iqpt", "iqpt-split"):
        return ds.norm.invert(thresholds)
    with _stage("calibrate"):
        calibrated = stage_calibrate(spec, out, ds, params, cfg, split_mode)
    if variant == "evt-iqpt":
        margins = np.array([tailcal.gpd_quantile(t, 1.0 - spec.varsigma)
                            for t in calibrated.tails])
        return ds.norm.invert(thresholds + margins)
    if variant in ("cevt-iqpt", "cevt-iqpt-split"):
        return ds.norm.invert(tailcal.calibrated_quantile(thresholds, calibrated))
    raise ConfigError(f"unknown predictor variant {variant!r}")


def stage_evaluate(spec, out, trace, ds):
    """Coverage, width, and target-vs-achieved BLER rows for spec.variant."""
    out = Path(out)
    variant = spec.variant
    cycles = ds.test_label_cycles()
    _, test_labels = ds.test()
    labels_dbm = ds.norm.invert(test_labels)

    pred_dbm = predictions_dbm(spec, out, trace, ds, variant)
    cov = ra.coverage_probability(pred_dbm, labels_dbm)
    width_db = ra.coverage_width(pred_dbm, labels_dbm)
    width_norm = ra.coverage_width(pred_dbm, labels_dbm, normalize=True)

    true_w = trace.true_power[:, cycles].T
    rows = ra.evaluate_ra(_dbm_to_w(pred_dbm), true_w, trace.signal_power,
                          trace.noise_power, spec.payload_bits,
                          spec.eps_targets)
    out_rows = []
    for row in rows:
        out_rows.append({
            "predictor": variant,
            "eps_target": row["eps_target"],
            "percentile_met": row["frac_met"],
            "mean_overhead": row["mean_overhead"],
            "cov_prob": float(cov.mean()),
            "cov_width": float(width_norm.mean()),
        })
    detail = {
        "variant": variant,
        "coverage_per_sa": cov.tolist(),
        "width_db_per_sa": width_db.tolist(),
        "width_norm_per_sa": width_norm.tolist(),
        "ra": rows,
    }
    return out_rows, detail


RESULT_FIELDS = ["predictor", "eps_target", "percentile_met", "mean_overhead",
                 "cov_prob", "cov_width"]


def _write_results(out, new_rows):
    """Merge rows into results.csv, replacing rows of the same predictor."""
    path = Path(out) / "results.csv"
    rows = []
    if path.exists():
        with open(path, newline="") as fh:
            rows = [r for r in csv.DictReader(fh)
                    if r["predictor"] not in {n["predictor"] for n in new_rows}]
    rows += [{k: str(v) for k, v in r.items()} for r in new_rows]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    return path


def run_pipeline(spec, out):
    """Execute the full pipeline for spec.variant; returns the summary dict.

    Artifacts land in `out`; stages already cached for this (spec, seed) are
    reused, so evaluating several variants against one scenario shares the
    simulation, dataset, and checkpoints.  summary.json["stage_seconds"]
    holds each stage's own wall time; evaluate includes the training and
    calibration it runs.  A failure raises StageError naming the stage that
    failed: simulate, prepare, train, train_split, calibrate or evaluate.
    A tail variant whose training partition cannot feed the tail fit
    raises ConfigError after prepare (check_tail_fit).
    """
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    stages = {}
    with _stage("simulate", stages):
        trace = stage_simulate(spec, out)
    with _stage("prepare", stages):
        ds = stage_prepare(spec, out, trace)
    if spec.variant in TAIL_VARIANTS:
        check_tail_fit(spec, ds)
    with _stage("evaluate", stages):
        rows, detail = stage_evaluate(spec, out, trace, ds)

    _write_results(out, rows)
    summary_path = out / "summary.json"
    summary = {}
    if summary_path.exists():
        summary = json.loads(summary_path.read_text())
    summary.setdefault("runs", {})[spec.variant] = detail
    summary["window"] = ds.window
    summary["seed"] = spec.seed
    summary["stage_seconds"] = stages
    summary_path.write_text(json.dumps(summary, indent=2))
    _write_manifest(spec, out)
    return detail


def _write_manifest(spec, out):
    """Hash the run's artifacts; keep each variant's config, merged across
    run_pipeline calls the way summary.json["runs"] is."""
    out = Path(out)
    path = out / "run_manifest.json"
    manifest = json.loads(path.read_text()) if path.exists() else {}
    manifest.setdefault("runs", {})[spec.variant] = {
        "config": spec_to_dict(spec),
        "config_hash": _hash(spec_to_dict(spec)),
    }
    manifest["seed"] = spec.seed
    manifest["artifacts"] = {
        name: _file_hash(out / name)
        for name in ("trace.npz", "dataset.bin", "model.bin", "model_split.bin",
                     "calibration.json", "calibration_split.json", "results.csv")
        if (out / name).exists()}
    path.write_text(json.dumps(manifest, indent=2))


# -------------------------------------------------------------------- sweep

SWEEP_AXES = ("m", "eps_target", "traffic", "mobility")


def sweep(spec, axis, values, out):
    """Run the pipeline per axis value; emit an aggregated report.

    Axes: m (SA pairs per sub-network), eps_target, traffic variant,
    mobility model.  Each point runs in its own subdirectory.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; pick from {SWEEP_AXES}")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    report_rows = []
    for value in values:
        point = spec
        if axis == "m":
            m = int(value)
            point = replace(spec, deployment=replace(spec.deployment,
                                                     sa_pairs_per_sn=m))
        elif axis == "eps_target":
            point = replace(spec, eps_targets=(float(value),))
        elif axis == "traffic":
            point = replace(spec, traffic=replace(spec.traffic, variant=str(value)))
        elif axis == "mobility":
            point = replace(spec, mobility=str(value))
        sub = out / f"{axis}_{value}"
        detail = run_pipeline(point, sub)
        cov = detail["coverage_per_sa"]
        width = detail["width_norm_per_sa"]
        report_rows.append({
            "axis": axis, "value": value, "predictor": point.variant,
            "worst_coverage": min(cov), "avg_coverage": float(np.mean(cov)),
            "max_width": max(width), "avg_width": float(np.mean(width)),
        })
    path = out / "sweep_report.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(report_rows[0].keys()))
        writer.writeheader()
        writer.writerows(report_rows)
    return report_rows


# ------------------------------------------------------------------- report

def report(results_dir, out_path=None):
    """Merge run results under a directory into one long-format table.

    Returns (rows, markdown).  Multi-run points aggregate to mean and a
    normal-approximation 95% CI over runs.
    """
    results_dir = Path(results_dir)
    found = sorted(results_dir.glob("**/results.csv"))
    if not found:
        raise FileNotFoundError(f"no results.csv under {results_dir}")
    rows = []
    for path in found:
        run = str(path.parent.relative_to(results_dir)) or "."
        manifest = path.parent / "run_manifest.json"
        seed = None
        if manifest.exists():
            seed = json.loads(manifest.read_text()).get("seed")
        with open(path, newline="") as fh:
            for r in csv.DictReader(fh):
                r["run"] = run
                r["seed"] = seed
                rows.append(r)

    grouped = {}
    for r in rows:
        key = (r["predictor"], r["eps_target"])
        grouped.setdefault(key, []).append(r)
    lines = ["| predictor | eps_target | met (mean+-ci) | overhead | coverage | width |",
             "|---|---|---|---|---|---|"]
    merged = []
    for (pred, eps), group in sorted(grouped.items()):
        def stats(field):
            vals = np.array([float(g[field]) for g in group])
            ci = 1.96 * vals.std(ddof=1) / np.sqrt(vals.size) if vals.size > 1 else 0.0
            return float(vals.mean()), float(ci)
        met, met_ci = stats("percentile_met")
        ovh, ovh_ci = stats("mean_overhead")
        cov, cov_ci = stats("cov_prob")
        wid, wid_ci = stats("cov_width")
        merged.append({"predictor": pred, "eps_target": eps, "n_runs": len(group),
                       "met_mean": met, "met_ci": met_ci,
                       "overhead_mean": ovh, "overhead_ci": ovh_ci,
                       "cov_mean": cov, "cov_ci": cov_ci,
                       "width_mean": wid, "width_ci": wid_ci})
        lines.append(f"| {pred} | {eps} | {met:.3f}+-{met_ci:.3f} "
                     f"| {ovh:.2f}+-{ovh_ci:.2f} | {cov:.3f}+-{cov_ci:.3f} "
                     f"| {wid:.3f}+-{wid_ci:.3f} |")
    markdown = "\n".join(lines)
    if out_path is not None:
        out_path = Path(out_path)
        with open(out_path.with_suffix(".csv"), "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=RESULT_FIELDS + ["run", "seed"])
            writer.writeheader()
            writer.writerows(rows)
        out_path.with_suffix(".md").write_text(markdown + "\n")
    return merged, markdown
