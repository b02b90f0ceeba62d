"""Experiment pipeline: simulate -> window -> train -> calibrate -> evaluate.

Simulate, prepare and train write their artifacts plus a cache key derived
from the relevant configuration slice; re-running with the same spec and
seed reuses artifacts byte-for-byte (stage idempotency), and variants that
share a trained model (iqpt / evt-iqpt / cevt-iqpt) reuse the same
checkpoint and thresholds.  Thresholds are keyed by the checkpoint's bytes,
so a split checkpoint equal to the centralized one shares its predict pass.
Calibration is recomputed on every call.
"""

from __future__ import annotations

import contextvars
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


# the answers of the _cached calls inside the running _stage block; a
# stage call that caches nothing answers False
_checks = contextvars.ContextVar("stage_cache_checks")


@contextmanager
def _stage(name, seconds, cache):
    """Report any failure inside the block but a ConfigError as
    StageError(name); once the block completes, store its wall time in
    seconds[name] and in cache[name] "hit" when every stage call in it
    reused its cached artifact, else "miss"."""
    checks = []
    token = _checks.set(checks)
    t0 = time.perf_counter()
    try:
        yield
    except ConfigError:
        raise
    except Exception as err:                       # noqa: BLE001
        raise StageError(name, err) from err
    finally:
        _checks.reset(token)
    seconds[name] = time.perf_counter() - t0
    cache[name] = "hit" if checks and all(checks) else "miss"


def _hash(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# Output version of each cached stage, folded into its key.  A change that
# alters what a stage writes for the same inputs bumps the stage's number;
# each key holds the key of the stage before it, so the stages after it are
# rebuilt too.
STAGE_VERSIONS = {"simulate": 1, "prepare": 2, "train": 1}


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


def _holds(out, stage, key, artifact):
    """Whether the stage's artifact exists under the key."""
    p = _key_path(out, stage)
    return p.exists() and p.read_text() == key and artifact.exists()


def _cached(out, stage, key, artifact):
    """Whether the stage's artifact exists under its current key; the
    answer is recorded for _stage."""
    hit = _holds(out, stage, key, artifact)
    _checks.get([]).append(hit)
    return hit


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
    if _cached(out, "simulate", key, out / "trace.npz"):
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
    if _cached(out, "prepare", key, out / "dataset.json"):
        return windowing.load_dataset(out / "dataset")
    series = _learning_dbm(spec, trace)
    window = windowing.stationary_interval(series, spec.corr_threshold,
                                           spec.max_lag)
    ds = windowing.normalize(windowing.restructure(series, window, spec.n_cal,
                                                   spec.n_test))
    windowing.save_dataset(ds, out / "dataset")
    _mark(out, "prepare", key)
    return ds


# variants whose read-out adds a GPD tail fitted to the training exceedances
TAIL_VARIANTS = ("evt-iqpt", "cevt-iqpt", "cevt-iqpt-split")
# variants that train no model
BASELINES = ("genie", "moving-average", "wiener")


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
    if _cached(out, stage, key, stem.with_suffix(".json")):
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
        params, curve = train(cfg, tx, ty, spec.train, spec.seed, params=init)
    network.save_checkpoint(stem, params, cfg, spec.seed,
                            {"normalization": {"offset": ds.norm.offset.tolist(),
                                               "scale": ds.norm.scale.tolist()}})
    with open(stem.parent / (stem.name + "_loss.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "pinball_loss"])
        w.writerows(enumerate(curve))
    _mark(out, stage, key)
    return params, cfg


def _thresholds(out, ds, params, cfg, split_mode):
    """The model's normalized thresholds for every window of ds, [L x M]:
    one network.predict pass per distinct model, cached under a key of the
    dataset, the model config and the checkpoint's bytes.  A model whose
    checkpoint equals the other mode's (split = centralized) copies that
    mode's thresholds instead of predicting; a retrained model never reads
    another model's thresholds."""
    suffix = "_split" if split_mode else ""
    key = _stage_key("train", {
        "prep": _key_path(out, "prepare").read_text(), "model": spec_to_dict(cfg),
        "checkpoint": _file_hash(out / f"model{suffix}.bin")})
    path = out / f"thresholds{suffix}.npy"
    if _cached(out, "thresholds" + suffix, key, path):
        return np.load(path)
    other = "" if split_mode else "_split"
    twin = out / f"thresholds{other}.npy"
    if _holds(out, "thresholds" + other, key, twin):
        thresholds = np.load(twin)
    else:
        thresholds = network.predict(params, cfg, ds.inputs)
    np.save(path, thresholds)
    _mark(out, "thresholds" + suffix, key)
    return thresholds


def stage_calibrate(spec, out, ds, params, cfg, split_mode=False):
    """EVT tail fits on training exceedances plus conformal scores
    (tailcal.calibrate), computed on every call from the thresholds of the
    model whose checkpoint `out` holds and recorded in calibration.json,
    the split model's in calibration_split.json; the record is not read
    back, so the stage is never a cache hit.
    """
    out = Path(out)
    suffix = "_split" if split_mode else ""
    calibrated = tailcal.calibrate(
        ds.partition(_thresholds(out, ds, params, cfg, split_mode)),
        ds.partition(ds.labels), spec.beta, spec.varsigma)
    _checks.get([]).append(False)
    tailcal.write_calibration_report(out / f"calibration{suffix}.json", calibrated)
    return calibrated


# ----------------------------------------------------------- evaluate stage

def _dbm_to_w(dbm):
    return 10.0 ** (np.asarray(dbm) / 10.0) * 1e-3


def predictions_dbm(spec, out, trace, ds, variant, thresholds=None,
                    calibrated=None):
    """Test-partition interference predictions in dBm for one variant.

    Baselines run on the interference-to-noise ratio in dB (power over the
    receiver noise floor, the link-adaptation convention); the two-tap
    average is invariant to that reference, the raw-correlation Wiener is
    not, which is its documented failure mode.  The model variants read
    `thresholds`, their model's normalized test-partition thresholds, and
    the tail variants also `calibrated`; run_plan computes both once per
    model.  `out` is the run directory; nothing is read from it.
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
    if variant in ("iqpt", "iqpt-split"):
        return ds.norm.invert(thresholds)
    if variant == "evt-iqpt":
        return ds.norm.invert(thresholds + calibrated.margins)
    if variant in ("cevt-iqpt", "cevt-iqpt-split"):
        return ds.norm.invert(tailcal.calibrated_quantile(thresholds, calibrated))
    raise ConfigError(f"unknown predictor variant {variant!r}")


def stage_evaluate(spec, out, trace, ds, thresholds, calibrated):
    """Coverage, width, and target-vs-achieved BLER rows for spec.variant."""
    variant = spec.variant
    cycles = ds.test_label_cycles()
    labels_dbm = ds.norm.invert(ds.test()[1])
    pred_dbm = predictions_dbm(spec, out, trace, ds, variant, thresholds,
                               calibrated)
    cov = ra.coverage_probability(pred_dbm, labels_dbm)
    width_db = ra.coverage_width(pred_dbm, labels_dbm)
    width_norm = ra.coverage_width(pred_dbm, labels_dbm, normalize=True)

    true_w = trace.true_power[:, cycles].T
    rows = ra.evaluate_ra(_dbm_to_w(pred_dbm), true_w, trace.signal_power,
                          trace.noise_power, spec.payload_bits,
                          spec.eps_targets)
    out_rows = [{"predictor": variant, "eps_target": row["eps_target"],
                 "percentile_met": row["frac_met"],
                 "mean_overhead": row["mean_overhead"],
                 "cov_prob": float(cov.mean()),
                 "cov_width": float(width_norm.mean())} for row in rows]
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


def _write_results(out, new_rows, keep):
    """Write results.csv: its earlier rows of the predictors in `keep`,
    then new_rows."""
    path = Path(out) / "results.csv"
    rows = []
    if path.exists():
        with open(path, newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if r["predictor"] in keep]
    rows += [{k: str(v) for k, v in r.items()} for r in new_rows]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_FIELDS)
        writer.writeheader()
        writer.writerows(rows)


# ----------------------------------------------------------------- run plan

def run_plan(spec, out, variants, until="evaluate"):
    """Run the stage chain once for a set of variants of spec, up to and
    including the stage `until`; returns (trace, dataset, {variant: detail}).

    Simulate and prepare; check_tail_fit for every tail variant, before any
    training; train and train_split, once per mode the variants need, each
    with its model's thresholds over every window (_thresholds: one predict
    pass per distinct checkpoint, so a split model equal to the centralized
    one copies its thresholds); calibrate, once per mode; evaluate, one
    scoring per variant.  Stages cached in `out` are reused.  A full run
    writes results.csv, summary.json and run_manifest.json once, merged
    with the variants of earlier runs in `out` that were scored on the same
    files.  Every call, whatever its exit, drops the recorded runs once a
    file the manifest hashes has changed (_recorded_runs): a stage command
    on another scenario, say, or a retrained model; with no manifest, once
    it rebuilt the trace or the dataset.  It also merges its
    stage times into summary.json: "stage_seconds" times every stage run in
    `out`, and "stage_cache" says whether that time was a cache "hit" or a
    "miss" (the stage did its work); a later hit does not replace a miss.
    A call that drops the runs also drops the times of the stages it did
    not run.  A failure raises StageError naming its stage.
    """
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    specs = {v: replace(spec, variant=v) for v in variants}
    stages, cache = {}, {}
    summary = _read_json(out / "summary.json")
    try:
        with _stage("simulate", stages, cache):
            trace = stage_simulate(spec, out)
        if until == "simulate":
            return trace, None, {}
        with _stage("prepare", stages, cache):
            ds = stage_prepare(spec, out, trace)
        if until == "prepare":
            return trace, ds, {}

        for v, spec_v in specs.items():
            if v in TAIL_VARIANTS:
                check_tail_fit(spec_v, ds)
        # training mode per model variant: True trains through the split protocol
        modes = {v: v.endswith("-split") for v in specs if v not in BASELINES}
        models, thresholds = {}, {}
        for split in dict.fromkeys(modes.values()):
            with _stage("train_split" if split else "train", stages, cache):
                models[split] = stage_train(spec, out, ds, split)
                thresholds[split] = _thresholds(out, ds, *models[split], split)
        if until == "train":
            return trace, ds, {}
        calibrated = {}
        tail_modes = dict.fromkeys(modes[v] for v in modes if v in TAIL_VARIANTS)
        if tail_modes:
            with _stage("calibrate", stages, cache):
                for split in tail_modes:
                    calibrated[split] = stage_calibrate(spec, out, ds,
                                                        *models[split], split)
        if until == "calibrate":
            return trace, ds, {}

        rows, details = [], {}
        with _stage("evaluate", stages, cache):
            test = {split: ds.partition(thr)[2] for split, thr in thresholds.items()}
            for v, spec_v in specs.items():
                split = modes.get(v)                  # None for a baseline
                new_rows, details[v] = stage_evaluate(
                    spec_v, out, trace, ds, test.get(split), calibrated.get(split))
                rows += new_rows

        runs = _recorded_runs(out, summary, cache)
        _write_results(out, rows, set(runs) - set(specs))
        summary.setdefault("runs", {}).update(details)
        summary.update(window=ds.window, seed=spec.seed)
        # each variant's config and the hashes of the files it was scored on
        runs.update(
            {v: {"config": spec_to_dict(s), "config_hash": _hash(spec_to_dict(s))}
             for v, s in specs.items()})
        manifest = {"runs": runs, "seed": spec.seed, "artifacts": {
            name: _file_hash(out / name) for name in ARTIFACTS if (out / name).exists()}}
        (out / "run_manifest.json").write_text(json.dumps(manifest, indent=2))
        return trace, ds, details
    finally:
        _recorded_runs(out, summary, cache)
        # a hit keeps the time of the miss that built the stage's artifact
        seconds = summary.setdefault("stage_seconds", {})
        hits = summary.setdefault("stage_cache", {})
        for name, state in cache.items():
            if state == "miss" or hits.get(name) != "miss":
                seconds[name], hits[name] = stages[name], state
        (out / "summary.json").write_text(json.dumps(summary, indent=2))


def _read_json(path):
    return json.loads(path.read_text()) if path.exists() else {}


# the files whose hashes run_manifest.json records
ARTIFACTS = ("trace.npz", "dataset.bin", "dataset.json", "model.bin", "model_split.bin",
             "thresholds.npy", "thresholds_split.npy", "calibration.json",
             "calibration_split.json", "results.csv")


def _recorded_runs(out, summary, ran):
    """The runs of run_manifest.json, kept only while every file it hashes
    is unchanged: they were scored on those files.  With no manifest there
    are no runs, and the stage times are kept while this call found the
    trace and the dataset in the cache (`ran` maps the stages it has run to
    "hit" or "miss").  Otherwise results.csv and the manifest are deleted,
    summary loses its runs, seed and window and the stage times of every
    stage not in `ran`, and no run is kept."""
    manifest = _read_json(out / "run_manifest.json")
    if manifest:
        kept = all((out / name).exists() and _file_hash(out / name) == digest
                   for name, digest in manifest["artifacts"].items())
    else:
        kept = "miss" not in (ran.get("simulate"), ran.get("prepare"))
    if kept:
        return manifest.get("runs", {})
    for name in ("results.csv", "run_manifest.json"):
        (out / name).unlink(missing_ok=True)
    for key in ("runs", "seed", "window"):
        summary.pop(key, None)
    for key in ("stage_seconds", "stage_cache"):
        summary[key] = {k: v for k, v in summary.get(key, {}).items() if k in ran}
    return {}


def run_pipeline(spec, out):
    """run_plan for spec.variant alone; returns its detail dict."""
    return run_plan(spec, out, [spec.variant])[2][spec.variant]


# -------------------------------------------------------------------- sweep

SWEEP_AXES = ("m", "traffic", "mobility")


def _sweep_point(spec, axis, value):
    """The spec at one value of a sweep axis."""
    if axis == "m":
        return replace(spec, deployment=replace(spec.deployment,
                                                sa_pairs_per_sn=int(value)))
    if axis == "traffic":
        return replace(spec, traffic=replace(spec.traffic, variant=str(value)))
    return replace(spec, mobility=str(value))


def sweep(spec, axis, values, out):
    """Run the pipeline per axis value; emit an aggregated report.

    Axes: m (SA pairs per sub-network), traffic variant, mobility model;
    the eps_targets of one evaluate give a row per reliability target.
    Each point runs in its own subdirectory.  Every value is checked before
    the first point runs; a value the axis cannot take is a ConfigError
    naming both.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; pick from {SWEEP_AXES}")
    if not values:
        raise ConfigError(f"sweep axis {axis!r} got no values")
    points = []
    for value in values:
        try:
            points.append((value, _sweep_point(spec, axis, value)))
        except (ConfigError, ValueError) as err:
            raise ConfigError(f"sweep axis {axis!r} cannot take {value!r}: "
                              f"{err}") from err
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    report_rows = []
    for value, point in points:
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
