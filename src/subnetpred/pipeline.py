"""Experiment pipeline: simulate -> window -> train -> calibrate -> evaluate.

run_plan (the CLI's evaluate) runs the whole chain on every call.  Simulate,
prepare and train write their artifacts plus a cache key derived from the
relevant configuration slice; re-running with the same spec and seed
reuses artifacts byte-for-byte (stage idempotency), and variants that
share a trained model (iqpt / evt-iqpt / cevt-iqpt) reuse the same
checkpoint and thresholds.  Nothing after training knows the protocol
that trained a model: a run keeps one thresholds.npy, keyed by the model's
parameters (a split model equal to the centralized one shares its predict
pass), and one calibration.json, recomputed on every call.  Every call
checks and rewrites run_manifest.json, the one record of a directory's
runs; results.csv is written from it, and summary.json holds stage times.
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
from .config import ConfigError, TrafficModel, spec_to_dict
from .model import baselines as bl
from .model import network
from .model.train import TRAIN_DTYPE, train
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
STAGE_VERSIONS = {"simulate": 1, "prepare": 2, "train": 2}


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


def _cached(out, stage, key, artifact):
    """Whether the stage's artifact exists under its current key; the
    answer is recorded for _stage."""
    p = _key_path(out, stage)
    hit = p.exists() and p.read_text() == key and artifact.exists()
    _checks.get([]).append(hit)
    return hit


def _mark(out, stage, key):
    _key_path(out, stage).write_text(key)


# ------------------------------------------------------------------- stages

def _as_read(spec):
    """spec with its bernoulli traffic's push-pull fields at their defaults:
    bernoulli reads eta alone, so those fields change neither the trace nor
    the run's identity (the simulate key and the recorded config)."""
    if spec.traffic.variant != "bernoulli":
        return spec
    return replace(spec, traffic=TrafficModel(eta=spec.traffic.eta))


def stage_simulate(spec, out):
    out = Path(out)
    key = _stage_key("simulate", {
        "dep": spec_to_dict(spec.deployment),
        "traffic": spec_to_dict(_as_read(spec).traffic),
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
    expected = spec.model.alpha * ds.n_train
    if expected < tailcal.MIN_EXCEEDANCES:
        raise ConfigError(
            f"the {spec.variant} tail fit needs {tailcal.MIN_EXCEEDANCES} "
            f"training exceedances per series, but alpha * n_train = "
            f"{spec.model.alpha:g} * {ds.n_train} = {expected:g}; raise n_cycles "
            f"or model.alpha")


def _model_cfg(spec, window):
    return replace(spec.model, n_series=spec.deployment.sa_pairs_per_sn,
                   window=window)


def stage_train(spec, out, ds, split_mode=False):
    """Train the model, centralized or through the split protocol, or load
    its cached checkpoint; returns (float64 parameters, model config).

    The windows, labels and warm-started initialization are cast to
    TRAIN_DTYPE and either mode trains in it; the trained parameters are
    cast back to float64 (exact) before they are saved, so the checkpoint
    and everything computed from it run in float64.
    """
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
    tx, ty = tx.astype(TRAIN_DTYPE), ty.astype(TRAIN_DTYPE)
    init = {k: v.astype(TRAIN_DTYPE) for k, v in init.items()}
    if split_mode:
        params, curve = split_train(partition(init, cfg), tx, ty, spec.train,
                                    InProcessChannel(), spec.seed)
    else:
        params, curve = train(cfg, tx, ty, spec.train, spec.seed, params=init)
    params = {k: v.astype(np.float64) for k, v in params.items()}
    network.save_checkpoint(stem, params, cfg, spec.seed,
                            {"normalization": {"offset": ds.norm.offset.tolist(),
                                               "scale": ds.norm.scale.tolist()}})
    with open(stem.parent / (stem.name + "_loss.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "pinball_loss"])
        w.writerows(enumerate(curve))
    _mark(out, stage, key)
    return params, cfg


def _params_digest(params, cfg):
    """sha256 of the parameters' float64 bytes in network.param_names
    order: the digest of the checkpoint blob they save to."""
    h = hashlib.sha256()
    for name in network.param_names(cfg):
        h.update(np.ascontiguousarray(params[name], dtype="<f8"))
    return h.hexdigest()


def _thresholds(out, ds, params, cfg):
    """The model's normalized thresholds for every window of ds, [L x M],
    cached in thresholds.npy under a key of the dataset, the model config
    and the parameters' bytes: a model equal to the one whose thresholds
    the file holds reads them, whichever protocol trained it, and any other
    model predicts its own (one network.predict pass) into the file."""
    key = _stage_key("train", {
        "prep": _key_path(out, "prepare").read_text(), "model": spec_to_dict(cfg),
        "checkpoint": _params_digest(params, cfg)})
    path = out / "thresholds.npy"
    if _cached(out, "thresholds", key, path):
        return np.load(path)
    thresholds = network.predict(params, cfg, ds.inputs)
    np.save(path, thresholds)
    _mark(out, "thresholds", key)
    return thresholds


def stage_calibrate(spec, out, ds, params, cfg):
    """EVT tail fits on training exceedances plus conformal scores
    (tailcal.calibrate), computed on every call from the thresholds of the
    model with these parameters and recorded in calibration.json; the
    record is not read back, so the stage is never a cache hit.
    """
    out = Path(out)
    calibrated = tailcal.calibrate(
        ds.partition(_thresholds(out, ds, params, cfg)),
        ds.partition(ds.labels), spec.beta, spec.varsigma)
    _checks.get([]).append(False)
    tailcal.write_calibration_report(out / "calibration.json", calibrated)
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
    """Coverage, width, and target-vs-achieved BLER of spec.variant: its
    per-SA coverage and widths and its ra.evaluate_ra rows."""
    cycles = ds.test_label_cycles()
    labels_dbm = ds.norm.invert(ds.test()[1])
    pred_dbm = predictions_dbm(spec, out, trace, ds, spec.variant, thresholds,
                               calibrated)
    true_w = trace.true_power[:, cycles].T
    return {
        "coverage_per_sa": ra.coverage_probability(pred_dbm, labels_dbm).tolist(),
        "width_db_per_sa": ra.coverage_width(pred_dbm, labels_dbm).tolist(),
        "width_norm_per_sa": ra.coverage_width(pred_dbm, labels_dbm,
                                               normalize=True).tolist(),
        "ra": ra.evaluate_ra(_dbm_to_w(pred_dbm), true_w, trace.signal_power,
                             trace.noise_power, spec.payload_bits,
                             spec.eps_targets),
    }


RESULT_FIELDS = ["predictor", "eps_target", "percentile_met", "mean_overhead",
                 "cov_prob", "cov_width"]


def _write_results(out, runs):
    """Write results.csv: one row per run of `runs` and eps target, in
    order; cov_prob and cov_width are the means over the SA pairs."""
    with open(Path(out) / "results.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_FIELDS)
        for variant, run in runs.items():
            cov = float(np.mean(run["coverage_per_sa"]))
            width = float(np.mean(run["width_norm_per_sa"]))
            writer.writerows([variant, row["eps_target"], row["frac_met"],
                              row["mean_overhead"], cov, width] for row in run["ra"])


# ----------------------------------------------------------------- run plan

def run_plan(spec, out, variants):
    """Run every stage once for a set of variants of spec; returns
    {variant: detail}.

    Simulate and prepare; check_tail_fit for every tail variant, before any
    training; train and train_split, once per mode the variants need, each
    with its model's thresholds over every window (_thresholds, so a split
    model equal to the centralized one reads its thresholds instead of
    predicting); calibrate, once per mode; evaluate, one scoring per
    variant.  Stages cached in `out` are reused.

    Whatever its exit, a call records `out`'s runs in run_manifest.json
    (_record): each scored variant's config and scores, beside those of
    earlier calls that were scored on the same files, and the sha256 of
    every artifact; results.csv lists those runs.  Its stage times merge
    into summary.json: "stage_seconds" times every stage run in `out`, and
    "stage_cache" says whether that time was a cache "hit" or a "miss" (the
    stage did its work); a later hit does not replace a miss.  A failure
    raises StageError naming its stage.
    """
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    specs = {v: replace(spec, variant=v) for v in variants}
    stages, cache, scored = {}, {}, {}
    try:
        with _stage("simulate", stages, cache):
            trace = stage_simulate(spec, out)
        with _stage("prepare", stages, cache):
            ds = stage_prepare(spec, out, trace)

        for v, spec_v in specs.items():
            if v in TAIL_VARIANTS:
                check_tail_fit(spec_v, ds)
        # training mode per model variant: True trains through the split protocol
        modes = {v: v.endswith("-split") for v in specs if v not in BASELINES}
        models, thresholds = {}, {}
        for split in dict.fromkeys(modes.values()):
            with _stage("train_split" if split else "train", stages, cache):
                models[split] = stage_train(spec, out, ds, split)
                thresholds[split] = _thresholds(out, ds, *models[split])
        calibrated = {}
        tail_modes = dict.fromkeys(modes[v] for v in modes if v in TAIL_VARIANTS)
        if tail_modes:
            with _stage("calibrate", stages, cache):
                for split in tail_modes:
                    calibrated[split] = stage_calibrate(spec, out, ds,
                                                        *models[split])

        details = {}
        with _stage("evaluate", stages, cache):
            test = {split: ds.partition(thr)[2] for split, thr in thresholds.items()}
            for v, spec_v in specs.items():
                split = modes.get(v)                  # None for a baseline
                details[v] = stage_evaluate(spec_v, out, trace, ds, test.get(split),
                                            calibrated.get(split))
        scored = {v: {"config": spec_to_dict(_as_read(specs[v])), **d}
                  for v, d in details.items()}
        return details
    finally:
        _record(out, stages, cache, scored)


def _read_json(path):
    return json.loads(path.read_text()) if path.exists() else {}


# the files whose hashes run_manifest.json records
ARTIFACTS = ("trace.npz", "dataset.bin", "dataset.json", "model.bin", "model_split.bin",
             "thresholds.npy", "calibration.json", "results.csv")


def _record(out, stages, cache, scored):
    """Record a call in run_manifest.json and summary.json.

    The manifest's runs were scored on the files it hashes, so they are
    kept while every one of those files is unchanged and every run holds
    its scores; otherwise results.csv is deleted, and the runs and the
    stage times of every stage this call did not run are dropped.  The
    runs this call `scored` then follow the kept ones, results.csv is
    written from them, and the manifest records them with the sha256 of
    every artifact.  `stages` and `cache` hold this call's stage times and
    cache states, merged into summary.json; a hit keeps the time of the
    miss that built the stage's artifact."""
    manifest = _read_json(out / "run_manifest.json")
    summary = _read_json(out / "summary.json")
    seconds = summary.get("stage_seconds", {})
    hits = summary.get("stage_cache", {})
    hashes = {name: _file_hash(out / name) for name in ARTIFACTS if (out / name).exists()}
    runs = manifest.get("runs", {})
    changed = any(hashes.get(name) != digest
                  for name, digest in manifest.get("artifacts", {}).items())
    # a run without scores was recorded when summary.json held them
    if changed or any("ra" not in run for run in runs.values()):
        (out / "results.csv").unlink(missing_ok=True)
        hashes.pop("results.csv", None)
        runs = {}
        seconds = {k: v for k, v in seconds.items() if k in cache}
        hits = {k: v for k, v in hits.items() if k in cache}
    if scored:
        runs = {**{v: run for v, run in runs.items() if v not in scored}, **scored}
        _write_results(out, runs)
        hashes["results.csv"] = _file_hash(out / "results.csv")
    (out / "run_manifest.json").write_text(
        json.dumps({"runs": runs, "artifacts": hashes}, indent=2))
    for name, state in cache.items():
        if state == "miss" or hits.get(name) != "miss":
            seconds[name], hits[name] = stages[name], state
    (out / "summary.json").write_text(
        json.dumps({"stage_seconds": seconds, "stage_cache": hits}, indent=2))


def run_pipeline(spec, out):
    """run_plan for spec.variant alone; returns its detail dict."""
    return run_plan(spec, out, [spec.variant])[spec.variant]


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
    """Run the pipeline per axis value, each point in its own subdirectory
    `{axis}_{value}`, and tabulate them with report(out, out / "report").

    Axes: m (SA pairs per sub-network), traffic variant, mobility model;
    the eps_targets of one evaluate give a row per reliability target.
    Every value is checked before the first point runs; a value the axis
    cannot take is a ConfigError naming both.  So is a results.csv under
    `out` outside this sweep's points, which report would tabulate with them.
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
    runs = {p.parent.relative_to(out) for p in out.glob("**/results.csv")}
    foreign = sorted(map(str, runs - {Path(f"{axis}_{value}") for value in values}))
    if foreign:
        raise ConfigError(f"{out} holds runs outside this sweep's points: "
                          f"{', '.join(foreign)}; sweep into another directory")
    for value, point in points:
        run_pipeline(point, out / f"{axis}_{value}")
    return report(out, out / "report")


# ------------------------------------------------------------------- report

def report(results_dir, out_path=None):
    """Merge the runs under a directory into one table of points.

    A point is the scenario a row was scored in: the config that
    run_manifest.json records for the row's variant, minus seed and
    variant, so the runs of one point differ only by seed.  It is named
    after its first run directory in sorted order; a results.csv whose
    manifest does not record its row's variant is its own point, named
    after its directory.  Rows group by point, predictor and eps_target,
    and every value column of RESULT_FIELDS aggregates to <field>_mean and
    <field>_ci, a normal-approximation 95% CI over runs (0 for one run).
    Returns (rows, markdown); with out_path, the runs' rows go to
    out_path.csv, with their point, run and seed, and the table to
    out_path.md.
    """
    results_dir = Path(results_dir)
    found = sorted(results_dir.glob("**/results.csv"))
    if not found:
        raise FileNotFoundError(f"no results.csv under {results_dir}")
    rows, names, grouped = [], {}, {}
    for path in found:
        run = str(path.parent.relative_to(results_dir)) or "."
        manifest = _read_json(path.parent / "run_manifest.json")
        with open(path, newline="") as fh:
            for r in csv.DictReader(fh):
                config = manifest.get("runs", {}).get(r["predictor"], {}).get("config")
                point = run if config is None else _hash(
                    {k: v for k, v in config.items() if k not in ("seed", "variant")})
                r.update(point=names.setdefault(point, run), run=run,
                         seed=None if config is None else config["seed"])
                rows.append(r)
                grouped.setdefault((point, r["predictor"], r["eps_target"]),
                                   []).append(r)
    values = RESULT_FIELDS[2:]
    lines = ["| " + " | ".join(["point", "predictor", "eps_target", "n_runs",
                                *values]) + " |",
             "|---" * (4 + len(values)) + "|"]
    merged = []
    for group in sorted(grouped.values(), key=lambda g: (
            g[0]["point"], g[0]["predictor"], g[0]["eps_target"])):
        row = {k: group[0][k] for k in ("point", "predictor", "eps_target")}
        row["n_runs"] = len(group)
        cells = [str(v) for v in row.values()]
        for field in values:
            vals = np.array([float(g[field]) for g in group])
            ci = 1.96 * vals.std(ddof=1) / np.sqrt(vals.size) if vals.size > 1 else 0.0
            row[f"{field}_mean"], row[f"{field}_ci"] = float(vals.mean()), float(ci)
            cells.append(f"{vals.mean():.4g}+-{ci:.4g}")
        merged.append(row)
        lines.append("| " + " | ".join(cells) + " |")
    markdown = "\n".join(lines)
    if out_path is not None:
        out_path = Path(out_path)
        with open(out_path.with_suffix(".csv"), "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=RESULT_FIELDS + ["point", "run", "seed"])
            writer.writeheader()
            writer.writerows(rows)
        out_path.with_suffix(".md").write_text(markdown + "\n")
    return merged, markdown
