"""Experiment pipeline: simulate -> window -> train -> calibrate -> evaluate.

run_plan (the CLI's evaluate) runs the whole chain on every call.  A run
directory holds one scenario, the spec without its variant: run_plan
records it in run_manifest.json when it makes the directory and refuses
any other.  So simulate, prepare and train reuse an artifact whenever its
last file exists, and variants that share a trained model (iqpt / evt-iqpt
/ cevt-iqpt) share its checkpoint and thresholds.  Nothing after training
knows the protocol that trained a model: a run keeps one thresholds.npy,
keyed by the model's parameters (a split model equal to the centralized
one shares its predict pass), and one calibration.json, recomputed on
every call.  run_manifest.json is the one record of a directory's runs;
results.csv is written from it, and summary.json holds each stage's time
from the first call that completed it.
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


@contextmanager
def _stage(name, seconds):
    """Report any failure inside the block but a ConfigError as
    StageError(name); once the block completes, store its wall time in
    seconds[name]."""
    t0 = time.perf_counter()
    try:
        yield
    except ConfigError:
        raise
    except Exception as err:                       # noqa: BLE001
        raise StageError(name, err) from err
    seconds[name] = time.perf_counter() - t0


def _hash(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# Output version of the stages, recorded with a directory's scenario: a change
# that alters what a stage writes for the same spec bumps it.
VERSION = 3


def _file_hash(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# ------------------------------------------------------------------- stages

def stage_simulate(spec, out):
    out = Path(out)
    if (out / "trace.npz").exists():
        return simulate.load_trace(out / "trace")
    trace = simulate.simulate_trace(spec.deployment, spec.traffic, spec.channel,
                                    spec.n_cycles, spec.seed, mobility=spec.mobility)
    simulate.save_trace(trace, out / "trace")
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
    if (out / "dataset.json").exists():
        return windowing.load_dataset(out / "dataset")
    ds = windowing.normalize(windowing.restructure(
        _learning_dbm(spec, trace), spec.model.window, spec.n_cal, spec.n_test))
    windowing.save_dataset(ds, out / "dataset")
    return ds


# the read-outs of ExperimentSpec.VARIANTS that add a GPD tail fitted to the
# training exceedances, and so need a calibration
TAIL_READOUTS = ("gpd", "conformal")


def check_tail_fit(spec):
    """Reject, before any training, a training partition too short for the
    tail fit: the trace leaves n_train = n_cycles - model.window - n_cal -
    n_test training instances, a quantile head at level 1 - alpha leaves
    about alpha * n_train exceedances per series, and the fit needs
    tailcal.MIN_EXCEEDANCES of them."""
    n_train = spec.n_cycles - spec.model.window - spec.n_cal - spec.n_test
    expected = spec.model.alpha * n_train
    if expected < tailcal.MIN_EXCEEDANCES:
        raise ConfigError(
            f"the {spec.variant} tail fit needs {tailcal.MIN_EXCEEDANCES} "
            f"training exceedances per series, but alpha * n_train = "
            f"{spec.model.alpha:g} * {n_train} = {expected:g}; raise n_cycles "
            f"or model.alpha")


def stage_train(spec, out, ds, split_mode=False):
    """Train the model, centralized or through the split protocol, or load
    its checkpoint once its loss curve, the last file training writes,
    exists; returns (float64 parameters, model config).

    The warm-started initialization is cast to TRAIN_DTYPE and either mode
    trains in it.  The training windows and labels stay the dataset's
    float64 views, held once: each batch is gathered from them and cast
    to TRAIN_DTYPE.  The trained parameters are cast back to float64
    (exact) before they are saved, so the checkpoint and everything
    computed from it run in float64.
    """
    out = Path(out)
    cfg = replace(spec.model, n_series=spec.deployment.sa_pairs_per_sn)
    stem = out / ("model_split" if split_mode else "model")
    loss = out / (stem.name + "_loss.csv")
    if loss.exists():
        params, cfg_loaded, _ = network.load_checkpoint(stem)
        return params, cfg_loaded
    tx, ty = ds.train()
    init = network.init_params(cfg, spec.seed)
    # warm-start each quantile head at its marginal target quantile; the
    # asymmetric pinball gradients otherwise overshoot and anneal slowly
    init["head.b"][:] = np.quantile(ty, 1.0 - cfg.alpha, axis=0)
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
    with open(loss, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "pinball_loss"])
        w.writerows(enumerate(curve))
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
    cached in thresholds.npy under the parameters' digest in
    .thresholds.key: a model equal to the one whose thresholds the file
    holds reads them, whichever protocol trained it, and any other model
    predicts its own (one network.predict pass) into the file."""
    key, path = out / ".thresholds.key", out / "thresholds.npy"
    digest = _params_digest(params, cfg)
    if path.exists() and key.exists() and key.read_text() == digest:
        return np.load(path)
    thresholds = network.predict(params, cfg, ds.inputs)
    np.save(path, thresholds)
    key.write_text(digest)
    return thresholds


def stage_calibrate(spec, out, ds, params, cfg):
    """EVT tail fits on training exceedances plus conformal scores
    (tailcal.calibrate), computed on every call from the thresholds of the
    model with these parameters and recorded in calibration.json, which
    is not read back.
    """
    out = Path(out)
    calibrated = tailcal.calibrate(
        ds.partition(_thresholds(out, ds, params, cfg)),
        ds.partition(ds.labels), spec.beta, spec.varsigma)
    tailcal.write_calibration_report(out / "calibration.json", calibrated)
    return calibrated


# ----------------------------------------------------------- evaluate stage

def _dbm_to_w(dbm):
    return 10.0 ** (np.asarray(dbm) / 10.0) * 1e-3


def predictions_dbm(spec, out, trace, ds, variant, thresholds=None,
                    calibrated=None):
    """Test-partition interference predictions in dBm of one variant's read-out.

    Baselines run on the interference-to-noise ratio in dB (power over the
    receiver noise floor, the link-adaptation convention); the two-tap
    average is invariant to that reference, the raw-correlation Wiener is
    not, which is its documented failure mode.  The model read-outs take
    `thresholds`, their model's normalized test-partition thresholds, and
    the tail read-outs also `calibrated`; run_plan computes both once per
    model.  `out` is the run directory; nothing is read from it.
    """
    readout = spec.VARIANTS[variant][1]
    cycles = ds.test_label_cycles()
    noise_dbm = 10.0 * np.log10(trace.noise_power) + 30.0
    inr = _learning_dbm(spec, trace) - noise_dbm
    if readout == "genie":
        return trace.true_dbm()[:, cycles].T
    if readout == "moving-average":
        return noise_dbm + np.stack(
            [bl.moving_average_predict(inr[m], cycles)
             for m in range(inr.shape[0])], axis=1)
    if readout == "wiener":
        return noise_dbm + np.stack(
            [bl.wiener_predict(inr[m], cycles, order=ds.window)
             for m in range(inr.shape[0])], axis=1)
    if readout == "threshold":
        return ds.norm.invert(thresholds)
    if readout == "gpd":
        return ds.norm.invert(thresholds + calibrated.margins)
    return ds.norm.invert(tailcal.calibrated_quantile(thresholds, calibrated))


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

def _scenario(spec):
    """The scenario of spec: the spec without its variant, and with a
    bernoulli traffic's push-pull fields at their defaults, since bernoulli
    reads eta alone and those fields change neither the trace nor the run."""
    if spec.traffic.variant == "bernoulli":
        spec = replace(spec, traffic=TrafficModel(eta=spec.traffic.eta))
    return {k: v for k, v in spec_to_dict(spec).items() if k != "variant"}


def _differ(a, b, prefix=""):
    """The dotted keys at which two nested dicts differ."""
    for k in sorted(a.keys() | b.keys()):
        x, y = a.get(k), b.get(k)
        if isinstance(x, dict) and isinstance(y, dict):
            yield from _differ(x, y, f"{prefix}{k}.")
        elif x != y:
            yield prefix + k


def _check_out(spec, out):
    """Whether `out` is new: missing or empty.  An `out` that holds files
    is refused (ConfigError) unless its run_manifest.json records spec's
    scenario at this VERSION; the message names the keys that differ."""
    if not out.is_dir() or not any(out.iterdir()):
        return True
    held = _read_json(out / "run_manifest.json")
    differ = list(_differ({"version": VERSION, **_scenario(spec)},
                          {"version": held.get("version"), **held.get("scenario", {})}))
    if differ:
        why = f"differing: {', '.join(differ)}" if "scenario" in held else "none recorded"
        raise ConfigError(f"{out} holds another scenario ({why}); "
                          f"evaluate into an empty directory")
    return False


def run_plan(spec, out, variants):
    """Run every stage once for a set of variants of spec; returns
    {variant: detail}.

    Before `out` is touched: check_tail_fit for every tail read-out, and
    _check_out; a new `out` is made with a run_manifest.json that records
    VERSION and the scenario.  Then simulate and prepare; train and
    train_split, once per protocol of ExperimentSpec.VARIANTS
    the variants name, each with its model's thresholds over every window
    (_thresholds); calibrate, once per protocol of a tail read-out;
    evaluate, one scoring per variant.  Artifacts that `out` holds are reused.

    Whatever its exit after those checks, a call records `out`'s runs in
    run_manifest.json (_record): each scored variant's scores, beside those
    of earlier calls that were scored on the same files, and the sha256 of
    every artifact; results.csv lists those runs.  summary.json's
    "stage_seconds" gains the time of each stage it completed that no
    earlier call into `out` completed.  A failure raises StageError naming
    its stage.
    """
    out = Path(out)
    specs = {v: replace(spec, variant=v) for v in variants}
    # the protocol that trains each variant's model, None for a baseline
    protocols = {v: spec.VARIANTS[v][0] for v in specs}
    tails = [spec_v for v, spec_v in specs.items() if spec.VARIANTS[v][1] in TAIL_READOUTS]
    for spec_v in tails:
        check_tail_fit(spec_v)
    if _check_out(spec, out):
        out.mkdir(parents=True, exist_ok=True)
        (out / "run_manifest.json").write_text(json.dumps(
            {"version": VERSION, "scenario": _scenario(spec), "runs": {},
             "artifacts": {}}, indent=2))
    stages, scored = {}, {}
    try:
        with _stage("simulate", stages):
            trace = stage_simulate(spec, out)
        with _stage("prepare", stages):
            ds = stage_prepare(spec, out, trace)

        models, thresholds = {}, {}
        for protocol in dict.fromkeys(filter(None, protocols.values())):
            split = protocol == "split"
            with _stage("train_split" if split else "train", stages):
                models[protocol] = stage_train(spec, out, ds, split)
                thresholds[protocol] = _thresholds(out, ds, *models[protocol])
        calibrated = {}
        tail_protocols = dict.fromkeys(protocols[spec_v.variant] for spec_v in tails)
        if tail_protocols:
            with _stage("calibrate", stages):
                for protocol in tail_protocols:
                    calibrated[protocol] = stage_calibrate(spec, out, ds,
                                                           *models[protocol])

        with _stage("evaluate", stages):
            test = {p: ds.partition(thr)[2] for p, thr in thresholds.items()}
            scored = {v: stage_evaluate(spec_v, out, trace, ds, test.get(protocols[v]),
                                        calibrated.get(protocols[v]))
                      for v, spec_v in specs.items()}
        return scored
    finally:
        _record(out, stages, scored)


def _read_json(path):
    return json.loads(path.read_text()) if path.exists() else {}


# the files whose hashes run_manifest.json records
ARTIFACTS = ("trace.npz", "dataset.bin", "dataset.json", "model.bin", "model_split.bin",
             "thresholds.npy", "calibration.json", "results.csv")


def _record(out, stages, scored):
    """Record a call in run_manifest.json and summary.json.

    The manifest's runs were scored on the files it hashes, so they are
    kept while every one of those files is unchanged; once one changes (a
    split model that differs from the centralized one rewrites
    thresholds.npy), results.csv is deleted and the runs are dropped.  The
    runs this call `scored` then follow the kept ones, results.csv is
    written from them, and the manifest records them with the sha256 of
    every artifact.  `stages` holds this call's stage times; summary.json
    keeps each stage's time from the first call that completed it, the call
    that built its artifact, and adds the others.  The manifest holds no
    time, so that two equal runs write it byte for byte."""
    manifest = _read_json(out / "run_manifest.json")
    recorded = _read_json(out / "summary.json").get("stage_seconds", {})
    hashes = {name: _file_hash(out / name) for name in ARTIFACTS if (out / name).exists()}
    runs = manifest["runs"]
    if any(hashes.get(name) != digest for name, digest in manifest["artifacts"].items()):
        (out / "results.csv").unlink(missing_ok=True)
        hashes.pop("results.csv", None)
        runs = {}
    if scored:
        runs = {**{v: run for v, run in runs.items() if v not in scored}, **scored}
        _write_results(out, runs)
        hashes["results.csv"] = _file_hash(out / "results.csv")
    (out / "run_manifest.json").write_text(
        json.dumps({**manifest, "runs": runs, "artifacts": hashes}, indent=2))
    (out / "summary.json").write_text(
        json.dumps({"stage_seconds": {**stages, **recorded}}, indent=2))


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
    `out` outside this sweep's points, which report would tabulate with
    them, and a point directory that holds another scenario (_check_out).
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
        _check_out(point, out / f"{axis}_{value}")
    for value, point in points:
        run_pipeline(point, out / f"{axis}_{value}")
    return report(out, out / "report")


# ------------------------------------------------------------------- report

def report(results_dir, out_path=None):
    """Merge the runs under a directory into one table of points.

    A point is the scenario a run directory holds: the one its
    run_manifest.json records, minus seed, so the runs of one point differ
    only by seed.  It is named after its first run directory in sorted
    order; a results.csv whose directory records no scenario is its own
    point, named after its directory.  Rows group by point, predictor and
    eps_target, and every value column of RESULT_FIELDS aggregates to
    <field>_mean and <field>_ci, a normal-approximation 95% CI over runs (0
    for one run).
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
        scenario = _read_json(path.parent / "run_manifest.json").get("scenario")
        point = run if scenario is None else _hash(
            {k: v for k, v in scenario.items() if k != "seed"})
        with open(path, newline="") as fh:
            for r in csv.DictReader(fh):
                r.update(point=names.setdefault(point, run), run=run,
                         seed=None if scenario is None else scenario["seed"])
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
