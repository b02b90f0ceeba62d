"""Pipeline orchestration and CLI: determinism, caching, config parsing,
exit codes, sweep and report plumbing (all at smoke scale)."""

import csv
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from subnetpred import pipeline, tailcal
from subnetpred.cli import EXIT_CONFIG, EXIT_OK, EXIT_STAGE, main
from subnetpred.config import (ConfigError, ExperimentSpec, desk_preset, parse_config_text,
                               spec_to_dict, tiny_preset)
from subnetpred.model.train import TRAIN_DTYPE, TrainingDivergedError
from subnetpred.pipeline import StageError, report, run_pipeline, run_plan, sweep
from subnetpred.scenario import fading_coefficient


def test_the_program_imports_no_scipy():
    # scipy is a test dependency only: a fresh interpreter that imports the
    # CLI and the pipeline loads none of it
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    code = ("import sys, subnetpred.cli, subnetpred.pipeline; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def smoke_spec(seed=0, variant="moving-average"):
    spec = tiny_preset(seed=seed)
    return replace(spec, variant=variant)


def test_run_pipeline_writes_artifacts(tmp_path):
    detail = run_pipeline(smoke_spec(variant="genie"), tmp_path)
    assert (tmp_path / "trace.npz").exists()
    assert (tmp_path / "dataset.bin").exists()
    assert (tmp_path / "results.csv").exists()
    assert (tmp_path / "run_manifest.json").exists()
    # the genie variant never trains or calibrates
    assert not (tmp_path / "model.bin").exists()
    assert not (tmp_path / "calibration.json").exists()
    assert detail["ra"][0]["frac_met"] == 1.0


def test_pipeline_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_pipeline(smoke_spec(seed=5), a)
    run_pipeline(smoke_spec(seed=5), b)
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
    assert (a / "trace.npz").read_bytes() == (b / "trace.npz").read_bytes()
    assert ((a / "run_manifest.json").read_bytes()
            == (b / "run_manifest.json").read_bytes())


def test_pipeline_caching_reuses_simulation(tmp_path):
    spec = smoke_spec(seed=6)
    run_pipeline(spec, tmp_path)
    stamp = (tmp_path / "trace.npz").stat().st_mtime_ns
    run_pipeline(replace(spec, variant="genie"), tmp_path)
    assert (tmp_path / "trace.npz").stat().st_mtime_ns == stamp
    rows = (tmp_path / "results.csv").read_text().splitlines()
    predictors = {line.split(",")[0] for line in rows[1:]}
    assert predictors == {"moving-average", "genie"}


def test_cached_trace_equals_fresh(tmp_path):
    spec = smoke_spec(seed=6)
    fresh = pipeline.stage_simulate(spec, tmp_path)
    cached = pipeline.stage_simulate(spec, tmp_path)
    assert cached is not fresh
    for name in ("true_power", "est_power", "signal_power"):
        assert np.array_equal(getattr(cached, name), getattr(fresh, name))
    assert cached.noise_power == fresh.noise_power
    assert cached.est_noise_std == fresh.est_noise_std
    assert cached.seed == fresh.seed
    assert cached.meta == fresh.meta


def test_manifest_keeps_every_variant(tmp_path):
    specs = [smoke_spec(seed=6, variant=v) for v in ("moving-average", "genie")]
    for spec in specs:
        run_pipeline(spec, tmp_path)
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert set(manifest["runs"]) == {"moving-average", "genie"}
    for spec in specs:
        run = manifest["runs"][spec.variant]
        assert run["config"] == spec_to_dict(spec)
        assert run["config"]["seed"] == 6
    assert "trace.npz" in manifest["artifacts"]


def test_training_writes_its_loss_curve(tmp_path):
    spec = smoke_spec(seed=0)
    run_plan(spec, tmp_path, ["iqpt", "iqpt-split"])
    curves = {}
    for stem in ("model", "model_split"):
        with open(tmp_path / f"{stem}_loss.csv", newline="") as fh:
            reader = csv.reader(fh)
            assert next(reader) == ["epoch", "pinball_loss"]
            rows = list(reader)
        assert [int(r[0]) for r in rows] == list(range(spec.train.epochs))
        curves[stem] = np.array([float(r[1]) for r in rows])
        assert np.isfinite(curves[stem]).all()
    # split clients sum their per-series losses in another order, so the
    # curves agree to rounding while the checkpoints are byte-equal
    np.testing.assert_allclose(curves["model_split"], curves["model"], rtol=1e-12, atol=0)


def test_trained_variant_shares_checkpoint(tmp_path):
    spec = replace(smoke_spec(seed=7), variant="iqpt")
    run_pipeline(spec, tmp_path)
    assert (tmp_path / "model.bin").exists()
    stamp = (tmp_path / "model.bin").stat().st_mtime_ns
    run_pipeline(spec, tmp_path)     # cached
    assert (tmp_path / "model.bin").stat().st_mtime_ns == stamp


def test_split_variant_trains_via_protocol_and_matches(tmp_path):
    spec = replace(smoke_spec(seed=8), variant="iqpt-split")
    # an annealed rate, so that both loops must share the LR schedule
    spec = replace(spec, train=replace(spec.train, lr_decay=0.1))
    detail_split = run_pipeline(spec, tmp_path)
    detail_central = run_pipeline(replace(spec, variant="iqpt"), tmp_path)
    assert detail_split["coverage_per_sa"] == detail_central["coverage_per_sa"]
    assert ((tmp_path / "model_split.bin").read_bytes()
            == (tmp_path / "model.bin").read_bytes())


def assert_runs(out, variants):
    """The manifest in `out` records the runs of `variants` alone, in
    order, results.csv lists their rows alone (none without a run), and
    the manifest holds the hash of every artifact as it is."""
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert list(manifest["runs"]) == variants
    if variants:
        with open(out / "results.csv", newline="") as fh:
            rows = [r["predictor"] for r in csv.DictReader(fh)]
        assert list(dict.fromkeys(rows)) == variants
    else:
        assert not (out / "results.csv").exists()
    assert manifest["artifacts"] == {name: pipeline._file_hash(out / name)
                                     for name in pipeline.ARTIFACTS
                                     if (out / name).exists()}


def test_stage_seconds_are_per_stage(tmp_path):
    t0 = time.perf_counter()
    run_pipeline(smoke_spec(seed=11), tmp_path)
    wall = time.perf_counter() - t0
    summary = json.loads((tmp_path / "summary.json").read_text())
    stages = summary["stage_seconds"]
    assert set(stages) == {"simulate", "prepare", "evaluate"}
    assert sum(stages.values()) <= wall


def test_plan_times_every_stage_it_runs(tmp_path):
    t0 = time.perf_counter()
    run_plan(smoke_spec(seed=11), tmp_path, ["iqpt", "iqpt-split"])
    wall = time.perf_counter() - t0
    stages = json.loads((tmp_path / "summary.json").read_text())["stage_seconds"]
    assert set(stages) == {"simulate", "prepare", "train", "train_split", "evaluate"}
    assert sum(stages.values()) <= wall


def test_stage_cache_records_hits_of_a_fresh_summary(tmp_path):
    run_pipeline(smoke_spec(seed=11), tmp_path)
    (tmp_path / "summary.json").unlink()
    run_pipeline(smoke_spec(seed=11), tmp_path)
    cache = json.loads((tmp_path / "summary.json").read_text())["stage_cache"]
    assert cache == {"simulate": "hit", "prepare": "hit", "evaluate": "miss"}


def test_cli_variant_set_equals_one_run_pipeline_per_variant(tmp_path):
    variants = ["genie", "moving-average"]
    for variant in variants:
        run_pipeline(smoke_spec(seed=0, variant=variant), tmp_path / "api")
    assert main(["evaluate", "--preset", "tiny", "--seed", "0", "--variant", variants[0],
                 "--variant", variants[1], "--out", str(tmp_path / "cli")]) == EXIT_OK
    for name in ("results.csv", "run_manifest.json"):
        assert ((tmp_path / "api" / name).read_bytes()
                == (tmp_path / "cli" / name).read_bytes()), name


def calibrating_spec(variant):
    """A tiny spec whose model leaves >= 30 training exceedances per series."""
    spec = replace(smoke_spec(seed=0, variant=variant), n_cycles=2000)
    return replace(spec, train=replace(spec.train, lr_decay=0.1))


# the CLI form of calibrating_spec
CALIBRATING_CFG = "n_cycles = 2000\ntrain.lr_decay = 0.1\n"


def test_stage_times_merge_over_calls_and_keep_the_misses(tmp_path):
    """The fixed check's shape, one run_pipeline call per variant: the
    summary names every stage any call ran, and a stage that a later call
    found in the cache keeps the time of the call that built it."""
    variants = ["cevt-iqpt"] + [v for v in ExperimentSpec.VARIANTS if v != "cevt-iqpt"]
    t0 = time.perf_counter()
    for variant in variants:
        run_pipeline(calibrating_spec(variant), tmp_path)
        if variant == variants[0]:
            first = json.loads((tmp_path / "summary.json").read_text())
    wall = time.perf_counter() - t0
    summary = json.loads((tmp_path / "summary.json").read_text())
    stages, cache = summary["stage_seconds"], summary["stage_cache"]
    assert set(stages) == set(cache) == {"simulate", "prepare", "train", "train_split",
                                         "calibrate", "evaluate"}
    assert set(cache.values()) == {"miss"}
    assert sum(stages.values()) <= wall
    for name in ("simulate", "prepare", "train"):
        assert stages[name] == first["stage_seconds"][name]

    # a second pass over all variants finds every stage cached but calibrate
    # and evaluate, which run on every call
    run_plan(calibrating_spec(variants[0]), tmp_path, variants)
    again = json.loads((tmp_path / "summary.json").read_text())
    assert again["stage_cache"] == cache
    rerun = ("calibrate", "evaluate")
    assert {k: v for k, v in again["stage_seconds"].items() if k not in rerun} \
        == {k: v for k, v in stages.items() if k not in rerun}


def test_stage_commands_record_their_stage_times(tmp_path):
    # the times of the stages an evaluate builds survive the evaluate after
    # it, which finds them cached
    args = ["evaluate", "--preset", "tiny", "--seed", "0", "--variant", "iqpt",
            "--out", str(tmp_path)]
    assert main(args) == EXIT_OK
    trained = json.loads((tmp_path / "summary.json").read_text())
    assert trained["stage_cache"] == {"simulate": "miss", "prepare": "miss",
                                      "train": "miss", "evaluate": "miss"}
    assert main(args + ["--variant", "genie"]) == EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["stage_cache"] == trained["stage_cache"]
    for name in ("simulate", "prepare", "train"):
        assert summary["stage_seconds"][name] == trained["stage_seconds"][name]


def test_failed_call_records_the_stages_it_completed(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("tail fit failed")

    monkeypatch.setattr(tailcal, "gpd_fit", fail)
    with pytest.raises(StageError):
        run_pipeline(calibrating_spec("evt-iqpt"), tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["stage_cache"] == {"simulate": "miss", "prepare": "miss",
                                      "train": "miss"}
    assert set(summary["stage_seconds"]) == set(summary["stage_cache"])


@pytest.mark.parametrize("between", [[], ["iqpt"]])
def test_runs_scored_on_another_dataset_leave_the_directory(tmp_path, monkeypatch,
                                                            between):
    """A directory keeps only the results scored on the dataset it holds:
    evaluate on another scenario drops the runs of the old one, whether it
    or an earlier call rebuilt the dataset (here one whose training fails)."""
    def cli(seed, variants, out, code=EXIT_OK):
        argv = ["evaluate", "--preset", "tiny", "--seed", str(seed), "--out", str(out)]
        for variant in variants:
            argv += ["--variant", variant]
        assert main(argv) == code

    def fail(*args, **kwargs):
        raise RuntimeError("injected")

    cli(0, ["genie", "moving-average"], tmp_path / "run")
    if between:
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "train", fail)
            cli(1, between, tmp_path / "run", EXIT_STAGE)
    cli(1, ["genie"], tmp_path / "run")
    cli(1, ["genie"], tmp_path / "fresh")
    for name in ("results.csv", "run_manifest.json"):
        assert ((tmp_path / "run" / name).read_bytes()
                == (tmp_path / "fresh" / name).read_bytes()), name
    runs = json.loads((tmp_path / "run" / "run_manifest.json").read_text())["runs"]
    assert set(runs) == {"genie"}
    assert runs["genie"]["config"]["seed"] == 1


@pytest.mark.parametrize("seed, variant, config", [
    ("1", "moving-average", ""),
    ("0", "moving-average", "n_cal = 80\n"),
    ("0", "iqpt", "train.epochs = 3\n"),
], ids=["simulate", "prepare", "retrain"])
def test_stage_command_that_replaces_a_scored_file_drops_the_runs(tmp_path, seed,
                                                                  variant, config):
    """Runs stay recorded while the files they were scored on stay: an
    evaluate that rebuilds them in place, on the same scenario, keeps
    every record; one that replaces the trace, the dataset or the model
    leaves only its own run behind, and no stale hash."""
    (tmp_path / "run.cfg").write_text(config)
    base = ["--preset", "tiny", "--out", str(tmp_path / "run")]
    assert main(["evaluate", "--seed", "0", "--variant", "genie", "--variant", "iqpt"]
                + base) == EXIT_OK
    scored = {name: (tmp_path / "run" / name).read_bytes()
              for name in ("results.csv", "run_manifest.json")}
    assert main(["evaluate", "--seed", "0", "--variant", "iqpt"] + base) == EXIT_OK
    for name, blob in scored.items():
        assert (tmp_path / "run" / name).read_bytes() == blob, name

    assert main(["evaluate", "--seed", seed, "--variant", variant,
                 "--config", str(tmp_path / "run.cfg")] + base) == EXIT_OK
    assert_runs(tmp_path / "run", [variant])
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert not {"runs", "seed", "window"} & set(summary)


def test_stage_command_on_another_scenario_drops_the_old_stage_times(tmp_path):
    """A call that drops the runs keeps only the stage times it measured:
    the old scenario's train time goes with its runs."""
    base = ["--preset", "tiny", "--out", str(tmp_path)]
    assert main(["evaluate", "--seed", "0", "--variant", "genie", "--variant", "iqpt"]
                + base) == EXIT_OK
    assert main(["evaluate", "--seed", "1", "--variant", "genie"] + base) == EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert not {"runs", "seed", "window"} & set(summary)
    assert summary["stage_cache"] == {"simulate": "miss", "prepare": "miss",
                                      "evaluate": "miss"}
    assert set(summary["stage_seconds"]) == {"simulate", "prepare", "evaluate"}


def test_stage_command_on_another_scenario_drops_unrecorded_stage_times(tmp_path,
                                                                        monkeypatch):
    """With no run ever recorded the manifest still hashes the files: a
    call that rebuilds the trace and the dataset drops the old scenario's
    stage times all the same (here those of a call that failed after
    training)."""
    def fail(*args, **kwargs):
        raise RuntimeError("tail fit failed")

    monkeypatch.setattr(tailcal, "gpd_fit", fail)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CALIBRATING_CFG)
    base = ["evaluate", "--preset", "tiny", "--config", str(cfg),
            "--out", str(tmp_path / "run")]
    assert main(base + ["--seed", "0", "--variant", "evt-iqpt"]) == EXIT_STAGE
    assert_runs(tmp_path / "run", [])
    monkeypatch.undo()
    assert main(base + ["--seed", "1", "--variant", "genie"]) == EXIT_OK
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["stage_cache"] == {"simulate": "miss", "prepare": "miss",
                                      "evaluate": "miss"}
    assert set(summary["stage_seconds"]) == {"simulate", "prepare", "evaluate"}


def test_a_manifest_whose_runs_hold_no_scores_counts_as_changed_once(tmp_path):
    """An older layout kept the scores in summary.json and only the configs
    in run_manifest.json: the manifest cannot rewrite results.csv, so the
    next call drops its runs, and the call after that keeps the new ones."""
    run_pipeline(smoke_spec(seed=0, variant="genie"), tmp_path)
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    summary = json.loads((tmp_path / "summary.json").read_text())
    config = manifest["runs"]["genie"]["config"]
    manifest["runs"] = {"genie": {"config": config, "config_hash": pipeline._hash(config)}}
    (tmp_path / "run_manifest.json").write_text(json.dumps({**manifest, "seed": 0}))
    summary["stage_seconds"]["train"], summary["stage_cache"]["train"] = 1.0, "miss"
    (tmp_path / "summary.json").write_text(json.dumps(
        {**summary, "runs": {"genie": {"variant": "genie"}}, "seed": 0, "window": 1}))

    run_pipeline(smoke_spec(seed=0, variant="moving-average"), tmp_path)
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert list(manifest["runs"]) == ["moving-average"]
    with open(tmp_path / "results.csv", newline="") as fh:
        assert {r["predictor"] for r in csv.DictReader(fh)} == {"moving-average"}
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert list(summary) == ["stage_seconds", "stage_cache"]
    assert set(summary["stage_seconds"]) == {"simulate", "prepare", "evaluate"}

    run_pipeline(smoke_spec(seed=0, variant="genie"), tmp_path)
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert list(manifest["runs"]) == ["moving-average", "genie"]


def test_a_call_hashes_each_artifact_once(tmp_path, monkeypatch):
    # a scoring call hashes results.csv again once it has rewritten it
    run_plan(smoke_spec(seed=0), tmp_path, ["genie", "iqpt"])
    reads = []
    file_hash = pipeline._file_hash

    def counted(path):
        reads.append(Path(path).name)
        return file_hash(path)

    monkeypatch.setattr(pipeline, "_file_hash", counted)
    run_pipeline(smoke_spec(seed=0), tmp_path)
    artifacts = {p.name for p in tmp_path.iterdir()} & set(pipeline.ARTIFACTS)
    assert set(reads) == artifacts
    assert reads.count("results.csv") == 2
    assert all(reads.count(name) == 1 for name in artifacts - {"results.csv"})


def test_calibration_failure_names_calibrate_stage(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("tail fit failed")

    monkeypatch.setattr(tailcal, "gpd_fit", fail)
    with pytest.raises(StageError) as info:
        run_pipeline(calibrating_spec("cevt-iqpt"), tmp_path / "api")
    assert info.value.stage == "calibrate"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CALIBRATING_CFG)
    assert main(["evaluate", "--config", str(cfg), "--preset", "tiny", "--seed", "0",
                 "--variant", "cevt-iqpt", "--out", str(tmp_path / "cli")]) \
        == EXIT_STAGE


@pytest.mark.parametrize("variant", pipeline.TAIL_VARIANTS)
def test_too_few_training_exceedances_fail_before_training(tmp_path, monkeypatch,
                                                           capsys, variant):
    # tiny at its 700 cycles: alpha * n_train = 0.05 * 399 = 19.95 < 30
    def fail(*args, **kwargs):
        raise AssertionError("trained an infeasible spec")

    monkeypatch.setattr(pipeline, "train", fail)
    monkeypatch.setattr(pipeline, "split_train", fail)
    with pytest.raises(ConfigError, match=r"needs 30 .* = 0\.05 \* 399 = 19\.95"):
        run_pipeline(smoke_spec(seed=12, variant=variant), tmp_path / "api")
    assert (tmp_path / "api" / "dataset.bin").exists()
    assert main(["evaluate", "--preset", "tiny", "--seed", "12", "--variant",
                 variant, "--out", str(tmp_path / "cli")]) == EXIT_CONFIG
    assert "19.95" in capsys.readouterr().err
    assert not (tmp_path / "cli" / "model.bin").exists()
    # the variants without a tail fit still run on tiny
    monkeypatch.undo()
    run_pipeline(smoke_spec(seed=12, variant="iqpt"), tmp_path / "api")


def test_plan_checks_every_tail_fit_before_any_training(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("trained before checking every tail fit")

    monkeypatch.setattr(pipeline, "train", fail)
    with pytest.raises(ConfigError, match="the cevt-iqpt tail fit needs 30"):
        run_plan(smoke_spec(seed=12), tmp_path, ["genie", "iqpt", "cevt-iqpt"])
    assert not (tmp_path / "results.csv").exists()


def test_calibration_is_refit_on_every_call_into_an_identical_record(tmp_path,
                                                                     monkeypatch):
    fits = []
    fit = tailcal.gpd_fit

    def counted(*args, **kwargs):
        fits.append(1)
        return fit(*args, **kwargs)

    monkeypatch.setattr(tailcal, "gpd_fit", counted)
    first = run_pipeline(calibrating_spec("cevt-iqpt"), tmp_path)
    n_series = len(first["coverage_per_sa"])
    assert len(fits) == n_series
    report = (tmp_path / "calibration.json").read_bytes()

    fits.clear()
    run_pipeline(calibrating_spec("evt-iqpt"), tmp_path)
    again = run_pipeline(calibrating_spec("cevt-iqpt"), tmp_path)
    assert len(fits) == 2 * n_series  # fitted by each call: nothing is read back
    assert again == first
    assert (tmp_path / "calibration.json").read_bytes() == report

    fits.clear()
    # the split model equals the centralized one, and so does its record,
    # written into the one calibration.json
    run_pipeline(calibrating_spec("cevt-iqpt-split"), tmp_path)
    assert len(fits) == n_series
    assert (tmp_path / "calibration.json").read_bytes() == report
    assert not (tmp_path / "calibration_split.json").exists()
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert "calibration.json" in manifest["artifacts"]


def _count_predicts(monkeypatch):
    calls = []
    predict = pipeline.network.predict

    def counted(params, cfg, x):
        calls.append(x.shape[0])
        return predict(params, cfg, x)

    monkeypatch.setattr(pipeline.network, "predict", counted)
    return calls


def test_one_threshold_pass_per_model_serves_calibrate_and_evaluate(
        tmp_path, monkeypatch):
    calls = _count_predicts(monkeypatch)
    run_pipeline(calibrating_spec("iqpt"), tmp_path)
    ds = pipeline.windowing.load_dataset(tmp_path / "dataset")
    assert calls == [ds.inputs.shape[0]]

    calls.clear()
    (tmp_path / "summary.json").unlink()
    run_pipeline(calibrating_spec("evt-iqpt"), tmp_path)
    assert calls == []
    cache = json.loads((tmp_path / "summary.json").read_text())["stage_cache"]
    assert cache == {"simulate": "hit", "prepare": "hit", "train": "hit",
                     "calibrate": "miss", "evaluate": "miss"}


def test_retrained_model_recomputes_its_thresholds(tmp_path, monkeypatch):
    spec = calibrating_spec("iqpt")
    run_pipeline(spec, tmp_path)
    old = np.load(tmp_path / "thresholds.npy")

    calls = _count_predicts(monkeypatch)
    longer = replace(spec, train=replace(spec.train, epochs=spec.train.epochs + 1))
    run_pipeline(replace(longer, variant="evt-iqpt"), tmp_path)
    ds = pipeline.windowing.load_dataset(tmp_path / "dataset")
    assert calls == [ds.inputs.shape[0]]
    monkeypatch.undo()
    params, cfg, _ = pipeline.network.load_checkpoint(tmp_path / "model")
    new = np.load(tmp_path / "thresholds.npy")
    assert np.array_equal(new, pipeline.network.predict(params, cfg, ds.inputs))
    assert not np.array_equal(new, old)


def _run_in_turn(out, variants):
    """Runs of the variants, one after another, into one directory; returns
    its dataset."""
    spec = smoke_spec(seed=8)
    spec = replace(spec, train=replace(spec.train, lr_decay=0.1))
    for variant in variants:
        run_pipeline(replace(spec, variant=variant), out)
    return pipeline.windowing.load_dataset(out / "dataset")


def test_equal_checkpoints_share_one_threshold_pass(tmp_path, monkeypatch):
    # split = centralized, so whichever model runs second reads the first
    # one's thresholds
    calls = _count_predicts(monkeypatch)
    for variants in (("iqpt", "iqpt-split"), ("iqpt-split", "iqpt")):
        out = tmp_path / variants[0]
        calls.clear()
        ds = _run_in_turn(out, variants)
        assert calls == [ds.inputs.shape[0]], variants
        assert ((out / "model_split.bin").read_bytes()
                == (out / "model.bin").read_bytes())
        assert (out / "thresholds.npy").exists()
        assert not (out / "thresholds_split.npy").exists()


def test_split_checkpoint_that_differs_gets_its_own_threshold_pass(tmp_path,
                                                                  monkeypatch):
    split_train = pipeline.split_train

    def nudged(*args, **kwargs):
        params, curve = split_train(*args, **kwargs)
        params["head.b"][0] += 1e-3
        return params, curve

    monkeypatch.setattr(pipeline, "split_train", nudged)
    calls = _count_predicts(monkeypatch)
    ds = _run_in_turn(tmp_path, ("iqpt", "iqpt-split"))
    assert calls == [ds.inputs.shape[0]] * 2
    split = np.load(tmp_path / "thresholds.npy")
    assert not (tmp_path / "thresholds_split.npy").exists()

    # the one file now holds the split model's thresholds, so the central
    # model predicts its own again rather than reading them
    calls.clear()
    ds = _run_in_turn(tmp_path, ("iqpt",))
    assert calls == [ds.inputs.shape[0]]
    central = np.load(tmp_path / "thresholds.npy")
    monkeypatch.undo()
    for stem, thresholds in (("model_split", split), ("model", central)):
        params, cfg, _ = pipeline.network.load_checkpoint(tmp_path / stem)
        assert np.array_equal(thresholds,
                              pipeline.network.predict(params, cfg, ds.inputs)), stem
    assert not np.array_equal(split, central)


def test_trained_parameters_are_the_float64_checkpoint(tmp_path):
    # training runs in TRAIN_DTYPE; stage_train returns the parameters cast
    # back to float64, equal to the checkpoint it saved, so a cold run and a
    # run that loads the checkpoint predict the same thresholds
    spec = replace(smoke_spec(seed=9), variant="iqpt")
    direct = tmp_path / "direct"
    direct.mkdir()
    trace = pipeline.stage_simulate(spec, direct)
    ds = pipeline.stage_prepare(spec, direct, trace)
    params, cfg = pipeline.stage_train(spec, direct, ds)
    saved, _, _ = pipeline.network.load_checkpoint(direct / "model")
    assert params.keys() == saved.keys()
    for key, tensor in params.items():
        assert tensor.dtype == np.float64, key
        assert np.array_equal(tensor, saved[key]), key
        assert np.array_equal(tensor, tensor.astype(TRAIN_DTYPE)), key
    # the thresholds' key digests the parameters as the checkpoint blob holds them
    assert (pipeline._params_digest(params, cfg)
            == pipeline._file_hash(direct / "model.bin"))

    run_pipeline(spec, tmp_path)
    cold = (tmp_path / "thresholds.npy").read_bytes()
    (tmp_path / "thresholds.npy").unlink()
    run_pipeline(spec, tmp_path)
    assert (tmp_path / "thresholds.npy").read_bytes() == cold


def test_stage_version_bump_rebuilds_that_stage_and_every_later_one(
        tmp_path, monkeypatch):
    ran = []

    def counted(stage, owner, name):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            ran.append(stage)
            return inner(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted("simulate", pipeline.simulate, "simulate_trace")
    counted("prepare", pipeline.windowing, "restructure")
    counted("train", pipeline, "train")
    stages = list(pipeline.STAGE_VERSIONS)
    assert stages == ["simulate", "prepare", "train"]
    spec = calibrating_spec("cevt-iqpt")
    run_pipeline(spec, tmp_path)
    assert ran == stages
    ran.clear()
    run_pipeline(spec, tmp_path)
    assert ran == []
    results = (tmp_path / "results.csv").read_bytes()
    for i in reversed(range(len(stages))):
        monkeypatch.setitem(pipeline.STAGE_VERSIONS, stages[i],
                            pipeline.STAGE_VERSIONS[stages[i]] + 1)
        run_pipeline(spec, tmp_path)
        assert ran == stages[i:], stages[i]
        assert (tmp_path / "results.csv").read_bytes() == results
        ran.clear()


def test_split_training_failure_names_train_split_stage(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("client lost")

    monkeypatch.setattr(pipeline, "split_train", fail)
    with pytest.raises(StageError) as info:
        run_pipeline(smoke_spec(seed=13, variant="iqpt-split"), tmp_path)
    assert info.value.stage == "train_split"


@pytest.mark.parametrize("variant, module, stage, stem", [
    ("iqpt", "subnetpred.model.train", "train", "model"),
    ("iqpt-split", "subnetpred.split.runtime", "train_split", "model_split"),
])
def test_diverged_training_names_its_stage_and_caches_nothing(
        tmp_path, monkeypatch, variant, module, stage, stem):
    # a NaN batch loss, in the module each mode computes it through
    monkeypatch.setattr(f"{module}.pinball_loss", lambda *a, **k: float("nan"))
    with pytest.raises(StageError) as info:
        run_pipeline(smoke_spec(seed=13, variant=variant), tmp_path)
    assert info.value.stage == stage
    assert isinstance(info.value.__cause__, TrainingDivergedError)
    assert not list(tmp_path.glob(stem + "*"))
    assert not (tmp_path / f".{stage}.key").exists()


# ------------------------------------------------------------------- config

def test_parse_config_overrides():
    text = """
    # comment
    deployment.n_subnetworks = 8
    traffic.variant = push-pull
    traffic.intensity = 5
    traffic.n_reserved = 2
    model.d_embed = 32
    n_cycles = 1234
    variant = wiener
    eps_targets = 1e-4 1e-5
    """
    spec = parse_config_text(text, preset="tiny")
    assert spec.deployment.n_subnetworks == 8
    assert spec.traffic.variant == "push-pull"
    assert spec.traffic.intensity == 5.0
    assert spec.model.d_embed == 32
    assert spec.n_cycles == 1234
    assert spec.variant == "wiener"
    assert spec.eps_targets == (1e-4, 1e-5)


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        parse_config_text("deployment.bogus = 3")
    with pytest.raises(ConfigError):
        parse_config_text("nonsense = 3")
    with pytest.raises(ConfigError):
        parse_config_text("deployment.n_subnetworks") # no '='


@pytest.mark.parametrize("line, hint", [
    ("model.window = 8", "window rule"),
    ("model.n_series = 4", "deployment.sa_pairs_per_sn"),
])
def test_parse_config_rejects_pipeline_wired_keys(tmp_path, line, hint):
    # valid values the pipeline would overwrite without a word
    with pytest.raises(ConfigError, match=hint):
        parse_config_text(line, preset="tiny")
    cfg = tmp_path / "wired.cfg"
    cfg.write_text(line + "\n")
    assert main(["evaluate", "--config", str(cfg), "--preset", "tiny",
                 "--out", str(tmp_path / "run")]) == EXIT_CONFIG


def test_desk_preset_is_the_field_defaults():
    # one value per setting: the defaults are the values the desk runs
    assert desk_preset(3) == ExperimentSpec(seed=3)


def test_run_records_the_model_alpha_it_trained_at_and_no_data_shape(tmp_path):
    cfg = tmp_path / "alpha.cfg"
    cfg.write_text("deployment.sa_pairs_per_sn = 2\nmodel.alpha = 0.1\n")
    out = tmp_path / "run"
    assert main(["evaluate", "--config", str(cfg), "--preset", "tiny", "--seed", "0",
                 "--variant", "iqpt", "--out", str(out)]) == EXIT_OK
    recorded = json.loads((out / "run_manifest.json").read_text())
    model = recorded["runs"]["iqpt"]["config"]["model"]
    hyper = json.loads((out / "model.json").read_text())["hyper"]
    # the pipeline fills the shape from the data; the record states no other
    assert model["n_series"] is None and model["window"] is None
    assert hyper["n_series"] == 2
    assert hyper["window"] == json.loads((out / "dataset.json").read_text())["window"]
    assert model["alpha"] == hyper["alpha"] == 0.1


def test_seed_flag_rewires_all_seeds():
    spec = parse_config_text("", preset="tiny", seed=99)
    assert spec.seed == 99
    # the flag wins over the file's value
    assert parse_config_text("seed = 3", preset="tiny", seed=99).seed == 99
    assert parse_config_text("seed = 3", preset="tiny").seed == 3


@pytest.mark.parametrize("line", ["train.seed = 1", "deployment.rng_seed = 1",
                                  "channel.fading = false", "channel.shadowing = false",
                                  "deployment.n_slots = 6",
                                  "model.center_windows = false", "alpha = 0.1"])
def test_removed_seed_keys_are_config_errors(tmp_path, line):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text(line, preset="tiny")
    cfg = tmp_path / "old.cfg"
    cfg.write_text(line + "\n")
    assert main(["evaluate", "--config", str(cfg), "--preset", "tiny",
                 "--out", str(tmp_path / "run")]) == EXIT_CONFIG


def test_config_file_seed_seeds_simulation_and_training(tmp_path):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = 3\n")
    runs = {"file": ["--config", str(cfg)], "flag": ["--seed", "3"]}
    for name, args in runs.items():
        assert main(["evaluate", "--preset", "tiny", "--variant", "iqpt", *args,
                     "--out", str(tmp_path / name)]) == EXIT_OK
    for artifact in ("trace.npz", "model.bin"):
        assert ((tmp_path / "file" / artifact).read_bytes()
                == (tmp_path / "flag" / artifact).read_bytes()), artifact
    assert main(["evaluate", "--preset", "tiny", "--variant", "iqpt", "--seed", "0",
                 "--out", str(tmp_path / "zero")]) == EXIT_OK
    assert ((tmp_path / "zero" / "model.bin").read_bytes()
            != (tmp_path / "flag" / "model.bin").read_bytes())


def test_spec_validation_errors():
    with pytest.raises(ConfigError):
        replace(desk_preset(0), variant="nope")
    with pytest.raises(ConfigError):
        replace(desk_preset(0), beta=0.0)
    with pytest.raises(ConfigError):
        parse_config_text("model.d_embed = 60")    # not divisible by heads


@pytest.mark.parametrize("beta", ["1", "0.001"])
def test_beta_the_calibration_block_cannot_support_exits_2(tmp_path, capsys, beta):
    # n_cal = 100 supports 1/101 <= beta < 1; below that the conformal
    # quantile would saturate at the largest score
    cfg = tmp_path / "beta.cfg"
    cfg.write_text(CALIBRATING_CFG + f"beta = {beta}\n")
    out = tmp_path / "run"
    assert main(["evaluate", "--config", str(cfg), "--preset", "tiny",
                 "--variant", "cevt-iqpt", "--out", str(out)]) == EXIT_CONFIG
    assert "n_cal = 100" in capsys.readouterr().err
    assert not (out / "model.bin").exists()


# ---------------------------------------------------------------------- CLI

def write_cfg(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n_cycles = 600\nn_cal = 80\nn_test = 150\n"
                   "variant = moving-average\n")
    return cfg


def test_cli_simulate_and_evaluate(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["evaluate", "--config", str(cfg), "--preset", "tiny",
                 "--out", str(out)]) == EXIT_OK
    assert (out / "results.csv").exists()
    runs = json.loads((out / "run_manifest.json").read_text())["runs"]
    assert runs["moving-average"]["config"]["n_cycles"] == 600


def test_a_refused_call_leaves_the_run_records_as_they_were(tmp_path, capsys):
    # the tail-fit check refuses evt-iqpt at alpha 0.01 only after simulate
    # and prepare, and the call still writes no record of its spec
    out = tmp_path / "run"
    base = ["evaluate", "--preset", "tiny", "--seed", "0", "--out", str(out)]
    assert main(base + ["--variant", "genie"]) == EXIT_OK
    records = {name: (out / name).read_bytes()
               for name in ("run_manifest.json", "results.csv")}
    cfg = tmp_path / "alpha.cfg"
    cfg.write_text("model.alpha = 0.01\n")
    assert main(base + ["--variant", "evt-iqpt", "--config", str(cfg)]) == EXIT_CONFIG
    assert "0.01 * 399 = 3.99" in capsys.readouterr().err
    for name, blob in records.items():
        assert (out / name).read_bytes() == blob, name
    assert not (out / "resolved_config.json").exists()
    # evaluate is the one pipeline command: the stage commands are unknown
    for command in ("simulate", "prepare", "train", "calibrate"):
        with pytest.raises(SystemExit) as info:
            main([command, "--preset", "tiny", "--out", str(out)])
        assert info.value.code == EXIT_CONFIG


@pytest.mark.parametrize("fails, variant, target, stage", [
    ("calibrate", "cevt-iqpt", (tailcal, "gpd_fit"), "calibrate"),
    ("calibrate", "cevt-iqpt-split", (tailcal, "gpd_fit"), "calibrate"),
    ("train", "iqpt", (pipeline, "train"), "train"),
    ("train", "iqpt-split", (pipeline, "split_train"), "train_split"),
])
def test_cli_stage_failure_names_stage_and_exits_3(tmp_path, monkeypatch, capsys,
                                                   fails, variant, target, stage):
    # `fails` is the step whose function fails: a model is saved before
    # calibrate fails, and none when training fails
    def fail(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(*target, fail)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CALIBRATING_CFG)
    out = tmp_path / "run"
    assert main(["evaluate", "--config", str(cfg), "--preset", "tiny", "--seed", "0",
                 "--variant", variant, "--out", str(out)]) == EXIT_STAGE
    assert f"stage {stage!r} failed: injected" in capsys.readouterr().err
    assert bool(list(out.glob("model*.bin"))) == (fails == "calibrate")


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("deployment.n_subnetworks = -3\n")
    code = main(["evaluate", "--config", str(bad), "--preset", "tiny",
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("config, named", [
    ("n_cycles = abc\n", "n_cycles = 'abc'"),
    ("deployment.area = 5\n", "area takes exactly two sides"),
    ("deployment.area = 5 5 5\n", "area takes exactly two sides"),
    ("eps_targets =\n", "eps_targets must not be empty"),
    (None, "cannot read config file"),           # missing file
    ("", "cannot read config file"),             # a directory
    (b"\xff\xfe\n", "cannot read config file"),  # not UTF-8
], ids=["int", "area-1", "area-3", "eps-empty", "missing", "directory",
        "binary"])
def test_unreadable_config_values_exit_2(tmp_path, capsys, config, named):
    path = tmp_path / "run.cfg"
    if config == "":
        path.mkdir()
    elif isinstance(config, bytes):
        path.write_bytes(config)
    elif config is not None:
        path.write_text(config)
    assert main(["evaluate", "--config", str(path), "--preset", "tiny",
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err
    assert not (tmp_path / "x" / "trace.npz").exists()


@pytest.mark.parametrize("n_reserved", [4, 9])
def test_push_pull_without_push_pairs_is_a_config_error(tmp_path, n_reserved):
    # tiny has 4 SA pairs: 4 reserved pull slots leave no push pair, and
    # more than 4 cannot be laid out at all
    text = f"traffic.variant = push-pull\ntraffic.n_reserved = {n_reserved}\n"
    with pytest.raises(ConfigError, match="traffic.n_reserved.*deployment.sa_pairs_per_sn"):
        parse_config_text(text, preset="tiny")
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert main(["evaluate", "--config", str(bad), "--preset", "tiny",
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert not (tmp_path / "x" / "trace.npz").exists()


def test_non_positive_tx_cycle_is_a_config_error():
    # alley traces never call step_mobility, which rejects dt <= 0 itself
    for dt in (0, -1e-3):
        with pytest.raises(ConfigError, match="tx_cycle_duration"):
            parse_config_text(f"deployment.tx_cycle_duration = {dt}\nmobility = alley\n",
                              preset="tiny")


@pytest.mark.parametrize("text", [
    "channel.doppler_hz = 800\n",               # J0(5.03) = -0.18 at 1 ms
    "channel.doppler_hz = 383\n",               # 2 pi f dt = 2.4065, past the zero
    "channel.doppler_hz = -1\n",
    "channel.doppler_hz = 80\ndeployment.tx_cycle_duration = 0.01\n",
])
def test_fading_past_the_first_zero_of_j0_is_a_config_error(text):
    with pytest.raises(ConfigError, match="doppler_hz.*tx_cycle_duration.*J0"):
        parse_config_text(text, preset="tiny")


def test_fading_below_the_first_zero_of_j0_is_accepted():
    # 2 pi 382 Hz 1 ms = 2.4002
    for text in ("channel.doppler_hz = 0\n", "channel.doppler_hz = 382\n"):
        spec = parse_config_text(text, preset="tiny")
        assert fading_coefficient(spec.channel.doppler_hz,
                                  spec.deployment.tx_cycle_duration) > 0.0


def test_push_pull_with_one_push_pair_simulates(tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("traffic.variant = push-pull\ntraffic.n_reserved = 3\n"
                   "traffic.intensity = 5\nvariant = genie\n")
    out = tmp_path / "run"
    assert main(["evaluate", "--config", str(cfg), "--preset", "tiny",
                 "--out", str(out)]) == EXIT_OK
    assert (out / "trace.npz").exists()


@pytest.mark.parametrize("line", [
    "train.lr_decay = -1", "train.epochs = -1", "train.batch_size = 0",
    "train.lr = 0", "n_test = 0", "max_lag = 0", "n_cycles = 0", "model.alpha = 1"])
def test_training_and_scoring_values_that_cannot_run_exit_2(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "run"
    assert main(["evaluate", "--config", str(cfg), "--preset", "tiny", "--seed", "0",
                 "--variant", "iqpt", "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")
    assert not (out / "trace.npz").exists()


def test_push_pull_sweep_point_that_never_transmits_exits_2(tmp_path, capsys):
    # at the presets' intensity = 0 and n_reserved = 0 no push burst starts
    # and no pull pair exists: the point's trace would hold no interference
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("variant = genie\n")
    args = ["sweep", "--preset", "tiny", "--seed", "0", "--axis", "traffic",
            "--values", "bernoulli,push-pull", "--config", str(cfg)]
    assert main([*args, "--out", str(tmp_path / "quiet")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "sweep axis 'traffic' cannot take 'push-pull'" in err and "never transmits" in err
    assert not list(tmp_path.glob("quiet/**/trace.npz"))

    cfg.write_text("variant = genie\ntraffic.intensity = 5\ntraffic.n_reserved = 2\n")
    assert main([*args, "--out", str(tmp_path / "busy")]) == EXIT_OK
    assert "| traffic_push-pull | genie |" in (tmp_path / "busy" / "report.md").read_text()


def test_bernoulli_run_ignores_the_push_pull_values_it_does_not_read(tmp_path):
    # bernoulli traffic reads eta alone: a sweep config's push-pull values
    # change neither the trace, nor the simulate key, nor the point
    plain, sweep_dir = tmp_path / "plain", tmp_path / "sweep"
    assert main(["evaluate", "--preset", "tiny", "--seed", "0", "--variant", "genie",
                 "--out", str(plain)]) == EXIT_OK
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("variant = genie\ntraffic.intensity = 5\ntraffic.n_reserved = 2\n")
    assert main(["sweep", "--preset", "tiny", "--seed", "0", "--axis", "traffic",
                 "--values", "bernoulli", "--config", str(cfg),
                 "--out", str(sweep_dir)]) == EXIT_OK
    point = sweep_dir / "traffic_bernoulli"
    for name in ("trace.npz", ".simulate.key"):
        assert (plain / name).read_bytes() == (point / name).read_bytes(), name
    configs = [json.loads((d / "run_manifest.json").read_text())["runs"]["genie"]["config"]
               for d in (plain, point)]
    assert configs[0] == configs[1]
    merged, _ = report(tmp_path)
    assert {(row["point"], row["n_runs"]) for row in merged} == {("plain", 2)}


def test_sweep_refuses_a_directory_that_holds_other_points(tmp_path, capsys):
    # report tabulates every results.csv under the sweep's --out
    cfg = tmp_path / "ma.cfg"
    cfg.write_text("variant = moving-average\n")
    out = tmp_path / "sweep"
    args = ["sweep", "--preset", "tiny", "--seed", "0", "--axis", "m",
            "--config", str(cfg), "--out", str(out), "--values"]
    assert main([*args, "2"]) == EXIT_OK
    stamp = (out / "m_2" / "trace.npz").stat().st_mtime_ns
    assert main([*args, "4"]) == EXIT_CONFIG
    assert "m_2" in capsys.readouterr().err
    assert not (out / "m_4").exists()
    assert main([*args, "2,4"]) == EXIT_OK
    table = (out / "report.md").read_text()
    assert "| m_2 | moving-average |" in table and "| m_4 | moving-average |" in table
    # the point that ran before is reused from its cache
    assert (out / "m_2" / "trace.npz").stat().st_mtime_ns == stamp


def test_refused_sweep_leaves_the_recorded_configs_as_they_were(tmp_path):
    # each point records the spec it ran; a refused call records nothing
    cfg = tmp_path / "genie.cfg"
    cfg.write_text("variant = genie\n")
    out = tmp_path / "sweep"
    args = ["sweep", "--preset", "tiny", "--seed", "0", "--axis", "m",
            "--out", str(out), "--values"]
    assert main([*args, "2", "--config", str(cfg)]) == EXIT_OK
    recorded = (out / "m_2" / "run_manifest.json").read_bytes()
    assert json.loads(recorded)["runs"]["genie"]["config"]["n_cycles"] == 700
    cfg.write_text("variant = genie\nn_cycles = 650\n")
    assert main([*args, "4", "--config", str(cfg)]) == EXIT_CONFIG
    assert (out / "m_2" / "run_manifest.json").read_bytes() == recorded
    assert not (out / "run_manifest.json").exists()


def test_cli_report_missing_dir_exit_code(tmp_path):
    code = main(["report", "--results", str(tmp_path / "none"),
                 "--out", str(tmp_path / "rep")])
    assert code == EXIT_STAGE


def test_sweep_and_report_round_trip(tmp_path):
    spec = smoke_spec(seed=9)
    merged, markdown = sweep(spec, "m", [2, 4], tmp_path / "sweep")
    assert (tmp_path / "sweep" / "m_2" / "results.csv").exists()
    assert (tmp_path / "sweep" / "report.md").read_text() == markdown + "\n"
    assert (tmp_path / "sweep" / "report.csv").exists()
    assert not (tmp_path / "sweep" / "sweep_report.csv").exists()
    # m = 2 and m = 4 are two scenarios, not two runs of one
    assert {row["point"] for row in merged} == {"m_2", "m_4"}
    assert all(row["n_runs"] == 1 for row in merged)
    assert len(merged) == 2 * len(spec.eps_targets)
    assert "| m_4 | moving-average |" in markdown

    assert report(tmp_path / "sweep", tmp_path / "rep") == (merged, markdown)
    assert (tmp_path / "rep.md").exists()
    with open(tmp_path / "rep.csv", newline="") as fh:
        assert {r["point"] for r in csv.DictReader(fh)} == {"m_2", "m_4"}


def test_report_pools_the_seeds_of_one_scenario_and_keeps_scenarios_apart(tmp_path):
    for seed in (0, 1):
        run_pipeline(smoke_spec(seed=seed), tmp_path / f"seed{seed}")
    other = smoke_spec(seed=0)
    run_pipeline(replace(other, deployment=replace(other.deployment, sa_pairs_per_sn=2)),
                 tmp_path / "two_pairs")
    merged, _ = report(tmp_path)
    assert {(row["point"], row["n_runs"]) for row in merged} == {("seed0", 2),
                                                                 ("two_pairs", 1)}
    met = {}
    for seed in (0, 1):
        with open(tmp_path / f"seed{seed}" / "results.csv", newline="") as fh:
            for r in csv.DictReader(fh):
                met.setdefault(r["eps_target"], []).append(float(r["percentile_met"]))
    for row in merged:
        if row["point"] == "seed0":
            assert row["percentile_met_mean"] == pytest.approx(np.mean(met[row["eps_target"]]))


def test_report_names_an_unrecorded_run_after_its_directory(tmp_path):
    run_pipeline(smoke_spec(seed=0), tmp_path / "run")
    (tmp_path / "copy").mkdir()
    (tmp_path / "copy" / "results.csv").write_bytes(
        (tmp_path / "run" / "results.csv").read_bytes())
    merged, markdown = report(tmp_path)
    assert {(row["point"], row["n_runs"]) for row in merged} == {("copy", 1), ("run", 1)}
    assert "| copy | moving-average |" in markdown


@pytest.mark.parametrize("axis,values,named", [
    ("m", ",", "got no values"),
    ("m", "four", "cannot take 'four'"),
    ("m", "2,0", "cannot take '0'"),
])
def test_sweep_rejects_bad_values_before_any_point_runs(tmp_path, capsys, axis,
                                                        values, named):
    assert main(["sweep", "--preset", "tiny", "--seed", "0", "--axis", axis,
                 "--values", values, "--out", str(tmp_path / "sweep")]) == EXIT_CONFIG
    assert f"config error: sweep axis {axis!r} {named}" in capsys.readouterr().err
    assert not list(tmp_path.glob("**/results.csv"))


def test_sweep_has_no_eps_target_axis(tmp_path):
    # one evaluate scores every target in eps_targets; a sweep point per
    # target would retrain the same model into the same row
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--preset", "tiny", "--seed", "0", "--axis", "eps_target",
              "--values", "1e-5,1e-6", "--out", str(tmp_path / "sweep")])
    assert info.value.code == EXIT_CONFIG
    with pytest.raises(ConfigError, match="unknown sweep axis 'eps_target'"):
        sweep(smoke_spec(), "eps_target", ["1e-5"], tmp_path / "api")
    assert not list(tmp_path.glob("**/results.csv"))


def test_report_single_run_passthrough(tmp_path):
    run_pipeline(smoke_spec(seed=10), tmp_path / "solo")
    merged, _ = report(tmp_path)
    with open(tmp_path / "solo" / "results.csv", newline="") as fh:
        raw = list(csv.DictReader(fh))
    by_eps = {float(r["eps_target"]): float(r["percentile_met"]) for r in raw}
    for row in merged:
        assert row["percentile_met_mean"] == pytest.approx(
            by_eps[float(row["eps_target"])])
        assert row["percentile_met_ci"] == 0.0


def test_spec_to_dict_round_trips_json():
    spec = desk_preset(seed=3)
    blob = json.loads(json.dumps(spec_to_dict(spec)))
    assert blob["seed"] == 3
    assert "rng_seed" not in blob["deployment"] and "seed" not in blob["train"]
