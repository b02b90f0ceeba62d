"""Pipeline orchestration and CLI: determinism, caching, config parsing,
exit codes, sweep and report plumbing (all at smoke scale)."""

import csv
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from subnetpred import pipeline, tailcal
from subnetpred.cli import EXIT_CONFIG, EXIT_OK, EXIT_STAGE, main
from subnetpred.config import (_WIRED_KEYS, PRESETS, ConfigError, ExperimentSpec,
                               desk_preset, parse_config_text, spec_to_dict, tiny_preset)
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
    # the directory's scenario is recorded once, and the runs hold their scores
    assert manifest["version"] == pipeline.VERSION
    assert manifest["scenario"] == {k: v for k, v in spec_to_dict(specs[0]).items()
                                    if k != "variant"}
    assert manifest["scenario"]["seed"] == 6
    for spec in specs:
        assert set(manifest["runs"][spec.variant]) == {
            "coverage_per_sa", "width_db_per_sa", "width_norm_per_sa", "ra"}
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
    # the thresholds' parameter digest is the one key a directory keeps
    assert [p.name for p in tmp_path.glob(".*.key")] == [".thresholds.key"]


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
    summary names every stage any call ran, with the time of the first call
    that completed it, the call that built its artifact."""
    variants = ["cevt-iqpt"] + [v for v in ExperimentSpec.VARIANTS if v != "cevt-iqpt"]
    t0 = time.perf_counter()
    for variant in variants:
        run_pipeline(calibrating_spec(variant), tmp_path)
        if variant == variants[0]:
            first = json.loads((tmp_path / "summary.json").read_text())
    wall = time.perf_counter() - t0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary) == {"stage_seconds"}
    stages = summary["stage_seconds"]
    assert set(stages) == {"simulate", "prepare", "train", "train_split",
                           "calibrate", "evaluate"}
    assert sum(stages.values()) <= wall
    assert {k: v for k, v in stages.items() if k in first["stage_seconds"]} \
        == first["stage_seconds"]

    # a second pass over all variants leaves every time as the first pass
    # wrote it, calibrate and evaluate included, though they run on every call
    run_plan(calibrating_spec(variants[0]), tmp_path, variants)
    assert json.loads((tmp_path / "summary.json").read_text()) == summary


def test_stage_commands_record_their_stage_times(tmp_path):
    # the times of the stages an evaluate builds survive the evaluate after
    # it, which finds them cached
    args = ["evaluate", "--preset", "tiny", "--seed", "0", "--variant", "iqpt",
            "--out", str(tmp_path)]
    assert main(args) == EXIT_OK
    trained = json.loads((tmp_path / "summary.json").read_text())["stage_seconds"]
    assert set(trained) == {"simulate", "prepare", "train", "evaluate"}
    assert main(args + ["--variant", "genie"]) == EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text())["stage_seconds"]
    assert set(summary) == set(trained)
    for name in ("simulate", "prepare", "train"):
        assert summary[name] == trained[name]


def test_failed_call_records_the_stages_it_completed(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("tail fit failed")

    monkeypatch.setattr(tailcal, "gpd_fit", fail)
    with pytest.raises(StageError):
        run_pipeline(calibrating_spec("evt-iqpt"), tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary["stage_seconds"]) == {"simulate", "prepare", "train"}


def snapshot(out):
    """Every file under `out`, by relative path, with its bytes."""
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("seed, config, named", [
    ("1", "", "differing: seed"),
    ("0", "n_cal = 80\n", "differing: n_cal"),
    ("0", "train.epochs = 3\n", "differing: train.epochs"),
    ("0", "", "differing: version"),
    ("0", "", "none recorded"),
], ids=["seed", "n_cal", "train.epochs", "version", "unrecorded"])
def test_another_scenario_is_refused_and_leaves_every_file(tmp_path, monkeypatch,
                                                          capsys, seed, config, named):
    """A directory holds one scenario: an evaluate of the same one in place
    keeps every record byte for byte; one of another seed, n_cal, training,
    output VERSION, or into a directory that records no scenario, exits 2,
    names what differs and writes nothing."""
    (tmp_path / "run.cfg").write_text(config)
    out = tmp_path / "run"
    base = ["--preset", "tiny", "--out", str(out)]
    assert main(["evaluate", "--seed", "0", "--variant", "genie", "--variant", "iqpt"]
                + base) == EXIT_OK
    scored = {name: (out / name).read_bytes()
              for name in ("results.csv", "run_manifest.json")}
    assert main(["evaluate", "--seed", "0", "--variant", "iqpt"] + base) == EXIT_OK
    for name, blob in scored.items():
        assert (out / name).read_bytes() == blob, name

    if named == "differing: version":
        monkeypatch.setattr(pipeline, "VERSION", pipeline.VERSION + 1)
    elif named == "none recorded":
        (out / "run_manifest.json").unlink()
    before = snapshot(out)
    capsys.readouterr()
    assert main(["evaluate", "--seed", seed, "--variant", "moving-average",
                 "--config", str(tmp_path / "run.cfg")] + base) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"holds another scenario ({named})" in err, err
    assert snapshot(out) == before


def test_an_empty_out_directory_is_a_new_run(tmp_path):
    # an existing but empty --out holds no scenario, so any spec may claim it
    out = tmp_path / "run"
    out.mkdir()
    run_pipeline(smoke_spec(seed=3, variant="genie"), out)
    assert json.loads((out / "run_manifest.json").read_text())["scenario"]["seed"] == 3


def test_a_call_failed_after_prepare_leaves_its_scenario_to_reuse(tmp_path,
                                                                  monkeypatch):
    # the scenario is recorded before simulate, so a failure after prepare
    # leaves a directory whose next call of that scenario reuses its trace
    def fail(*args, **kwargs):
        raise RuntimeError("training failed")

    monkeypatch.setattr(pipeline, "train", fail)
    spec = smoke_spec(seed=0, variant="iqpt")
    spec = replace(spec, n_cycles=902, model=replace(spec.model, window=8))
    with pytest.raises(StageError, match="training failed"):
        run_pipeline(spec, tmp_path)
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["scenario"]["n_cycles"] == 902 and manifest["runs"] == {}
    assert manifest["scenario"]["model"]["window"] == 8
    stamp = (tmp_path / "trace.npz").stat().st_mtime_ns
    run_pipeline(replace(spec, variant="genie"), tmp_path)
    assert (tmp_path / "trace.npz").stat().st_mtime_ns == stamp
    assert_runs(tmp_path, ["genie"])


def test_tail_variant_refused_after_its_window_leaves_the_directory_as_it_was(
        tmp_path, capsys):
    # at 902 cycles a window of 8 leaves 594 training instances (29.7
    # expected exceedances): a tail variant of the genie run's own scenario
    # is refused before the call reads the directory, so the genie run's
    # files stay as they were
    (tmp_path / "run.cfg").write_text("n_cycles = 902\nmodel.window = 8\n")
    out = tmp_path / "run"
    base = ["evaluate", "--preset", "tiny", "--seed", "0",
            "--config", str(tmp_path / "run.cfg"), "--out", str(out)]
    assert main(base + ["--variant", "genie"]) == EXIT_OK
    names = ("trace.npz", "results.csv", "run_manifest.json", "summary.json")
    before = {name: (out / name).read_bytes() for name in names}
    assert main(base + ["--variant", "evt-iqpt"]) == EXIT_CONFIG
    assert {name: (out / name).read_bytes() for name in names} == before
    assert "0.05 * 594 = 29.7" in capsys.readouterr().err


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


TAIL_VARIANTS = [v for v, (_, readout) in ExperimentSpec.VARIANTS.items()
                 if readout in pipeline.TAIL_READOUTS]


@pytest.mark.parametrize("variant", TAIL_VARIANTS)
def test_too_few_training_exceedances_fail_before_training(tmp_path, monkeypatch,
                                                           capsys, variant):
    # tiny at its 700 cycles: alpha * n_train = 0.05 * 384 = 19.2 < 30
    def fail(*args, **kwargs):
        raise AssertionError("trained an infeasible spec")

    monkeypatch.setattr(pipeline, "train", fail)
    monkeypatch.setattr(pipeline, "split_train", fail)
    with pytest.raises(ConfigError, match=r"needs 30 .* = 0\.05 \* 384 = 19\.2\b"):
        run_pipeline(smoke_spec(seed=12, variant=variant), tmp_path / "api")
    # the window is a setting, so the call is refused before it simulates:
    # the directory is never made
    assert not (tmp_path / "api").exists()
    assert main(["evaluate", "--preset", "tiny", "--seed", "12", "--variant",
                 variant, "--out", str(tmp_path / "cli")]) == EXIT_CONFIG
    assert "19.2" in capsys.readouterr().err
    assert not (tmp_path / "cli" / "model.bin").exists()
    # the variants without a tail fit still run on tiny
    monkeypatch.undo()
    run_pipeline(smoke_spec(seed=12, variant="iqpt"), tmp_path / "api")


def test_refused_tail_variant_leaves_the_directory_as_it_was(tmp_path, capsys):
    # a genie run, then a tail variant that tiny cannot fit at its window:
    # the refusal touches none of the first run's files
    out = tmp_path / "run"
    assert main(["evaluate", "--preset", "tiny", "--seed", "0", "--variant", "genie",
                 "--out", str(out)]) == EXIT_OK
    names = ("trace.npz", "results.csv", "run_manifest.json", "summary.json")
    before = {name: (out / name).read_bytes() for name in names}
    assert main(["evaluate", "--preset", "tiny", "--seed", "1", "--variant",
                 "evt-iqpt", "--out", str(out)]) == EXIT_CONFIG
    assert "19.2" in capsys.readouterr().err
    assert {name: (out / name).read_bytes() for name in names} == before
    assert "genie" in json.loads(before["run_manifest.json"])["runs"]


def test_trace_too_short_for_its_partitions_exits_2(tmp_path, capsys):
    # window 16 leaves 684 instances; calibration and test need 800 of them
    # and training at least one more
    cfg = tmp_path / "short.cfg"
    cfg.write_text("n_cal = 500\nn_test = 300\nvariant = genie\n")
    out = tmp_path / "run"
    assert main(["evaluate", "--preset", "tiny", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_CONFIG
    assert "model.window + n_cal + n_test + 1 = 817" in capsys.readouterr().err
    assert not (out / "trace.npz").exists()
    # one cycle short of the shortest trace a window of 8 allows
    cfg.write_text("n_cal = 500\nn_test = 200\nn_cycles = 708\nmodel.window = 8\n"
                   "variant = genie\n")
    assert main(["evaluate", "--preset", "tiny", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_CONFIG
    assert "= 709" in capsys.readouterr().err
    assert not (out / "trace.npz").exists()
    # the shortest trace the partitions allow runs
    cfg.write_text("n_cal = 500\nn_test = 200\nn_cycles = 717\nvariant = genie\n")
    assert main(["evaluate", "--preset", "tiny", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_OK
    assert pipeline.windowing.load_dataset(out / "dataset").n_train == 1


def test_a_set_window_runs_end_to_end(tmp_path):
    # the window is the model's input length and the instance count
    cfg = tmp_path / "w8.cfg"
    cfg.write_text("model.window = 8\n")
    out = tmp_path / "run"
    assert main(["evaluate", "--config", str(cfg), "--preset", "tiny", "--seed", "0",
                 "--variant", "iqpt", "--out", str(out)]) == EXIT_OK
    spec = tiny_preset(0)
    assert json.loads((out / "model.json").read_text())["hyper"]["window"] == 8
    assert json.loads((out / "run_manifest.json").read_text())[
        "scenario"]["model"]["window"] == 8
    ds = pipeline.windowing.load_dataset(out / "dataset")
    assert ds.window == 8
    assert ds.n_train == spec.n_cycles - 8 - spec.n_cal - spec.n_test == 392
    assert ds.inputs.shape == (spec.n_cycles - 8, 8, spec.deployment.sa_pairs_per_sn)


class _WhiteNoiseTrace:
    """The two members of a trace that stage_prepare reads."""

    noise_power = 1e-12

    def __init__(self, series):
        self.series = series

    def est_dbm(self, floor):
        return self.series


def test_a_white_noise_series_gets_the_set_window(tmp_path):
    # no lag of white noise correlates: the old window rule gave it one
    # cycle, and the dataset's input length is now the setting whatever the
    # series, 16 by default
    spec = tiny_preset(0)
    assert spec.model.window == 16
    series = np.random.default_rng(0).normal(-80.0, 3.0,
                                             (spec.deployment.sa_pairs_per_sn,
                                              spec.n_cycles))
    for window in (spec.model.window, 5):
        spec_w = replace(spec, model=replace(spec.model, window=window))
        out = tmp_path / f"w{window}"
        out.mkdir()
        ds = pipeline.stage_prepare(spec_w, out, _WhiteNoiseTrace(series))
        assert ds.window == window and ds.inputs.shape[1] == window
        assert ds.n_train == spec.n_cycles - window - spec.n_cal - spec.n_test


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
    run_pipeline(calibrating_spec("evt-iqpt"), tmp_path)
    assert calls == []


def test_retrained_model_recomputes_its_thresholds(tmp_path, monkeypatch):
    # without its loss curve, the last file training writes, the model is
    # trained again; here into other parameters, whose digest misses the key
    spec = calibrating_spec("iqpt")
    run_pipeline(spec, tmp_path)
    old = np.load(tmp_path / "thresholds.npy")
    (tmp_path / "model_loss.csv").unlink()
    train = pipeline.train

    def nudged(*args, **kwargs):
        params, curve = train(*args, **kwargs)
        params["head.b"][0] += 1e-3
        return params, curve

    monkeypatch.setattr(pipeline, "train", nudged)
    calls = _count_predicts(monkeypatch)
    run_pipeline(replace(spec, variant="evt-iqpt"), tmp_path)
    ds = pipeline.windowing.load_dataset(tmp_path / "dataset")
    assert calls == [ds.inputs.shape[0]]
    monkeypatch.undo()
    params, cfg, _ = pipeline.network.load_checkpoint(tmp_path / "model")
    new = np.load(tmp_path / "thresholds.npy")
    assert np.array_equal(new, pipeline.network.predict(params, cfg, ds.inputs))
    assert not np.array_equal(new, old)
    # the iqpt run was scored on the replaced files, so it leaves the record
    assert_runs(tmp_path, ["evt-iqpt"])


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

    run = tmp_path / "run"
    run_pipeline(spec, run)
    cold = (run / "thresholds.npy").read_bytes()
    (run / "thresholds.npy").unlink()
    run_pipeline(spec, run)
    assert (run / "thresholds.npy").read_bytes() == cold


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


def test_every_numeric_setting_has_a_range_that_refuses_nan():
    # the int and float fields of the six config classes, ExperimentSpec and
    # its five sections, by the key a config file gives them
    spec = desk_preset(0)
    numeric = {}
    for f in fields(spec):
        value = getattr(spec, f.name)
        keyed = ([(f"{f.name}.{g.name}", g) for g in fields(value)]
                 if is_dataclass(value) else [(f.name, f)])
        numeric.update((key, g) for key, g in keyed
                       if g.type.split(" | ")[0] in ("int", "float")
                       and key not in _WIRED_KEYS)
    assert {"seed", "deployment.schedule_drift", "channel.noise_figure_db"} <= set(numeric)
    assert [key for key, f in numeric.items() if "range" not in f.metadata] == []
    # NaN and the infinities lie in no float range
    for preset in PRESETS:
        for key in (key for key, f in numeric.items() if f.type == "float"):
            for value in ("nan", "inf", "-inf"):
                with pytest.raises(ConfigError,
                                   match=rf"\b{key.split('.')[-1]} = {value}\b"):
                    parse_config_text(f"{key} = {value}", preset=preset)


def test_run_records_the_model_alpha_it_trained_at_and_no_data_shape(tmp_path):
    cfg = tmp_path / "alpha.cfg"
    cfg.write_text("deployment.sa_pairs_per_sn = 2\nmodel.alpha = 0.1\n")
    out = tmp_path / "run"
    assert main(["evaluate", "--config", str(cfg), "--preset", "tiny", "--seed", "0",
                 "--variant", "iqpt", "--out", str(out)]) == EXIT_OK
    recorded = json.loads((out / "run_manifest.json").read_text())
    model = recorded["scenario"]["model"]
    hyper = json.loads((out / "model.json").read_text())["hyper"]
    # the pipeline fills the series count in from the deployment; the record
    # states no other, and the window is the setting
    assert model["n_series"] is None and hyper["n_series"] == 2
    assert model["window"] == hyper["window"] == 16
    assert json.loads((out / "dataset.json").read_text())["window"] == 16
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
                                  "model.center_windows = false", "alpha = 0.1",
                                  "corr_threshold = 0.4", "max_lag = 16"])
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
    scenario = json.loads((out / "run_manifest.json").read_text())["scenario"]
    assert scenario["n_cycles"] == 600


def test_a_refused_call_leaves_the_run_records_as_they_were(tmp_path, capsys):
    # the tail-fit check refuses evt-iqpt at alpha 0.01, and the call
    # writes no record of its spec
    out = tmp_path / "run"
    base = ["evaluate", "--preset", "tiny", "--seed", "0", "--out", str(out)]
    assert main(base + ["--variant", "genie"]) == EXIT_OK
    records = {name: (out / name).read_bytes()
               for name in ("run_manifest.json", "results.csv")}
    cfg = tmp_path / "alpha.cfg"
    cfg.write_text("model.alpha = 0.01\n")
    assert main(base + ["--variant", "evt-iqpt", "--config", str(cfg)]) == EXIT_CONFIG
    assert "0.01 * 384 = 3.84" in capsys.readouterr().err
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
    ("deployment.area = inf 25\n", "area sides (inf, 25.0) must be positive and finite"),
    # rdmm keeps each center sn_radius inside the area: once exit 3 in simulate
    ("deployment.area = 3 3\n", "both area sides (3.0, 3.0) must exceed 2 sn_radius = 4"),
    ("deployment.sn_radius = 1e6\n", "must exceed 2 sn_radius = 2e+06"),
    # the alley circuits sit max(2 sn_radius, 5) m inside the area: once exit 0,
    # with zero-length loops and a NaN overhead (10 10) or loops outside it (9 9)
    ("mobility = alley\ndeployment.area = 10 10\n", "both sides of (10.0, 10.0) must "
                                                     "exceed 10"),
    ("mobility = alley\ndeployment.area = 9 9\n", "both sides of (9.0, 9.0) must exceed 10"),
    ("eps_targets =\n", "eps_targets must not be empty"),
    (None, "cannot read config file"),           # missing file
    ("", "cannot read config file"),             # a directory
    (b"\xff\xfe\n", "cannot read config file"),  # not UTF-8
], ids=["int", "area-1", "area-3", "area-inf", "area-rdmm", "radius-rdmm", "area-alley-10",
        "area-alley-9", "eps-empty", "missing", "directory", "binary"])
def test_unreadable_config_values_exit_2(tmp_path, capsys, config, named):
    path = tmp_path / "run.cfg"
    if config == "":
        path.mkdir()
    elif isinstance(config, bytes):
        path.write_bytes(config)
    elif config is not None:
        path.write_text(config + "variant = genie\n")
    assert main(["evaluate", "--config", str(path), "--preset", "tiny",
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err
    assert not (tmp_path / "x").exists()     # refused before --out is touched


@pytest.mark.parametrize("line", [
    "channel.decorrelation_distance = -5",   # exp(-d / d_corr) grows: NaN rows
    "channel.bandwidth_hz = 0",              # log10 of zero noise bandwidth
    "deployment.carrier_freq = 0",           # log10 of f in the InF path loss
    "deployment.tx_power = 0",               # no signal: the RA stage fails
    "channel.est_noise_fraction = -0.1",     # silently no estimation noise
    "model.n_layers = -1",                   # silently no encoder layer
    "model.n_heads = 0",                     # ZeroDivisionError traceback
    "model.d_embed = 0",
    "model.lstm_hidden = 0",
    "deployment.n_subbands = 6",             # tiny's 6 SNs: the victim alone on its band
    "channel.decorrelation_distance = nan",  # NaN lies in no range
    "channel.noise_figure_db = nan",         # NaN rows
    "channel.shadow_std_los_db = -4",        # silently the +4 dB field
    "channel.power_floor_w = 0",
    "channel.doppler_hz = -1",
    "payload_bits = 0",
    "model.window = 0",                      # no input to predict from
    "--seed -1",                             # once refused in simulate, after --out
    "deployment.speed = inf",                # NaN rows
    "channel.bandwidth_hz = inf",            # once refused in evaluate, after the trace
])
def test_out_of_range_settings_exit_2_before_anything_runs(tmp_path, capsys, line):
    flags = line.split() if line.startswith("--") else []
    path = tmp_path / "run.cfg"
    path.write_text("" if flags else line + "\n")
    assert main(["evaluate", "--config", str(path), "--preset", "tiny",
                 "--variant", "iqpt", "--out", str(tmp_path / "x"), *flags]) == EXIT_CONFIG
    err = capsys.readouterr().err
    key, value = flags or (tok.strip() for tok in line.split("="))
    assert err.startswith("config error:") and key.lstrip("-").rsplit(".", 1)[-1] in err
    assert value in err
    assert not (tmp_path / "x").exists()     # refused before --out is touched


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
    "channel.doppler_hz = 80\ndeployment.tx_cycle_duration = 0.01\n",
])
def test_fading_past_the_first_zero_of_j0_is_a_config_error(text):
    with pytest.raises(ConfigError, match="doppler_hz.*tx_cycle_duration.*J0"):
        parse_config_text(text, preset="tiny")


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_every_preset_holds_both_mobility_models(preset):
    for mobility in ("rdmm", "alley"):
        assert replace(PRESETS[preset](0), mobility=mobility).mobility == mobility


def test_the_variant_row_of_the_config_doc_follows_the_variant_table():
    doc = Path(__file__).resolve().parents[1] / "docs" / "config.md"
    row, = [line for line in doc.read_text().splitlines()
            if line.startswith("| `variant` |")]
    rows = re.findall(r"`([a-z-]+)` \(([a-z]+), ([a-z-]+)\)", row)
    assert rows == [(v, protocol or "none", readout)
                    for v, (protocol, readout) in ExperimentSpec.VARIANTS.items()]


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
    "train.lr = 0", "n_test = 0", "model.window = 0", "n_cycles = 0",
    "model.alpha = 1"])
def test_training_and_scoring_values_that_cannot_run_exit_2(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "run"
    assert main(["evaluate", "--config", str(cfg), "--preset", "tiny", "--seed", "0",
                 "--variant", "iqpt", "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")
    assert not (out / "trace.npz").exists()


def test_push_pull_sweep_point_that_never_transmits_exits_2(tmp_path, capsys):
    # at intensity = 0 and n_reserved = 0 no push burst starts and no pull
    # pair exists: the point's trace would hold no interference
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("variant = genie\ntraffic.intensity = 0\ntraffic.n_reserved = 0\n")
    args = ["sweep", "--preset", "tiny", "--seed", "0", "--axis", "traffic",
            "--values", "bernoulli,push-pull", "--config", str(cfg)]
    assert main([*args, "--out", str(tmp_path / "quiet")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "sweep axis 'traffic' cannot take 'push-pull'" in err and "never transmits" in err
    assert not list(tmp_path.glob("quiet/**/trace.npz"))

    # the presets' push-pull values transmit
    cfg.write_text("variant = genie\n")
    assert main([*args, "--out", str(tmp_path / "busy")]) == EXIT_OK
    assert "| traffic_push-pull | genie |" in (tmp_path / "busy" / "report.md").read_text()


def test_bernoulli_run_ignores_the_push_pull_values_it_does_not_read(tmp_path):
    # bernoulli traffic reads eta alone: a sweep config's push-pull values,
    # none of them the defaults, change neither the trace, nor the recorded
    # scenario, nor the point
    plain, sweep_dir = tmp_path / "plain", tmp_path / "sweep"
    assert main(["evaluate", "--preset", "tiny", "--seed", "0", "--variant", "genie",
                 "--out", str(plain)]) == EXIT_OK
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("variant = genie\ntraffic.intensity = 7\ntraffic.n_reserved = 1\n"
                   "traffic.burst_duration_s = 0.5\n")
    assert main(["sweep", "--preset", "tiny", "--seed", "0", "--axis", "traffic",
                 "--values", "bernoulli", "--config", str(cfg),
                 "--out", str(sweep_dir)]) == EXIT_OK
    point = sweep_dir / "traffic_bernoulli"
    assert (plain / "trace.npz").read_bytes() == (point / "trace.npz").read_bytes()
    configs = [json.loads((d / "run_manifest.json").read_text())["scenario"]
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
    assert json.loads(recorded)["scenario"]["n_cycles"] == 700
    cfg.write_text("variant = genie\nn_cycles = 650\n")
    assert main([*args, "4", "--config", str(cfg)]) == EXIT_CONFIG
    assert (out / "m_2" / "run_manifest.json").read_bytes() == recorded
    assert not (out / "run_manifest.json").exists()


def test_sweep_refuses_a_changed_base_config_before_any_point_runs(tmp_path, capsys):
    # every point directory must hold its own scenario, so a sweep at
    # another seed stops before its first point, the new m_4 included
    cfg = tmp_path / "genie.cfg"
    cfg.write_text("variant = genie\n")
    out = tmp_path / "sweep"
    args = ["sweep", "--preset", "tiny", "--axis", "m", "--config", str(cfg),
            "--out", str(out), "--values"]
    assert main([*args, "2", "--seed", "0"]) == EXIT_OK
    before = snapshot(out)
    assert main([*args, "2,4", "--seed", "1"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "m_2 holds another scenario (differing: seed)" in err, err
    assert snapshot(out) == before
    assert not (out / "m_4").exists()


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


def test_every_documented_sweep_value_builds_a_spec_on_every_preset():
    # docs/config.md gives each axis's values as "`axis` sets `key` (`--values
    # a,b`)"; ExperimentSpec's checks run on each point, so a value that
    # cannot run raises ConfigError here, as sweep would before any point runs
    doc = (Path(__file__).resolve().parents[1] / "docs" / "config.md").read_text()
    documented = dict(re.findall(r"`(\w+)`(?: axis)? sets\s+`[\w.]+`\s+"
                                 r"\(`--values ([\w,-]+)`\)", doc))
    assert set(documented) == set(pipeline.SWEEP_AXES)
    for preset in PRESETS:
        for axis, values in documented.items():
            for value in values.split(","):
                pipeline._sweep_point(PRESETS[preset](0), axis, value)


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
