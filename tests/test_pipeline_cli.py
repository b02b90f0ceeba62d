"""Pipeline orchestration and CLI: determinism, caching, config parsing,
exit codes, sweep and report plumbing (all at smoke scale)."""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from subnetpred import pipeline, tailcal
from subnetpred.cli import EXIT_CONFIG, EXIT_OK, EXIT_STAGE, main
from subnetpred.config import (ConfigError, desk_preset, parse_config_text,
                               spec_to_dict, tiny_preset)
from subnetpred.pipeline import StageError, report, run_pipeline, sweep


def smoke_spec(seed=0, variant="moving-average"):
    spec = tiny_preset(seed=seed)
    return replace(spec, variant=variant)


def test_run_pipeline_writes_artifacts(tmp_path):
    detail = run_pipeline(smoke_spec(variant="genie"), tmp_path)
    assert (tmp_path / "trace.npz").exists()
    assert not (tmp_path / "trace.csv").exists()   # an explicit CLI export
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
    assert manifest["seed"] == 6
    assert set(manifest["runs"]) == {"moving-average", "genie"}
    for spec in specs:
        run = manifest["runs"][spec.variant]
        assert run["config"] == spec_to_dict(spec)
        assert run["config_hash"] == pipeline._hash(spec_to_dict(spec))
    assert "trace.npz" in manifest["artifacts"]


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


def test_stage_seconds_are_per_stage(tmp_path):
    t0 = time.perf_counter()
    run_pipeline(smoke_spec(seed=11), tmp_path)
    wall = time.perf_counter() - t0
    summary = json.loads((tmp_path / "summary.json").read_text())
    stages = summary["stage_seconds"]
    assert set(stages) == {"simulate", "prepare", "evaluate"}
    assert sum(stages.values()) <= wall


def calibrating_spec(variant):
    """A tiny spec whose model leaves >= 30 training exceedances per series."""
    spec = replace(smoke_spec(seed=0, variant=variant), n_cycles=2000)
    return replace(spec, train=replace(spec.train, lr_decay=0.1))


# the CLI form of calibrating_spec
CALIBRATING_CFG = "n_cycles = 2000\ntrain.lr_decay = 0.1\n"


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
    for command in ("evaluate", "calibrate"):
        assert main([command, "--preset", "tiny", "--seed", "12", "--variant",
                     variant, "--out", str(tmp_path / command)]) == EXIT_CONFIG
        assert "19.95" in capsys.readouterr().err
        assert not (tmp_path / command / "model.bin").exists()
    # the variants without a tail fit still run on tiny
    monkeypatch.undo()
    run_pipeline(smoke_spec(seed=12, variant="iqpt"), tmp_path / "api")


def test_calibration_is_cached_per_train_stage(tmp_path, monkeypatch):
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
    assert fits == []
    assert again == first     # the tail rebuilt from the report, bit for bit
    assert (tmp_path / "calibration.json").read_bytes() == report

    run_pipeline(calibrating_spec("cevt-iqpt-split"), tmp_path)
    assert len(fits) == n_series
    assert (tmp_path / "calibration.json").read_bytes() == report
    assert (tmp_path / "calibration_split.json").exists()
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert {"calibration.json", "calibration_split.json"} <= set(manifest["artifacts"])


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
    counted("calibrate", pipeline.tailcal, "conformity_scores")
    stages = list(pipeline.STAGE_VERSIONS)
    assert stages == ["simulate", "prepare", "train", "calibrate"]
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
    ("model.alpha = 0.2", "top-level alpha"),
    ("model.window = 8", "window rule"),
    ("model.n_series = 4", "deployment.sa_pairs_per_sn"),
])
def test_parse_config_rejects_pipeline_wired_keys(tmp_path, line, hint):
    # valid values the pipeline would overwrite without a word
    with pytest.raises(ConfigError, match=hint):
        parse_config_text(line, preset="tiny")
    cfg = tmp_path / "wired.cfg"
    cfg.write_text(line + "\n")
    assert main(["prepare", "--config", str(cfg), "--preset", "tiny",
                 "--out", str(tmp_path / "run")]) == EXIT_CONFIG


def test_seed_flag_rewires_all_seeds():
    spec = parse_config_text("", preset="tiny", seed=99)
    assert spec.seed == 99
    # the flag wins over the file's value
    assert parse_config_text("seed = 3", preset="tiny", seed=99).seed == 99
    assert parse_config_text("seed = 3", preset="tiny").seed == 3


@pytest.mark.parametrize("line", ["train.seed = 1", "deployment.rng_seed = 1"])
def test_removed_seed_keys_are_config_errors(tmp_path, line):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text(line, preset="tiny")
    cfg = tmp_path / "old.cfg"
    cfg.write_text(line + "\n")
    assert main(["simulate", "--config", str(cfg), "--preset", "tiny",
                 "--out", str(tmp_path / "run")]) == EXIT_CONFIG


def test_config_file_seed_seeds_simulation_and_training(tmp_path):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = 3\n")
    runs = {"file": ["--config", str(cfg)], "flag": ["--seed", "3"]}
    for name, args in runs.items():
        assert main(["train", "--preset", "tiny", "--variant", "iqpt", *args,
                     "--out", str(tmp_path / name)]) == EXIT_OK
    for artifact in ("trace.npz", "model.bin"):
        assert ((tmp_path / "file" / artifact).read_bytes()
                == (tmp_path / "flag" / artifact).read_bytes()), artifact
    assert main(["train", "--preset", "tiny", "--variant", "iqpt", "--seed", "0",
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


# ---------------------------------------------------------------------- CLI

def write_cfg(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n_cycles = 600\nn_cal = 80\nn_test = 150\n"
                   "variant = moving-average\n")
    return cfg


def test_cli_simulate_and_evaluate(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--preset", "tiny",
                 "--out", str(out)]) == EXIT_OK
    assert (out / "trace.csv").exists()
    assert main(["evaluate", "--config", str(cfg), "--preset", "tiny",
                 "--out", str(out)]) == EXIT_OK
    assert (out / "results.csv").exists()
    config_echo = json.loads((out / "resolved_config.json").read_text())
    assert config_echo["n_cycles"] == 600


def test_cli_prepare_train_calibrate_stage_flow(tmp_path):
    out = tmp_path / "run"
    base = ["--preset", "tiny", "--out", str(out), "--seed", "3"]
    assert main(["prepare", *base]) == EXIT_OK
    assert (out / "dataset.bin").exists()
    assert main(["train", *base, "--variant", "iqpt"]) == EXIT_OK
    assert (out / "model.bin").exists()


@pytest.mark.parametrize("command, variant, target, stage", [
    ("calibrate", "cevt-iqpt", (tailcal, "gpd_fit"), "calibrate"),
    ("calibrate", "cevt-iqpt-split", (tailcal, "gpd_fit"), "calibrate"),
    ("train", "iqpt", (pipeline, "train"), "train"),
    ("train", "iqpt-split", (pipeline, "split_train"), "train_split"),
])
def test_cli_stage_failure_names_stage_and_exits_3(tmp_path, monkeypatch, capsys,
                                                   command, variant, target, stage):
    def fail(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(*target, fail)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CALIBRATING_CFG)
    assert main([command, "--config", str(cfg), "--preset", "tiny", "--seed", "0",
                 "--variant", variant, "--out", str(tmp_path / "run")]) == EXIT_STAGE
    assert f"stage {stage!r} failed: injected" in capsys.readouterr().err


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("deployment.n_subnetworks = -3\n")
    code = main(["simulate", "--config", str(bad), "--preset", "tiny",
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("n_reserved", [4, 9])
def test_push_pull_without_push_pairs_is_a_config_error(tmp_path, n_reserved):
    # tiny has 4 SA pairs: 4 reserved pull slots leave no push pair, and
    # more than 4 cannot be laid out at all
    text = f"traffic.variant = push-pull\ntraffic.n_reserved = {n_reserved}\n"
    with pytest.raises(ConfigError, match="traffic.n_reserved.*deployment.sa_pairs_per_sn"):
        parse_config_text(text, preset="tiny")
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert main(["simulate", "--config", str(bad), "--preset", "tiny",
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert not (tmp_path / "x" / "trace.npz").exists()


def test_non_positive_tx_cycle_is_a_config_error():
    # alley traces never call step_mobility, which rejects dt <= 0 itself
    for dt in (0, -1e-3):
        with pytest.raises(ConfigError, match="tx_cycle_duration"):
            parse_config_text(f"deployment.tx_cycle_duration = {dt}\nmobility = alley\n",
                              preset="tiny")


def test_push_pull_with_one_push_pair_simulates(tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("traffic.variant = push-pull\ntraffic.n_reserved = 3\n"
                   "traffic.intensity = 5\nn_cycles = 50\n")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--preset", "tiny",
                 "--out", str(out)]) == EXIT_OK
    assert (out / "trace.npz").exists()


def test_cli_report_missing_dir_exit_code(tmp_path):
    code = main(["report", "--results", str(tmp_path / "none"),
                 "--out", str(tmp_path / "rep")])
    assert code == EXIT_STAGE


def test_sweep_and_report_round_trip(tmp_path):
    spec = smoke_spec(seed=9)
    rows = sweep(spec, "m", [2, 4], tmp_path / "sweep")
    assert len(rows) == 2
    assert (tmp_path / "sweep" / "m_2" / "results.csv").exists()
    assert (tmp_path / "sweep" / "sweep_report.csv").exists()

    merged, markdown = report(tmp_path / "sweep", tmp_path / "rep")
    assert (tmp_path / "rep.csv").exists()
    assert (tmp_path / "rep.md").exists()
    assert "moving-average" in markdown
    # aggregation identity: two runs of the same predictor/eps merge to n=2
    assert all(row["n_runs"] == 2 for row in merged)


def test_report_single_run_passthrough(tmp_path):
    run_pipeline(smoke_spec(seed=10), tmp_path / "solo")
    merged, _ = report(tmp_path)
    with open(tmp_path / "solo" / "results.csv", newline="") as fh:
        import csv as csvmod
        raw = list(csvmod.DictReader(fh))
    by_eps = {float(r["eps_target"]): float(r["percentile_met"]) for r in raw}
    for row in merged:
        assert row["met_mean"] == pytest.approx(by_eps[float(row["eps_target"])])
        assert row["met_ci"] == 0.0


def test_spec_to_dict_round_trips_json():
    spec = desk_preset(seed=3)
    blob = json.loads(json.dumps(spec_to_dict(spec)))
    assert blob["seed"] == 3
    assert "rng_seed" not in blob["deployment"] and "seed" not in blob["train"]
