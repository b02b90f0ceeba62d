"""Command-line experiment driver.

Subcommands mirror the pipeline stages (simulate, prepare, train, calibrate,
evaluate) plus sweep and report.  Exit codes: 0 success, 2 configuration
error, 3 stage failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, PRESETS, load_config, spec_to_json
from .pipeline import (SWEEP_AXES, StageError, _stage, check_tail_fit,
                       run_pipeline, report, stage_calibrate, stage_prepare,
                       stage_simulate, stage_train, sweep)
from .scenario.simulate import write_trace_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3


def _add_common(sub):
    sub.add_argument("--config", help="key=value config file (see docs/config.md)")
    sub.add_argument("--preset", default="desk", choices=sorted(PRESETS),
                     help="base parameter preset")
    sub.add_argument("--seed", type=int, default=None, help="override run seed")
    sub.add_argument("--out", required=True, help="output directory")


def build_parser():
    parser = argparse.ArgumentParser(prog="subnetpred",
                                     description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    for name, desc in [
            ("simulate", "generate the interference trace and export trace.csv"),
            ("prepare", "window the trace into train/cal/test instances"),
            ("train", "train the quantile predictor"),
            ("calibrate", "fit tail models and conformal scores"),
            ("evaluate", "run the full pipeline and score the predictor"),
    ]:
        sub = subs.add_parser(name, help=desc)
        _add_common(sub)
        if name in ("train", "calibrate", "evaluate"):
            sub.add_argument("--variant", default=None,
                             help="predictor variant to evaluate")

    sw = subs.add_parser("sweep", help="run the pipeline along one axis")
    _add_common(sw)
    sw.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sw.add_argument("--values", required=True,
                    help="comma-separated axis values")

    rp = subs.add_parser("report", help="merge completed runs into one table")
    rp.add_argument("--results", required=True, help="directory of runs")
    rp.add_argument("--out", required=True, help="output stem (.csv and .md)")
    return parser


def _load_spec(args):
    if args.config:
        spec = load_config(args.config, preset=args.preset, seed=args.seed)
    else:
        spec = PRESETS[args.preset](seed=args.seed if args.seed is not None else 0)
    if getattr(args, "variant", None):
        spec = replace(spec, variant=args.variant)
    return spec


def _split(spec):
    return spec.variant.endswith("-split")


def _stem(spec, name):
    return name + "_split" if _split(spec) else name


def _dataset(spec, out):
    with _stage("simulate"):
        trace = stage_simulate(spec, out)
    with _stage("prepare"):
        return stage_prepare(spec, out, trace)


def _model(spec, out, ds):
    with _stage(_stem(spec, "train")):
        return stage_train(spec, out, ds, split_mode=_split(spec))


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            merged, markdown = report(args.results, args.out)
            print(markdown)
            return EXIT_OK

        spec = _load_spec(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "resolved_config.json").write_text(spec_to_json(spec))

        if args.command == "simulate":
            with _stage("simulate"):
                trace = stage_simulate(spec, out)
                write_trace_csv(trace, out / "trace.csv")
            print(f"trace: {trace.n_series} series x {trace.n_cycles} cycles "
                  f"-> {out / 'trace.csv'}")
        elif args.command == "prepare":
            ds = _dataset(spec, out)
            print(f"dataset: window={ds.window} train/cal/test = "
                  f"{ds.n_train}/{ds.n_cal}/{ds.n_test} -> {out / 'dataset.bin'}")
        elif args.command == "train":
            ds = _dataset(spec, out)
            _model(spec, out, ds)
            print(f"checkpoint -> {out / (_stem(spec, 'model') + '.bin')}")
        elif args.command == "calibrate":
            ds = _dataset(spec, out)
            check_tail_fit(spec, ds)
            params, cfg = _model(spec, out, ds)
            with _stage("calibrate"):
                stage_calibrate(spec, out, ds, params, cfg, _split(spec))
            print(f"calibration -> {out / (_stem(spec, 'calibration') + '.json')}")
        elif args.command == "evaluate":
            detail = run_pipeline(spec, out)
            print(json.dumps(detail["ra"], indent=2))
            print(f"results -> {out / 'results.csv'}")
        elif args.command == "sweep":
            values = [v.strip() for v in args.values.split(",") if v.strip()]
            rows = sweep(spec, args.axis, values, out)
            for row in rows:
                print(f"{row['axis']}={row['value']}: "
                      f"avg_cov={row['avg_coverage']:.3f} "
                      f"avg_width={row['avg_width']:.3f}")
        return EXIT_OK
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (StageError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
