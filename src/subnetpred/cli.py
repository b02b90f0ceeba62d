"""Command-line experiment driver.

evaluate runs every pipeline stage (simulate, prepare, train, calibrate,
evaluate) and scores the variants; sweep runs it along one axis, and
report merges completed runs.  Exit codes: 0 success, 2 configuration
error or unknown command, 3 stage failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, PRESETS, load_config
from .pipeline import SWEEP_AXES, StageError, report, run_plan, sweep

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

    ev = subs.add_parser("evaluate", help="run every stage and score the variants")
    _add_common(ev)
    ev.add_argument("--variant", action="append",
                    help="predictor variant; repeat it for several")

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
        spec = replace(spec, variant=args.variant[0])
    return spec


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            print(report(args.results, args.out)[1])
            return EXIT_OK

        spec = _load_spec(args)
        out = Path(args.out)

        if args.command == "sweep":
            values = [v.strip() for v in args.values.split(",") if v.strip()]
            print(sweep(spec, args.axis, values, out)[1])
            return EXIT_OK

        for variant, detail in run_plan(spec, out, args.variant or [spec.variant]).items():
            print(f"{variant}: {json.dumps(detail['ra'], indent=2)}")
        print(f"results -> {out / 'results.csv'}")
        return EXIT_OK
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (StageError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
