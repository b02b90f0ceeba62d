"""Which program functions are wrapped, and the per-layer metrics they give.

Every public function below is rebound in the module the program calls it
through (see tracer.py).  The end-to-end runs install only COARSE, a
handful of calls per unit of work; the traced run installs every target.
"""

from __future__ import annotations

import os

import numpy as np
from subnetpred.model import network
from subnetpred.split import partition_workloads

from tracer import arg

# ----------------------------------------------------------------- hooks


def _cycles(tr, args, kwargs, result, dt):
    tr.count("scenario.cycles", arg(args, kwargs, 3, "n_cycles"))


def _instances(tr, args, kwargs, result, dt):
    tr.count("windowing.instances", result.inputs.shape[0])


def _train(tr, args, kwargs, result, dt):
    x, train_cfg = arg(args, kwargs, 1, "x"), arg(args, kwargs, 3, "train_cfg")
    tr.count("model.train.instances", x.shape[0] * train_cfg.epochs)


def _forward(tr, args, kwargs, result, dt):
    cfg, x = arg(args, kwargs, 1, "cfg"), arg(args, kwargs, 2, "x")
    tr.count("model.forward.flops", x.shape[0] * network.forward_flops(cfg))


def _predict(tr, args, kwargs, result, dt):
    if arg(args, kwargs, 2, "x").shape[0] == 1:
        tr.count("model.predict.batch1_calls")
        tr.count("model.predict.batch1_s", dt)


def _wiener(tr, args, kwargs, result, dt):
    tr.count("model.baselines.wiener.points", len(arg(args, kwargs, 1, "t_indices")))


def _split_train(tr, args, kwargs, result, dt):
    part, x = arg(args, kwargs, 0, "part"), arg(args, kwargs, 1, "x")
    train_cfg = arg(args, kwargs, 3, "train_cfg")
    tr.count("split.instances", x.shape[0] * train_cfg.epochs)
    tr.capture("split.cfg", part.cfg)


def _send(tr, args, kwargs, result, dt):
    tr.count("split.messages")
    tr.count("split.bits", arg(args, kwargs, 1, "message").payload_bits)


def _gpd_fit(tr, args, kwargs, result, dt):
    tr.count("tailcal.gpd_fit.fallbacks", int(result.fallback))


def _exceedances(tr, args, kwargs, result, dt):
    tr.count("tailcal.exceedances", sum(e.size for e in result))
    tr.count("tailcal.exceedance_slots", np.size(arg(args, kwargs, 0, "labels")))


def _trace_csv(tr, args, kwargs, result, dt):
    tr.count("pipeline.trace_csv.bytes", os.path.getsize(arg(args, kwargs, 1, "path")))


def _capture(key):
    def hook(tr, args, kwargs, result, dt):
        tr.capture((tr.context, key), result)
    return hook


def _train_name(args, kwargs):
    split = arg(args, kwargs, 3, "split_mode", False)
    return "pipeline.stage.train_split" if split else "pipeline.stage.train"


P = "subnetpred."
COARSE = [
    (P + "scenario.simulate", "simulate_trace", "scenario.simulate_trace", _cycles),
    (P + "pipeline", "train", "model.train", _train),
    (P + "pipeline", "split_train", "split.train", _split_train),
    (P + "pipeline", "stage_simulate", "pipeline.stage.simulate", _capture("trace")),
    (P + "pipeline", "stage_prepare", "pipeline.stage.prepare", _capture("dataset")),
    (P + "pipeline", "stage_train", _train_name, _capture("model")),
    (P + "pipeline", "stage_calibrate", "pipeline.stage.calibrate",
     _capture("calibrated")),
]

FINE = [
    (P + "scenario.simulate", "step_mobility", "scenario.step_mobility", None),
    (P + "scenario.channel", "Ar1Field.advance", "scenario.channel_advance", None),
    (P + "scenario.channel", "ComplexAr1.advance", "scenario.channel_advance", None),
    (P + "scenario.traffic", "TrafficProcess.step", "scenario.traffic", None),
    (P + "scenario.traffic", "TrafficProcess.sample_own_slots", "scenario.traffic",
     None),
    (P + "scenario.channel", "pathloss_inf_db", "scenario.pathloss", None),
    (P + "scenario.channel", "channel_gain", "scenario.channel_gain", None),
    (P + "windowing", "stationary_interval", "windowing.stationary_interval", None),
    (P + "windowing", "restructure", "windowing.restructure", _instances),
    (P + "windowing", "normalize", "windowing.normalize", None),
    (P + "windowing", "save_dataset", "windowing.dataset_io", None),
    (P + "windowing", "load_dataset", "windowing.dataset_io", None),
    (P + "model.train", "forward", "model.forward", _forward),
    (P + "model.network", "forward", "model.forward", _forward),
    (P + "model.train", "backward", "model.backward", None),
    (P + "model.train", "pinball_loss", "model.losses", None),
    (P + "model.train", "pinball_grad", "model.losses", None),
    (P + "split.runtime", "pinball_loss", "model.losses", None),
    (P + "model.optim", "Adam.step", "model.optim.adam", None),
    (P + "model.optim", "DropoutMasks.mask", "model.optim.dropout", None),
    (P + "model.network", "predict", "model.predict", _predict),
    (P + "model.baselines", "wiener_predict", "model.baselines.wiener", _wiener),
    (P + "model.baselines", "moving_average_predict",
     "model.baselines.moving_average", None),
    (P + "split.messages", "InProcessChannel.send", "split.send", _send),
    (P + "tailcal", "gpd_fit", "tailcal.gpd_fit", _gpd_fit),
    (P + "tailcal", "collect_exceedances", "tailcal.collect_exceedances",
     _exceedances),
    (P + "tailcal", "conformity_scores", "tailcal.conformity_scores", None),
    (P + "tailcal", "calibrated_quantile", "tailcal.calibrated_quantile", None),
    (P + "ra", "evaluate_ra", "ra.evaluate_ra", None),
    (P + "ra", "blocklength", "ra.blocklength", None),
    (P + "scenario.simulate", "write_trace_csv", "pipeline.trace_csv", _trace_csv),
    (P + "pipeline", "stage_evaluate", "pipeline.stage.evaluate", None),
] + [(P + "model.layers", f"{layer}_{phase}", f"model.layers.{layer}_{phase}", None)
     for layer in ("embed", "attention", "layer_norm", "lstm", "head")
     for phase in ("forward", "backward")]

# stage span -> the span that shows the stage did its work (a cache miss)
STAGE_WORK = {
    "pipeline.stage.simulate": "scenario.simulate_trace",
    "pipeline.stage.prepare": "windowing.restructure",
    "pipeline.stage.train": "model.train",
    "pipeline.stage.train_split": "split.train",
    "pipeline.stage.calibrate": "tailcal.gpd_fit",
}

# per-layer metric -> (unit, "s" total seconds | "self_s" | "calls" | "us" mean
# microseconds per call, span name); totals are per unit of work
SPAN_METRICS = {
    "scenario.simulate_trace.s": ("s", "s", "scenario.simulate_trace"),
    "scenario.simulate_trace.self_s": ("s", "self_s", "scenario.simulate_trace"),
    "scenario.step_mobility.s": ("s", "s", "scenario.step_mobility"),
    "scenario.step_mobility.calls": ("count", "calls", "scenario.step_mobility"),
    "scenario.channel_advance.s": ("s", "s", "scenario.channel_advance"),
    "scenario.traffic.s": ("s", "s", "scenario.traffic"),
    "scenario.pathloss.s": ("s", "s", "scenario.pathloss"),
    "scenario.channel_gain.s": ("s", "s", "scenario.channel_gain"),
    "windowing.stationary_interval.s": ("s", "s", "windowing.stationary_interval"),
    "windowing.restructure.s": ("s", "s", "windowing.restructure"),
    "windowing.normalize.s": ("s", "s", "windowing.normalize"),
    "windowing.dataset_io.s": ("s", "s", "windowing.dataset_io"),
    "model.train.s": ("s", "s", "model.train"),
    "model.forward.s": ("s", "s", "model.forward"),
    "model.backward.s": ("s", "s", "model.backward"),
    **{f"model.layers.{layer}_{phase}.s": ("s", "s", f"model.layers.{layer}_{phase}")
       for layer in ("embed", "attention", "layer_norm", "lstm", "head")
       for phase in ("forward", "backward")},
    "model.losses.s": ("s", "s", "model.losses"),
    "model.optim.adam.s": ("s", "s", "model.optim.adam"),
    "model.optim.dropout.s": ("s", "s", "model.optim.dropout"),
    "model.predict.s": ("s", "s", "model.predict"),
    "model.baselines.wiener.s": ("s", "s", "model.baselines.wiener"),
    "model.baselines.moving_average.s": ("s", "s", "model.baselines.moving_average"),
    "split.train.s": ("s", "s", "split.train"),
    "tailcal.gpd_fit.s": ("s", "s", "tailcal.gpd_fit"),
    "tailcal.gpd_fit.calls": ("count", "calls", "tailcal.gpd_fit"),
    "tailcal.conformity_scores.s": ("s", "s", "tailcal.conformity_scores"),
    "tailcal.calibrated_quantile.us": ("us", "us", "tailcal.calibrated_quantile"),
    "ra.evaluate_ra.s": ("s", "s", "ra.evaluate_ra"),
    "ra.blocklength.us": ("us", "us", "ra.blocklength"),
    "ra.blocklength.calls": ("count", "calls", "ra.blocklength"),
    **{f"pipeline.stage.{st}.s": ("s", "s", f"pipeline.stage.{st}")
       for st in ("simulate", "prepare", "train", "train_split", "calibrate",
                  "evaluate")},
    "pipeline.trace_csv.s": ("s", "s", "pipeline.trace_csv"),
}

# per-layer metrics derived from counters and other metrics
DERIVED_UNITS = {
    "scenario.cycles": "count",
    "scenario.sim_cycles_per_s": "1/s",
    "windowing.instances": "count",
    "model.train.instances_per_s": "1/s",
    "model.forward.gflops": "computed-GFLOP/s",
    "model.predict.batch1_us": "us",
    "model.baselines.wiener.points": "count",
    "split.vs_central_ratio": "ratio",
    "split.messages": "count",
    "split.bits": "bit",
    "split.bits_per_instance": "bit",
    "split.model_bits_ratio": "ratio",
    "split.param_max_rel_diff": "ratio",
    "tailcal.gpd_fit.fallback_frac": "fraction",
    "tailcal.exceedance_frac": "fraction",
    "pipeline.trace_csv.bytes": "byte",
    "pipeline.cache_hit_frac": "fraction",
    "ra.overhead": "ratio",
    "trace.coverage": "fraction",
    "trace.overhead_frac": "fraction",
}

UNITS = {**{k: v[0] for k, v in SPAN_METRICS.items()}, **DERIVED_UNITS}


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def per_layer(tracer, units, unit_wall_s):
    """Per-layer metrics over the traced units, per unit of work.

    units: ids of the traced units; unit_wall_s: their summed wall time.
    Layers a workload does not exercise report 0.
    """
    a = tracer.arrays()
    sel = np.isin(a["unit"], list(units))
    n_units = max(len(units), 1)
    n_names = len(tracer.names)
    calls = np.bincount(a["name"][sel], minlength=n_names)
    total = np.bincount(a["name"][sel], weights=a["dur"][sel], minlength=n_names)
    own = np.bincount(a["name"][sel], weights=a["self"][sel], minlength=n_names)
    ids = {name: i for i, name in enumerate(tracer.names)}

    def get(kind, name):
        i = ids.get(name)
        if i is None:
            return 0.0
        if kind == "calls":
            return float(calls[i]) / n_units
        if kind == "us":
            return _ratio(total[i] * 1e6, calls[i])
        return float((own if kind == "self_s" else total)[i]) / n_units

    out = {name: get(kind, span) for name, (_, kind, span) in SPAN_METRICS.items()}
    c = tracer.counters
    out["scenario.cycles"] = c.get("scenario.cycles", 0) / n_units
    out["windowing.instances"] = c.get("windowing.instances", 0) / n_units
    out["model.train.instances_per_s"] = _ratio(c.get("model.train.instances", 0),
                                                out["model.train.s"] * n_units)
    out["model.forward.gflops"] = _ratio(c.get("model.forward.flops", 0) / 1e9,
                                         out["model.forward.s"] * n_units)
    out["model.predict.batch1_us"] = _ratio(c.get("model.predict.batch1_s", 0) * 1e6,
                                            c.get("model.predict.batch1_calls", 0))
    out["model.baselines.wiener.points"] = \
        c.get("model.baselines.wiener.points", 0) / n_units
    out["split.vs_central_ratio"] = _ratio(out["split.train.s"], out["model.train.s"])
    out["split.messages"] = c.get("split.messages", 0) / n_units
    out["split.bits"] = c.get("split.bits", 0) / n_units
    out["split.bits_per_instance"] = _ratio(c.get("split.bits", 0),
                                            c.get("split.instances", 0))
    split_cfg = tracer.captures.get("split.cfg")
    out["split.model_bits_ratio"] = 0.0
    if split_cfg is not None:
        w = partition_workloads(split_cfg)
        analytic = split_cfg.n_series * (w["up_bits"] + w["down_bits"])
        out["split.model_bits_ratio"] = _ratio(out["split.bits_per_instance"], analytic)
    out["tailcal.gpd_fit.fallback_frac"] = _ratio(
        c.get("tailcal.gpd_fit.fallbacks", 0), out["tailcal.gpd_fit.calls"] * n_units)
    out["tailcal.exceedance_frac"] = _ratio(c.get("tailcal.exceedances", 0),
                                            c.get("tailcal.exceedance_slots", 0))
    out["pipeline.trace_csv.bytes"] = c.get("pipeline.trace_csv.bytes", 0) / n_units
    stage_calls = hits = 0
    for stage, work in STAGE_WORK.items():
        if stage not in ids:
            continue
        idx = np.flatnonzero(sel & (a["name"] == ids[stage]))
        misses = tracer.has_ancestor(work, stage)
        stage_calls += idx.size
        hits += sum(1 for i in idx if i not in misses)
    out["pipeline.cache_hit_frac"] = _ratio(hits, stage_calls)
    top = sel & (a["parent"] < 0)
    out["trace.coverage"] = _ratio(a["dur"][top].sum(), unit_wall_s)
    return out
