"""Configuration types, presets, and the flat key=value config-file format.

The config file is plain text, one ``section.key = value`` per line,
``#`` starts a comment.  Keys mirror the dataclass fields below; anything
unset falls back to the selected preset.  See docs/config.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path


class ConfigError(ValueError):
    """Invalid or inconsistent configuration input."""


# first zero of the Bessel function J0: the AR(1) fading coefficient
# J0(2 pi doppler_hz tx_cycle_duration) is positive below it
J0_FIRST_ZERO = 2.404825557695773


@dataclass(frozen=True)
class DeploymentConfig:
    """Geometry, radio, and timing of one simulated deployment.

    interferer_set_size is the size of the co-channel set including the
    victim sub-network, so every SA pair sees interferer_set_size - 1
    interfering links per slot (capped by availability).  A TX cycle has
    one TDD slot per SA pair.
    """

    n_subnetworks: int = 16
    sa_pairs_per_sn: int = 4
    area: tuple = (25.0, 25.0)
    sn_radius: float = 2.0
    speed: float = 2.0
    min_distance: float = 3.0
    n_subbands: int = 4
    interferer_set_size: int = 5
    carrier_freq: float = 6e9
    tx_power: float = 1.0
    tx_cycle_duration: float = 1e-3
    schedule_drift: int = -1    # interferer slot misalignment, slots per cycle

    def __post_init__(self):
        if self.sa_pairs_per_sn < 1:
            raise ConfigError("sa_pairs_per_sn must be >= 1")
        if self.n_subbands < 1:
            raise ConfigError("n_subbands must be >= 1")
        if self.interferer_set_size > self.n_subnetworks - 1:
            raise ConfigError("interferer_set_size must be <= n_subnetworks - 1")
        if self.sn_radius <= 0:
            raise ConfigError("sn_radius must be positive")
        if self.min_distance < 0 or self.speed < 0:
            raise ConfigError("min_distance and speed must be non-negative")
        if len(self.area) != 2:
            raise ConfigError(f"area takes exactly two sides, got {self.area}")
        if self.area[0] <= 0 or self.area[1] <= 0:
            raise ConfigError("area sides must be positive")
        if self.tx_cycle_duration <= 0:
            raise ConfigError("tx_cycle_duration must be positive")


@dataclass(frozen=True)
class TrafficModel:
    """Slot-level activity of the interfering sub-networks.

    bernoulli: every SA pair's own slot transmits with probability eta.
    push-pull: the first n_reserved slots belong to fixed pull SA pairs;
    each remaining slot belongs to one push SA pair, which is scheduled
    while it executes a task burst.  Bursts start as a Poisson process of
    `intensity` per second and last a geometric number of cycles with mean
    burst_duration_s.  A Bern(eta) draw gates every scheduled transmission
    on top.
    """

    variant: str = "bernoulli"
    eta: float = 0.85
    intensity: float = 0.0
    n_reserved: int = 0
    burst_duration_s: float = 0.2

    def __post_init__(self):
        if self.variant not in ("bernoulli", "push-pull"):
            raise ConfigError(f"unknown traffic variant {self.variant!r}")
        if not 0.0 < self.eta <= 1.0:
            raise ConfigError("eta must lie in (0, 1]")
        if self.intensity < 0:
            raise ConfigError("intensity must be >= 0")
        if self.n_reserved < 0:
            raise ConfigError("n_reserved must be >= 0")
        if self.burst_duration_s <= 0:
            raise ConfigError("burst_duration_s must be positive")


@dataclass(frozen=True)
class ChannelParams:
    """Large/small-scale channel model knobs (indoor factory defaults).

    soft_los_bias shifts the unit-variance soft-LOS latent so that
    short-range factory links are LOS-dominant (mean weight 0.955 at the
    default 3.5); set it to 0 for a balanced LOS/NLOS mix.

    est_looks is the number of independent fading looks -- frequency bins /
    pilot repetitions within the measurement slot -- averaged into each
    power sample; 1 keeps single-shot fading.
    """

    shadow_std_los_db: float = 4.0
    shadow_std_nlos_db: float = 7.2
    decorrelation_distance: float = 10.0
    doppler_hz: float = 80.0
    rician_k_db: float = 10.0
    soft_los_bias: float = 3.5
    est_looks: int = 8
    bandwidth_hz: float = 100e6
    noise_figure_db: float = 5.0
    # tuned with corr_threshold for a usable window (roughly 4-12 cycles); at
    # 0.1 and 0.9 noise dominates the lagged correlation: a one-cycle window
    est_noise_fraction: float = 0.002
    power_floor_w: float = 1e-20

    def __post_init__(self):
        if self.est_looks < 1:
            raise ConfigError("est_looks must be >= 1")


@dataclass(frozen=True)
class ModelConfig:
    """iQPT predictor hyperparameters, at quantile level 1 - alpha.  The
    pipeline fills n_series and window in from deployment.sa_pairs_per_sn
    and the window rule; a config leaves them None (null when recorded)."""

    n_series: int | None = None
    window: int | None = None
    d_embed: int = 64
    n_heads: int = 8
    n_layers: int = 2
    lstm_hidden: int = 64
    dropout: float = 0.1
    alpha: float = 0.05

    def __post_init__(self):
        if self.d_embed % self.n_heads != 0:
            raise ConfigError("d_embed must be divisible by n_heads")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("model.alpha must lie in (0, 1)")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")


@dataclass(frozen=True)
class TrainConfig:
    """lr_decay is the final/initial learning-rate ratio, applied as a
    geometric per-epoch schedule (1.0 keeps the rate constant)."""

    lr: float = 1e-3
    epochs: int = 200
    batch_size: int = 128
    lr_decay: float = 1.0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if not (self.lr > 0 and self.lr_decay > 0):
            raise ConfigError("lr and lr_decay must be positive")


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything one pipeline run needs; seed drives both the simulation
    and the training."""

    deployment: DeploymentConfig = field(default_factory=DeploymentConfig)
    traffic: TrafficModel = field(default_factory=TrafficModel)
    channel: ChannelParams = field(default_factory=ChannelParams)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    variant: str = "cevt-iqpt"
    mobility: str = "rdmm"
    n_cycles: int = 10000
    n_cal: int = 1000
    n_test: int = 2000
    corr_threshold: float = 0.4     # see ChannelParams.est_noise_fraction
    max_lag: int = 16
    beta: float = 0.05
    varsigma: float = 0.5
    payload_bits: int = 200
    eps_targets: tuple = (1e-5, 1e-6, 1e-7)
    seed: int = 0

    VARIANTS = ("genie", "moving-average", "wiener", "iqpt", "iqpt-split",
                "evt-iqpt", "cevt-iqpt", "cevt-iqpt-split")

    def __post_init__(self):
        if self.variant not in self.VARIANTS:
            raise ConfigError(f"unknown predictor variant {self.variant!r}")
        if self.mobility not in ("rdmm", "alley"):
            raise ConfigError(f"unknown mobility model {self.mobility!r}")
        for name in ("beta", "varsigma"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ConfigError(f"{name} must lie in (0, 1]")
        if self.n_cycles < 1 or self.max_lag < 1:
            raise ConfigError("n_cycles and max_lag must be >= 1")
        # split conformal certifies 1 - beta only if the calibration block
        # has the order statistic tailcal.finite_sample_quantile reads
        if (self.beta == 1.0
                or math.ceil((self.n_cal + 1) * (1.0 - self.beta)) > self.n_cal):
            raise ConfigError(
                f"beta = {self.beta:g} must lie in [1/(n_cal + 1), 1) = "
                f"[{1.0 / (self.n_cal + 1):.3g}, 1) for n_cal = {self.n_cal}")
        if self.n_test < 1:
            raise ConfigError("n_test must be >= 1")
        if not self.eps_targets:
            raise ConfigError("eps_targets must not be empty")
        if not all(0.0 < eps <= 0.5 for eps in self.eps_targets):
            raise ConfigError(f"eps_targets {self.eps_targets} must lie in (0, 0.5]")
        if (self.traffic.variant == "push-pull"
                and self.traffic.n_reserved >= self.deployment.sa_pairs_per_sn):
            raise ConfigError(
                f"push-pull traffic.n_reserved ({self.traffic.n_reserved}) must be "
                f"below deployment.sa_pairs_per_sn "
                f"({self.deployment.sa_pairs_per_sn}), so that push pairs remain")
        if (self.traffic.variant == "push-pull" and self.traffic.intensity == 0
                and self.traffic.n_reserved == 0):
            raise ConfigError(
                "push-pull traffic with traffic.intensity = 0 and traffic.n_reserved "
                "= 0 never transmits: no push burst starts and no pull pair exists")
        x = 2.0 * math.pi * self.channel.doppler_hz * self.deployment.tx_cycle_duration
        if not 0.0 <= x < J0_FIRST_ZERO:
            raise ConfigError(
                f"2 pi channel.doppler_hz deployment.tx_cycle_duration = {x:.4g} must "
                f"lie in [0, {J0_FIRST_ZERO:.4f}), below the first zero of J0, "
                f"where the AR(1) fading coefficient J0(x) is positive")


def desk_preset(seed):
    """Laptop-scale preset, the field defaults: minutes, >= 2000 test instances."""
    return ExperimentSpec(seed=seed)


def paper_preset(seed):
    """Full-scale preset (slow): 300 epochs, 256-wide model, 10k+ cycles."""
    spec = desk_preset(seed)
    return replace(spec,
                   model=replace(spec.model, d_embed=256, lstm_hidden=256),
                   train=replace(spec.train, epochs=300),
                   n_cycles=10050)


def tiny_preset(seed):
    """Smoke-test preset for protocol and gradient checks."""
    spec = desk_preset(seed)
    return replace(spec,
                   deployment=replace(spec.deployment, n_subnetworks=6,
                                      interferer_set_size=3),
                   model=replace(spec.model, d_embed=16, lstm_hidden=16,
                                 n_heads=4, dropout=0.0),
                   train=replace(spec.train, epochs=2, batch_size=32),
                   n_cycles=700, n_cal=100, n_test=200)


PRESETS = {"desk": desk_preset, "paper": paper_preset, "tiny": tiny_preset}

_SECTIONS = ("deployment", "traffic", "channel", "model", "train")

_SPEC_KEYS = {f.name for f in fields(ExperimentSpec)} - set(_SECTIONS)

# ModelConfig fields the pipeline sets itself; a value given here would be
# dropped without effect, so the parser names the key that sets it instead
_WIRED_KEYS = {
    "model.n_series": "set deployment.sa_pairs_per_sn",
    "model.window": "the window rule sets it (corr_threshold, max_lag)",
}


def _coerce(key, raw, kind):
    try:
        if kind is tuple:
            return tuple(float(tok) for tok in raw.replace(",", " ").split())
        if kind is str:
            return raw
        return kind(raw)
    except ValueError as err:
        raise ConfigError(f"{key} = {raw!r} is not a valid "
                          f"{kind.__name__}") from err


def parse_config_text(text, preset="desk", seed=None):
    """Parse ``section.key = value`` lines on top of a preset."""
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}")
    spec = PRESETS[preset](0)
    overrides = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, raw = (tok.strip() for tok in line.split("=", 1))
        overrides[key] = raw

    # every value is coerced to the type of the value it replaces
    section_updates = {name: {} for name in _SECTIONS}
    spec_updates = {}
    for key, raw in overrides.items():
        if key in _WIRED_KEYS:
            raise ConfigError(f"{key!r} is set by the pipeline: {_WIRED_KEYS[key]}")
        if "." in key:
            section, attr = key.split(".", 1)
            if section not in _SECTIONS:
                raise ConfigError(f"unknown config section {section!r}")
            current = getattr(spec, section)
            if attr not in {f.name for f in fields(current)}:
                raise ConfigError(f"unknown key {key!r}")
            section_updates[section][attr] = _coerce(
                key, raw, type(getattr(current, attr)))
        else:
            if key not in _SPEC_KEYS:
                raise ConfigError(f"unknown key {key!r}")
            spec_updates[key] = _coerce(key, raw, type(getattr(spec, key)))
    for name, updates in section_updates.items():
        if updates:
            spec_updates[name] = replace(getattr(spec, name), **updates)
    spec = replace(spec, **spec_updates)
    if seed is not None:        # the --seed flag wins over a file value
        spec = replace(spec, seed=seed)
    return spec


def load_config(path, preset="desk", seed=None):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:                  # the message names the path
        raise ConfigError(f"cannot read config file: {err}") from err
    except UnicodeDecodeError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    return parse_config_text(text, preset=preset, seed=seed)


def spec_to_dict(spec):
    """JSON-ready nested dict (used for sidecars and run manifests)."""
    def enc(obj):
        if hasattr(obj, "__dataclass_fields__"):
            return {f.name: enc(getattr(obj, f.name)) for f in fields(obj)}
        if isinstance(obj, tuple):
            return list(obj)
        return obj
    return enc(spec)
