"""Configuration types, presets, and the flat key=value config-file format.

The config file is plain text, one ``section.key = value`` per line,
``#`` starts a comment.  Keys mirror the dataclass fields below; anything
unset falls back to the selected preset.  A numeric field's valid range
sits beside its default (``metadata=POSITIVE``, ...), and check_ranges
tests them all.  See docs/config.md.
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

# least distance of the alley circuits from the area border, meters
ALLEY_MIN_MARGIN = 5.0


# valid ranges of numeric fields, as field metadata; NaN lies in none, since
# every test is a comparison or math.isfinite
FINITE = {"range": ("finite", math.isfinite)}
INTEGER = {"range": ("an integer", lambda v: isinstance(v, int))}
POSITIVE = {"range": ("in (0, inf)", lambda v: 0 < v < math.inf)}
NON_NEGATIVE = {"range": ("in [0, inf)", lambda v: 0 <= v < math.inf)}
AT_LEAST_1 = {"range": (">= 1", lambda v: v >= 1)}
AT_LEAST_2 = {"range": (">= 2", lambda v: v >= 2)}
FRACTION = {"range": ("in (0, 1]", lambda v: 0 < v <= 1)}
LEVEL = {"range": ("in (0, 1)", lambda v: 0 < v < 1)}
RATE = {"range": ("in [0, 1)", lambda v: 0 <= v < 1)}


def check_ranges(config):
    """Raise ConfigError naming the first field of the dataclass config, and
    its value, that lies outside the range its metadata declares."""
    for f in fields(config):
        if "range" in f.metadata:
            text, test = f.metadata["range"]
            value = getattr(config, f.name)
            if not test(value):
                raise ConfigError(f"{f.name} = {value!r} must be {text}")


@dataclass(frozen=True)
class DeploymentConfig:
    """Geometry, radio, and timing of one simulated deployment.

    Sub-bands go round-robin over the sub-networks, and every other
    sub-network on the victim's sub-band interferes with it, so every SA
    pair sees ceil(n_subnetworks / n_subbands) - 1 interfering links per
    slot; n_subnetworks > n_subbands puts at least one there.  A TX cycle
    has one TDD slot per SA pair.
    """

    n_subnetworks: int = field(default=16, metadata=AT_LEAST_2)
    sa_pairs_per_sn: int = field(default=4, metadata=AT_LEAST_1)
    area: tuple = (25.0, 25.0)
    sn_radius: float = field(default=2.0, metadata=POSITIVE)
    speed: float = field(default=2.0, metadata=NON_NEGATIVE)
    min_distance: float = field(default=3.0, metadata=NON_NEGATIVE)
    n_subbands: int = field(default=4, metadata=AT_LEAST_1)
    carrier_freq: float = field(default=6e9, metadata=POSITIVE)
    tx_power: float = field(default=1.0, metadata=POSITIVE)
    tx_cycle_duration: float = field(default=1e-3, metadata=POSITIVE)
    # interferer slot misalignment, slots per cycle
    schedule_drift: int = field(default=-1, metadata=INTEGER)

    def __post_init__(self):
        check_ranges(self)
        if self.n_subnetworks <= self.n_subbands:
            raise ConfigError(
                f"n_subnetworks = {self.n_subnetworks} must be > n_subbands = "
                f"{self.n_subbands}, so that the victim's sub-band holds "
                f"another sub-network")
        if len(self.area) != 2:
            raise ConfigError(f"area takes exactly two sides, got {self.area}")
        if not all(0 < side < math.inf for side in self.area):
            raise ConfigError(f"area sides {self.area} must be positive and finite")
        # rdmm keeps each center sn_radius inside the area
        if not min(self.area) > 2.0 * self.sn_radius:
            raise ConfigError(f"both area sides {self.area} must exceed 2 sn_radius "
                              f"= {2.0 * self.sn_radius:g}")

    @property
    def alley_margin(self):
        """Distance from the area border to the alley circuits, meters."""
        return max(2.0 * self.sn_radius, ALLEY_MIN_MARGIN)


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
    eta: float = field(default=0.85, metadata=FRACTION)
    intensity: float = field(default=5.0, metadata=NON_NEGATIVE)
    n_reserved: int = field(default=2, metadata=NON_NEGATIVE)
    burst_duration_s: float = field(default=0.2, metadata=POSITIVE)

    def __post_init__(self):
        check_ranges(self)
        if self.variant not in ("bernoulli", "push-pull"):
            raise ConfigError(f"unknown traffic variant {self.variant!r}")


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

    shadow_std_los_db: float = field(default=4.0, metadata=NON_NEGATIVE)
    shadow_std_nlos_db: float = field(default=7.2, metadata=NON_NEGATIVE)
    decorrelation_distance: float = field(default=10.0, metadata=POSITIVE)
    doppler_hz: float = field(default=80.0, metadata=NON_NEGATIVE)
    rician_k_db: float = field(default=10.0, metadata=FINITE)
    soft_los_bias: float = field(default=3.5, metadata=FINITE)
    est_looks: int = field(default=8, metadata=AT_LEAST_1)
    bandwidth_hz: float = field(default=100e6, metadata=POSITIVE)
    noise_figure_db: float = field(default=5.0, metadata=FINITE)
    # a free choice: +-0.02 dB estimation error at 0.002 (5th-95th
    # percentile of est - true, desk seed 7)
    est_noise_fraction: float = field(default=0.002, metadata=NON_NEGATIVE)
    power_floor_w: float = field(default=1e-20, metadata=POSITIVE)

    def __post_init__(self):
        check_ranges(self)


@dataclass(frozen=True)
class ModelConfig:
    """iQPT predictor hyperparameters, at quantile level 1 - alpha, on
    windows of the last `window` cycles.  The pipeline fills n_series in
    from deployment.sa_pairs_per_sn; a config leaves it None (null when
    recorded)."""

    n_series: int | None = None
    window: int = field(default=16, metadata=AT_LEAST_1)
    d_embed: int = field(default=64, metadata=AT_LEAST_1)
    n_heads: int = field(default=8, metadata=AT_LEAST_1)
    n_layers: int = field(default=2, metadata=NON_NEGATIVE)
    lstm_hidden: int = field(default=64, metadata=AT_LEAST_1)
    dropout: float = field(default=0.1, metadata=RATE)
    alpha: float = field(default=0.05, metadata=LEVEL)

    def __post_init__(self):
        check_ranges(self)
        if self.d_embed % self.n_heads != 0:
            raise ConfigError("d_embed must be divisible by n_heads")


@dataclass(frozen=True)
class TrainConfig:
    """lr_decay is the final/initial learning-rate ratio, applied as a
    geometric per-epoch schedule (1.0 keeps the rate constant)."""

    lr: float = field(default=1e-3, metadata=POSITIVE)
    epochs: int = field(default=200, metadata=NON_NEGATIVE)
    batch_size: int = field(default=128, metadata=AT_LEAST_1)
    lr_decay: float = field(default=1.0, metadata=POSITIVE)

    def __post_init__(self):
        check_ranges(self)


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
    n_cycles: int = field(default=10000, metadata=AT_LEAST_1)
    n_cal: int = field(default=1000, metadata=AT_LEAST_1)
    n_test: int = field(default=2000, metadata=AT_LEAST_1)
    beta: float = field(default=0.05, metadata=FRACTION)
    varsigma: float = field(default=0.5, metadata=FRACTION)
    payload_bits: int = field(default=200, metadata=AT_LEAST_1)
    eps_targets: tuple = (1e-5, 1e-6, 1e-7)
    seed: int = field(default=0, metadata=NON_NEGATIVE)

    # predictor variant: (protocol that trains its model, None for none;
    # read-out).  threshold is the model's quantile, gpd adds the tail fit's
    # margin and conformal is tailcal.calibrated_quantile
    VARIANTS = {
        "genie": (None, "genie"),
        "moving-average": (None, "moving-average"),
        "wiener": (None, "wiener"),
        "iqpt": ("central", "threshold"),
        "iqpt-split": ("split", "threshold"),
        "evt-iqpt": ("central", "gpd"),
        "cevt-iqpt": ("central", "conformal"),
        "cevt-iqpt-split": ("split", "conformal"),
    }

    def __post_init__(self):
        check_ranges(self)
        if self.variant not in self.VARIANTS:
            raise ConfigError(f"unknown predictor variant {self.variant!r}")
        if self.mobility not in ("rdmm", "alley"):
            raise ConfigError(f"unknown mobility model {self.mobility!r}")
        margin = self.deployment.alley_margin
        if self.mobility == "alley" and not min(self.deployment.area) > 2.0 * margin:
            raise ConfigError(
                f"mobility = alley keeps its circuits max(2 deployment.sn_radius, "
                f"{ALLEY_MIN_MARGIN:g}) = {margin:g} m inside deployment.area, so "
                f"both sides of {self.deployment.area} must exceed {2.0 * margin:g}")
        # split conformal certifies 1 - beta only if the calibration block
        # has the order statistic tailcal.finite_sample_quantile reads
        if (self.beta == 1.0
                or math.ceil((self.n_cal + 1) * (1.0 - self.beta)) > self.n_cal):
            raise ConfigError(
                f"beta = {self.beta:g} must lie in [1/(n_cal + 1), 1) = "
                f"[{1.0 / (self.n_cal + 1):.3g}, 1) for n_cal = {self.n_cal}")
        # the trace leaves n_cycles - window instances, and
        # windowing.restructure needs n_cal + n_test + 1 of them
        least = self.model.window + self.n_cal + self.n_test + 1
        if self.n_cycles < least:
            raise ConfigError(
                f"n_cycles = {self.n_cycles} must be >= model.window + n_cal + "
                f"n_test + 1 = {least}: the trace is too short for the "
                f"calibration and test partitions and one training instance")
        if not self.eps_targets:
            raise ConfigError("eps_targets must not be empty")
        if not all(0.0 < eps <= 0.5 for eps in self.eps_targets):
            raise ConfigError(f"eps_targets {self.eps_targets} must lie in (0, 0.5]")
        repeated = sorted({eps for eps in self.eps_targets
                           if self.eps_targets.count(eps) > 1})
        if repeated:
            raise ConfigError(f"eps_targets lists {repeated} more than once")
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
        if not x < J0_FIRST_ZERO:
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
                   deployment=replace(spec.deployment, n_subnetworks=6),
                   model=replace(spec.model, d_embed=16, lstm_hidden=16,
                                 n_heads=4, dropout=0.0),
                   train=replace(spec.train, epochs=2, batch_size=32),
                   n_cycles=700, n_cal=100, n_test=200)


PRESETS = {"desk": desk_preset, "paper": paper_preset, "tiny": tiny_preset}

_SECTIONS = ("deployment", "traffic", "channel", "model", "train")

_SPEC_KEYS = {f.name for f in fields(ExperimentSpec)} - set(_SECTIONS)

# ModelConfig fields the pipeline sets itself; a value given here would be
# dropped without effect, so the parser names the key that sets it instead
_WIRED_KEYS = {"model.n_series": "set deployment.sa_pairs_per_sn"}


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


def parse_config_text(text, preset, seed):
    """Parse ``section.key = value`` lines on top of a preset; a seed that is
    not None overrides the file's."""
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}")
    spec = PRESETS[preset](0)
    overrides, linenos = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, raw = (tok.strip() for tok in line.split("=", 1))
        if key in overrides:
            raise ConfigError(f"{key!r} is set twice, on lines {linenos[key]} "
                              f"and {lineno}")
        overrides[key], linenos[key] = raw, lineno

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


def load_config(path, preset, seed):
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
