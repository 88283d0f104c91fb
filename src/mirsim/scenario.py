"""Scenario configuration: schema, validation, derived quantities, RNG seeding.

Configuration is a flat key/value document (a YAML mapping).  Every key has a
default, a unit, and a documented range; the full table lives in README.md.
All power quantities are kept linear inside the simulator -- dB and dBm appear
only at the config boundary and in emitted reports.

Randomness is reproducible: a single master seed feeds PCG64 generators whose
sub-streams are derived with ``numpy.random.SeedSequence`` spawn keys, one per
module (mobility, per-slot placement search).  Identical seeds give identical
traces and results.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import numpy as np
import yaml

ENV_SEED_VAR = "MIRSIM_SEED"

# SeedSequence spawn-key prefixes for per-module sub-streams.
MOBILITY_STREAM = 0
GA_STREAM = 1


class ConfigError(ValueError):
    """Base class for configuration problems."""


class SchemaError(ConfigError):
    """Document does not match the key/value schema (parse error, unknown key, bad type)."""


class ValidationError(ConfigError):
    """A configuration value violates an invariant; the message names the field."""


def db_to_linear(x_db):
    """Convert dB (or dBm) to a linear ratio (or mW)."""
    if np.ndim(x_db):
        return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x):
    """Convert a linear ratio to dB."""
    return 10.0 * np.log10(x)


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle in meters."""

    x_min: float = 0.0
    y_min: float = 0.0
    x_max: float = 500.0
    y_max: float = 500.0

    def contains(self, x: float, y: float, tol: float = 1e-9) -> bool:
        return (self.x_min - tol <= x <= self.x_max + tol
                and self.y_min - tol <= y <= self.y_max + tol)


@dataclass(frozen=True)
class ChannelParams:
    """mmWave pathloss and reflecting-surface parameters.

    ``a_*`` are dB intercepts, ``b_*`` dimensionless slopes of the
    ``a + 10*b*log10(d)`` pathloss laws.  ``los_model`` selects how the
    line-of-sight probability is computed: "blockage" (human-body model,
    the default) or "sigmoid" (elevation-angle model, provided as an
    alternative only).
    """

    a_los_db: float = 61.4
    b_los: float = 2.0
    a_nlos_db: float = 72.0
    b_nlos: float = 2.92
    carrier_freq_hz: float = 28e9
    irs_elements_per_user: int = 1
    irs_reflection_coeff: float = 1.0
    irs_uav_leg_enabled: bool = False
    los_model: str = "blockage"
    sigmoid_alpha: float = 9.6
    sigmoid_beta: float = 0.28


@dataclass(frozen=True)
class BlockageParams:
    """Human-body blockage model: density (1/m^2), diameter (m), height (m)."""

    blocker_density: float = 0.01
    blocker_diameter: float = 0.4
    blocker_height: float = 1.7


@dataclass(frozen=True)
class PowerParams:
    uav_tx_power_dbm: float = 36.0
    noise_power_dbm: float = -80.0
    snr_threshold_db: float = 20.0
    ftpa_decay: float = 0.28
    # When True, the power split uses the positive-exponent variant in which
    # the stronger channel receives the larger fraction (comparison mode).
    ftpa_favor_strong: bool = False


@dataclass(frozen=True)
class MobilityParams:
    speed_min: float = 0.05
    speed_max: float = 0.25
    pause_duration_s: float = 0.0
    slot_duration_s: float = 300.0
    num_slots: int = 5
    substep_duration_s: float = 1.0
    initial_subregion: Region = field(default_factory=lambda: Region(0.0, 0.0, 50.0, 50.0))


@dataclass(frozen=True)
class GaParams:
    population_size: int = 50
    max_iterations: int = 50
    tournament_size: int = 3
    crossover_prob: float = 0.9
    mutation_prob_per_bit: Optional[float] = None  # None -> 1/genome_length
    bits_per_coordinate: int = 12
    elitism_count: int = 2
    uav_alt_min: float = 100.0
    uav_alt_max: float = 300.0
    irs_height: float = 6.0
    sinr_penalty_weight: float = 10.0
    warm_start: bool = True
    max_slot_displacement: Optional[float] = None  # meters; None disables the limit


@dataclass(frozen=True)
class ScenarioConfig:
    region: Region = field(default_factory=Region)
    num_users: int = 10
    channel: ChannelParams = field(default_factory=ChannelParams)
    blockage: BlockageParams = field(default_factory=BlockageParams)
    power: PowerParams = field(default_factory=PowerParams)
    mobility: MobilityParams = field(default_factory=MobilityParams)
    ga: GaParams = field(default_factory=GaParams)
    s_irs_position: Optional[tuple[float, float]] = None
    master_seed: int = 1
    num_seeds: int = 20


@dataclass(frozen=True)
class DerivedParams:
    """Linear-domain quantities derived from a validated config."""

    rho_linear: float        # transmit SNR, P/noise
    gamma_th_linear: float   # SINR threshold
    noise_linear_mw: float   # noise power in mW


# Flat document schema: key -> (attribute path, kind).
# Kinds: float, int, bool, str, opt_float (None allowed).
_SCHEMA: dict[str, tuple[tuple[str, ...], str]] = {
    "region_x_min": (("region", "x_min"), "float"),
    "region_y_min": (("region", "y_min"), "float"),
    "region_x_max": (("region", "x_max"), "float"),
    "region_y_max": (("region", "y_max"), "float"),
    "num_users": (("num_users",), "int"),
    "los_intercept_db": (("channel", "a_los_db"), "float"),
    "los_slope": (("channel", "b_los"), "float"),
    "nlos_intercept_db": (("channel", "a_nlos_db"), "float"),
    "nlos_slope": (("channel", "b_nlos"), "float"),
    "carrier_freq_hz": (("channel", "carrier_freq_hz"), "float"),
    "irs_elements_per_user": (("channel", "irs_elements_per_user"), "int"),
    "irs_reflection_coeff": (("channel", "irs_reflection_coeff"), "float"),
    "irs_uav_leg_enabled": (("channel", "irs_uav_leg_enabled"), "bool"),
    "los_model": (("channel", "los_model"), "str"),
    "sigmoid_alpha": (("channel", "sigmoid_alpha"), "float"),
    "sigmoid_beta": (("channel", "sigmoid_beta"), "float"),
    "blocker_density_per_m2": (("blockage", "blocker_density"), "float"),
    "blocker_diameter_m": (("blockage", "blocker_diameter"), "float"),
    "blocker_height_m": (("blockage", "blocker_height"), "float"),
    "uav_tx_power_dbm": (("power", "uav_tx_power_dbm"), "float"),
    "noise_power_dbm": (("power", "noise_power_dbm"), "float"),
    "snr_threshold_db": (("power", "snr_threshold_db"), "float"),
    "ftpa_decay": (("power", "ftpa_decay"), "float"),
    "ftpa_favor_strong": (("power", "ftpa_favor_strong"), "bool"),
    "speed_min_mps": (("mobility", "speed_min"), "float"),
    "speed_max_mps": (("mobility", "speed_max"), "float"),
    "pause_duration_s": (("mobility", "pause_duration_s"), "float"),
    "slot_duration_s": (("mobility", "slot_duration_s"), "float"),
    "num_slots": (("mobility", "num_slots"), "int"),
    "substep_duration_s": (("mobility", "substep_duration_s"), "float"),
    "init_x_min": (("mobility", "initial_subregion", "x_min"), "float"),
    "init_y_min": (("mobility", "initial_subregion", "y_min"), "float"),
    "init_x_max": (("mobility", "initial_subregion", "x_max"), "float"),
    "init_y_max": (("mobility", "initial_subregion", "y_max"), "float"),
    "population_size": (("ga", "population_size"), "int"),
    "max_iterations": (("ga", "max_iterations"), "int"),
    "tournament_size": (("ga", "tournament_size"), "int"),
    "crossover_prob": (("ga", "crossover_prob"), "float"),
    "mutation_prob_per_bit": (("ga", "mutation_prob_per_bit"), "opt_float"),
    "bits_per_coordinate": (("ga", "bits_per_coordinate"), "int"),
    "elitism_count": (("ga", "elitism_count"), "int"),
    "uav_alt_min_m": (("ga", "uav_alt_min"), "float"),
    "uav_alt_max_m": (("ga", "uav_alt_max"), "float"),
    "irs_height_m": (("ga", "irs_height"), "float"),
    "sinr_penalty_weight": (("ga", "sinr_penalty_weight"), "float"),
    "warm_start": (("ga", "warm_start"), "bool"),
    "max_slot_displacement_m": (("ga", "max_slot_displacement"), "opt_float"),
    "s_irs_x": (("s_irs_x",), "opt_float"),
    "s_irs_y": (("s_irs_y",), "opt_float"),
    "master_seed": (("master_seed",), "int"),
    "num_seeds": (("num_seeds",), "int"),
}


def _cast(key: str, kind: str, value: Any) -> Any:
    if kind.startswith("opt_") and value is None:
        return None
    base = kind.removeprefix("opt_")
    if base == "bool":
        if isinstance(value, bool):
            return value
        raise SchemaError(f"key {key!r}: expected true/false, got {value!r}")
    if base == "int":
        if isinstance(value, bool):
            raise SchemaError(f"key {key!r}: expected an integer, got {value!r}")
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise SchemaError(f"key {key!r}: expected an integer, got {value!r}")
    if base == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"key {key!r}: expected a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise SchemaError(f"key {key!r}: expected a finite number, got {value!r}")
        return number
    if base == "str":
        if isinstance(value, str):
            return value
        raise SchemaError(f"key {key!r}: expected a string, got {value!r}")
    raise AssertionError(kind)


def config_from_dict(data: dict[str, Any]) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a flat key/value mapping.

    Missing keys take their defaults; unknown keys raise SchemaError.
    """
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise SchemaError("config document must be a key/value mapping")
    nested: dict[str, Any] = {}
    for key, value in data.items():
        if key not in _SCHEMA:
            raise SchemaError(f"unknown config key {key!r}")
        path, kind = _SCHEMA[key]
        node = nested
        for part in path[:-1]:
            node = node.setdefault(part, {})
        node[path[-1]] = _cast(key, kind, value)

    def build(cls, section: dict[str, Any]):
        return cls(**section)

    sub = nested.get("mobility", {}).pop("initial_subregion", None)
    mobility_kwargs = nested.get("mobility", {})
    if sub is not None:
        base = Region(0.0, 0.0, 50.0, 50.0)
        mobility_kwargs["initial_subregion"] = Region(
            sub.get("x_min", base.x_min), sub.get("y_min", base.y_min),
            sub.get("x_max", base.x_max), sub.get("y_max", base.y_max))

    s_irs_x = nested.pop("s_irs_x", None)
    s_irs_y = nested.pop("s_irs_y", None)
    if (s_irs_x is None) != (s_irs_y is None):
        raise ValidationError("s_irs_x/s_irs_y: both must be set or both omitted")
    s_irs = (s_irs_x, s_irs_y) if s_irs_x is not None else None

    cfg = ScenarioConfig(
        region=build(Region, nested.get("region", {})),
        num_users=nested.get("num_users", ScenarioConfig.num_users),
        channel=build(ChannelParams, nested.get("channel", {})),
        blockage=build(BlockageParams, nested.get("blockage", {})),
        power=build(PowerParams, nested.get("power", {})),
        mobility=build(MobilityParams, mobility_kwargs),
        ga=build(GaParams, nested.get("ga", {})),
        s_irs_position=s_irs,
        master_seed=nested.get("master_seed", ScenarioConfig.master_seed),
        num_seeds=nested.get("num_seeds", ScenarioConfig.num_seeds),
    )
    validate(cfg)
    return cfg


def config_to_dict(cfg: ScenarioConfig) -> dict[str, Any]:
    """Flatten a ScenarioConfig back into the document key/value mapping."""
    out: dict[str, Any] = {}
    for key, (path, _kind) in _SCHEMA.items():
        if path[0] == "s_irs_x":
            out[key] = None if cfg.s_irs_position is None else cfg.s_irs_position[0]
        elif path[0] == "s_irs_y":
            out[key] = None if cfg.s_irs_position is None else cfg.s_irs_position[1]
        else:
            node: Any = cfg
            for part in path:
                node = getattr(node, part)
            out[key] = node
    return out


def parse_config(text: str) -> ScenarioConfig:
    """Parse a config document from YAML text."""
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise SchemaError(f"config parse failure{where}: {exc}") from exc
    return config_from_dict(data)


def load_config(path: str | Path) -> ScenarioConfig:
    """Load and validate a config document from a file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SchemaError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def config_to_yaml(cfg: ScenarioConfig) -> str:
    return yaml.safe_dump(config_to_dict(cfg), sort_keys=False, default_flow_style=False)


def save_config(cfg: ScenarioConfig, path: str | Path) -> None:
    Path(path).write_text(config_to_yaml(cfg))


def _check(cond: bool, field_name: str, message: str) -> None:
    if not cond:
        raise ValidationError(f"{field_name}: {message}")


def _linear_is_finite_positive(x_db: float) -> bool:
    try:
        return 0.0 < db_to_linear(x_db) < math.inf
    except OverflowError:
        return False


def validate(cfg: ScenarioConfig) -> None:
    """Check every invariant; raises ValidationError naming the offending field."""
    r = cfg.region
    _check(r.x_max > r.x_min, "region_x_max", "must exceed region_x_min")
    _check(r.y_max > r.y_min, "region_y_max", "must exceed region_y_min")

    _check(cfg.num_users >= 1, "num_users", "must be >= 1")

    ch = cfg.channel
    _check(ch.b_los > 0, "los_slope", "must be > 0")
    _check(ch.b_nlos > 0, "nlos_slope", "must be > 0")
    _check(ch.b_nlos >= ch.b_los, "nlos_slope", "must be >= los_slope")
    _check(ch.carrier_freq_hz > 0, "carrier_freq_hz", "must be > 0")
    _check(ch.irs_elements_per_user >= 1, "irs_elements_per_user", "must be >= 1")
    _check(0.0 <= ch.irs_reflection_coeff <= 1.0, "irs_reflection_coeff", "must be in [0, 1]")
    _check(ch.los_model in ("blockage", "sigmoid"), "los_model",
           "must be 'blockage' or 'sigmoid'")

    b = cfg.blockage
    _check(b.blocker_density > 0, "blocker_density_per_m2", "must be > 0")
    _check(b.blocker_diameter > 0, "blocker_diameter_m", "must be > 0")
    _check(b.blocker_height > 0, "blocker_height_m", "must be > 0")

    p = cfg.power
    _check(_linear_is_finite_positive(p.noise_power_dbm), "noise_power_dbm",
           "linear noise power must be finite and > 0")
    _check(_linear_is_finite_positive(p.uav_tx_power_dbm - p.noise_power_dbm),
           "uav_tx_power_dbm", "linear transmit SNR (over noise_power_dbm) must be "
           "finite and > 0")
    _check(_linear_is_finite_positive(p.snr_threshold_db), "snr_threshold_db",
           "linear threshold must be finite and > 0")
    _check(0.0 <= p.ftpa_decay <= 1.0, "ftpa_decay", "must be in [0, 1]")

    m = cfg.mobility
    _check(0.0 <= m.speed_min <= m.speed_max, "speed_min_mps/speed_max_mps",
           "need 0 <= speed_min <= speed_max")
    _check(m.pause_duration_s >= 0, "pause_duration_s", "must be >= 0")
    _check(m.num_slots >= 1, "num_slots", "must be >= 1")
    _check(m.slot_duration_s > 0, "slot_duration_s", "must be > 0")
    _check(m.substep_duration_s > 0, "substep_duration_s", "must be > 0")
    ratio = m.slot_duration_s / m.substep_duration_s
    _check(abs(ratio - round(ratio)) < 1e-9, "substep_duration_s",
           "must divide slot_duration_s evenly")
    sub = m.initial_subregion
    _check(sub.x_max >= sub.x_min, "init_x_max", "must be >= init_x_min")
    _check(sub.y_max >= sub.y_min, "init_y_max", "must be >= init_y_min")

    g = cfg.ga
    _check(g.population_size >= 2, "population_size", "must be >= 2")
    _check(g.max_iterations >= 1, "max_iterations", "must be >= 1")
    _check(1 <= g.tournament_size <= g.population_size, "tournament_size",
           "must be in [1, population_size]")
    _check(0.0 <= g.crossover_prob <= 1.0, "crossover_prob", "must be in [0, 1]")
    if g.mutation_prob_per_bit is not None:
        _check(0.0 <= g.mutation_prob_per_bit <= 1.0, "mutation_prob_per_bit",
               "must be in [0, 1]")
    _check(g.bits_per_coordinate >= 1, "bits_per_coordinate", "must be >= 1")
    _check(0 <= g.elitism_count < g.population_size, "elitism_count",
           "must be in [0, population_size)")
    _check(g.uav_alt_min >= 100.0, "uav_alt_min_m", "must be >= 100 m (safety floor)")
    _check(g.uav_alt_max >= g.uav_alt_min, "uav_alt_max_m", "must be >= uav_alt_min_m")
    _check(g.irs_height > 0, "irs_height_m", "must be > 0")
    _check(g.sinr_penalty_weight >= 0, "sinr_penalty_weight", "must be >= 0")
    if g.max_slot_displacement is not None:
        _check(g.max_slot_displacement > 0, "max_slot_displacement_m", "must be > 0")
        _check(g.sinr_penalty_weight > 0, "max_slot_displacement_m",
               "needs sinr_penalty_weight > 0, the weight that enforces it")

    if cfg.s_irs_position is not None:
        x, y = cfg.s_irs_position
        _check(r.contains(x, y), "s_irs_x/s_irs_y", "must lie inside the region")

    _check(cfg.master_seed >= 0, "master_seed", "must be >= 0")
    _check(cfg.num_seeds >= 1, "num_seeds", "must be >= 1")


def derive(cfg: ScenarioConfig) -> DerivedParams:
    """Linearize the dB-domain power parameters."""
    p = cfg.power
    return DerivedParams(
        rho_linear=db_to_linear(p.uav_tx_power_dbm - p.noise_power_dbm),
        gamma_th_linear=db_to_linear(p.snr_threshold_db),
        noise_linear_mw=db_to_linear(p.noise_power_dbm),
    )


def seed_sequence(master_seed: int, *key: int) -> np.random.SeedSequence:
    """SeedSequence for a named sub-stream of the master seed."""
    return np.random.SeedSequence(master_seed, spawn_key=tuple(key))


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """PCG64 generator for a named sub-stream of the master seed."""
    return np.random.Generator(np.random.PCG64(seed_sequence(master_seed, *key)))


def resolve_master_seed(cfg: ScenarioConfig, cli_seed: Optional[int] = None,
                        env: Optional[dict] = None) -> int:
    """Master-seed precedence: CLI flag > environment variable > config value."""
    if cli_seed is not None:
        return int(cli_seed)
    env = os.environ if env is None else env
    if ENV_SEED_VAR in env:
        raw = env[ENV_SEED_VAR]
        try:
            return int(raw)
        except ValueError as exc:
            raise SchemaError(f"{ENV_SEED_VAR}: expected an integer, got {raw!r}") from exc
    return cfg.master_seed
