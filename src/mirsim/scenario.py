"""Scenario configuration: schema, validation, size caps, RNG seeding.

Configuration is a flat key/value document (a YAML mapping).  The fields of
``ScenarioConfig`` are the schema: each field is named as its document key,
and its type annotation and default are the only declaration of that key's
kind and default.  Units and ranges are documented in README.md.  All power
quantities are kept linear inside the simulator -- dB and dBm appear only in
the config, which the layers linearize where they read it (``db_to_linear``),
and in emitted reports.  ``validate`` also caps the problem size, so an
oversized run is refused before it allocates anything.

Randomness is reproducible: a single master seed feeds PCG64 generators whose
sub-streams are derived with ``numpy.random.SeedSequence`` spawn keys, one per
module (mobility, per-slot placement search).  Identical seeds give identical
traces and results.
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import numpy as np
import yaml

ENV_SEED_VAR = "MIRSIM_SEED"

# Most seeds one run averages (num_seeds, --seeds).
MAX_SEEDS = 10**4
# Most trace entries, num_users x num_slots (config or trace CSV).
MAX_TRACE_ROWS = 10**5

# SeedSequence spawn-key prefixes for per-module sub-streams.
MOBILITY_STREAM = 0
GA_STREAM = 1


class ConfigError(ValueError):
    """A configuration, seed or input file problem; the message names the key or file."""


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

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def contains(self, x: float, y: float, tol: float = 1e-9) -> bool:
        return (self.x_min - tol <= x <= self.x_max + tol
                and self.y_min - tol <= y <= self.y_max + tol)


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario.  Each field is the document key of the same name, in
    document order; its annotation and default are the key's kind and default."""

    # Region (m)
    region_x_min: float = 0.0
    region_y_min: float = 0.0
    region_x_max: float = 500.0
    region_y_max: float = 500.0
    num_users: int = 10
    # mmWave pathloss laws a + 10*b*log10(d): dB intercepts, dimensionless slopes
    los_intercept_db: float = 61.4
    los_slope: float = 2.0
    nlos_intercept_db: float = 72.0
    nlos_slope: float = 2.92
    irs_elements_per_user: int = 1
    irs_reflection_coeff: float = 1.0
    irs_uav_leg_enabled: bool = False
    # "blockage" (human-body model) or "sigmoid" (elevation-angle alternative)
    los_model: str = "blockage"
    sigmoid_alpha: float = 9.6
    sigmoid_beta: float = 0.28
    blocker_density_per_m2: float = 0.01
    blocker_diameter_m: float = 0.4
    blocker_height_m: float = 1.7
    # Power and access
    uav_tx_power_dbm: float = 36.0
    noise_power_dbm: float = -80.0
    snr_threshold_db: float = 20.0
    ftpa_decay: float = 0.28
    # True: the stronger channel receives the larger power fraction (comparison mode)
    ftpa_favor_strong: bool = False
    # Random-waypoint mobility; users start in the init_* subregion
    speed_min_mps: float = 0.05
    speed_max_mps: float = 0.25
    pause_duration_s: float = 0.0
    slot_duration_s: float = 300.0
    num_slots: int = 5
    substep_duration_s: float = 1.0
    init_x_min: float = 0.0
    init_y_min: float = 0.0
    init_x_max: float = 50.0
    init_y_max: float = 50.0
    # Placement search (GA)
    population_size: int = 50
    max_iterations: int = 50
    tournament_size: int = 3
    crossover_prob: float = 0.9
    mutation_prob_per_bit: Optional[float] = None  # None -> 1/genome_length
    bits_per_coordinate: int = 12
    elitism_count: int = 2
    uav_alt_min_m: float = 100.0
    uav_alt_max_m: float = 300.0
    irs_height_m: float = 6.0
    sinr_penalty_weight: float = 10.0
    warm_start: bool = True
    max_slot_displacement_m: Optional[float] = None  # None disables the limit
    # Fixed S-IRS-NOMA surface point; None -> frozen at the first slot's optimum
    s_irs_x: Optional[float] = None
    s_irs_y: Optional[float] = None
    master_seed: int = 1
    num_seeds: int = 20

    @property
    def region(self) -> Region:
        return Region(self.region_x_min, self.region_y_min, self.region_x_max, self.region_y_max)

    @property
    def initial_subregion(self) -> Region:
        return Region(self.init_x_min, self.init_y_min, self.init_x_max, self.init_y_max)


# Document key -> type, e.g. float or Optional[float] (None allowed).
_KEY_TYPES = typing.get_type_hints(ScenarioConfig)


def _cast(key: str, kind: Any, value: Any) -> Any:
    """Check value against a key's annotated type; Optional[X] also takes None."""
    if typing.get_args(kind):  # Optional[X], i.e. Union[X, None]
        if value is None:
            return None
        kind = typing.get_args(kind)[0]
    if kind is bool:
        if isinstance(value, bool):
            return value
        raise ConfigError(f"key {key!r}: expected true/false, got {value!r}")
    if kind is int:
        if isinstance(value, bool):
            raise ConfigError(f"key {key!r}: expected an integer, got {value!r}")
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise ConfigError(f"key {key!r}: expected an integer, got {value!r}")
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"key {key!r}: expected a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"key {key!r}: expected a finite number, got {value!r}")
        return number + 0.0  # -0.0 reads as 0.0; numpy's uniform(0.0, -0.0) raises
    if kind is str:
        if isinstance(value, str):
            return value
        raise ConfigError(f"key {key!r}: expected a string, got {value!r}")
    raise AssertionError(kind)


def config_from_dict(data: dict[str, Any]) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a flat key/value mapping.

    Missing keys take their defaults; unknown keys raise ConfigError.
    """
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config document must be a key/value mapping")
    values = {}
    for key, value in data.items():
        if key not in _KEY_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _cast(key, _KEY_TYPES[key], value)
    cfg = ScenarioConfig(**values)
    validate(cfg)
    return cfg


def config_to_dict(cfg: ScenarioConfig) -> dict[str, Any]:
    """The document key/value mapping of a ScenarioConfig, in field order."""
    return dataclasses.asdict(cfg)


def parse_config(text: str) -> ScenarioConfig:
    """Parse a config document from YAML text."""
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError(f"config parse failure{where}: {exc}") from exc
    return config_from_dict(data)


def load_config(path: str | Path) -> ScenarioConfig:
    """Load and validate a config document from a file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _check(cond: bool, field_name: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{field_name}: {message}")


def _linear_is_finite_positive(x_db: float) -> bool:
    try:
        return 0.0 < db_to_linear(x_db) < math.inf
    except OverflowError:
        return False


def validate(cfg: ScenarioConfig) -> None:
    """Check every invariant; raises ConfigError naming the offending field."""
    _check(cfg.region_x_max > cfg.region_x_min, "region_x_max", "must exceed region_x_min")
    _check(cfg.region_y_max > cfg.region_y_min, "region_y_max", "must exceed region_y_min")

    _check(cfg.num_users >= 1, "num_users", "must be >= 1")

    _check(cfg.los_slope > 0, "los_slope", "must be > 0")
    _check(cfg.nlos_slope > 0, "nlos_slope", "must be > 0")
    _check(cfg.nlos_slope >= cfg.los_slope, "nlos_slope", "must be >= los_slope")
    _check(cfg.irs_elements_per_user >= 1, "irs_elements_per_user", "must be >= 1")
    _check(0.0 <= cfg.irs_reflection_coeff <= 1.0, "irs_reflection_coeff",
           "must be in [0, 1]")
    _check(cfg.los_model in ("blockage", "sigmoid"), "los_model",
           "must be 'blockage' or 'sigmoid'")

    _check(cfg.blocker_density_per_m2 > 0, "blocker_density_per_m2", "must be > 0")
    _check(cfg.blocker_diameter_m > 0, "blocker_diameter_m", "must be > 0")
    _check(cfg.blocker_height_m > 0, "blocker_height_m", "must be > 0")

    _check(_linear_is_finite_positive(cfg.noise_power_dbm), "noise_power_dbm",
           "linear noise power must be finite and > 0")
    snr_db = cfg.uav_tx_power_dbm - cfg.noise_power_dbm
    _check(_linear_is_finite_positive(snr_db),
           "uav_tx_power_dbm", "linear transmit SNR (over noise_power_dbm) must be "
           "finite and > 0")
    _check(_linear_is_finite_positive(cfg.snr_threshold_db), "snr_threshold_db",
           "linear threshold must be finite and > 0")
    _check(0.0 <= cfg.ftpa_decay <= 1.0, "ftpa_decay", "must be in [0, 1]")

    _check(0.0 <= cfg.speed_min_mps <= cfg.speed_max_mps, "speed_min_mps/speed_max_mps",
           "need 0 <= speed_min <= speed_max")
    _check(cfg.pause_duration_s >= 0, "pause_duration_s", "must be >= 0")
    _check(cfg.num_slots >= 1, "num_slots", "must be >= 1")
    _check(cfg.num_users * cfg.num_slots <= MAX_TRACE_ROWS, "num_users/num_slots",
           "num_users x num_slots (trace and users.csv rows) must be <= 10^5")
    _check(cfg.slot_duration_s > 0, "slot_duration_s", "must be > 0")
    _check(cfg.substep_duration_s > 0, "substep_duration_s", "must be > 0")
    # A trace advances every user once per sub-step, over num_slots - 1 slots.
    per_slot = cfg.slot_duration_s / cfg.substep_duration_s
    _check((cfg.num_slots - 1) * per_slot <= 1e6 and round(per_slot) >= 1,
           "slot_duration_s/substep_duration_s", "need at least one mobility sub-step "
           "per slot and at most 10^6 in all, (num_slots - 1) x slot / substep")
    _check(abs(per_slot - round(per_slot)) < 1e-9, "substep_duration_s",
           "must divide slot_duration_s evenly")
    _check(cfg.num_users * (cfg.num_slots - 1) * per_slot <= 1e8,
           "num_users/num_slots/slot_duration_s/substep_duration_s",
           "at most 10^8 user-steps in a trace, num_users x (num_slots - 1) x slot / substep")
    _check(cfg.init_x_max >= cfg.init_x_min, "init_x_max", "must be >= init_x_min")
    _check(cfg.init_y_max >= cfg.init_y_min, "init_y_max", "must be >= init_y_min")
    _check(cfg.region.contains(cfg.init_x_min, cfg.init_y_min)
           and cfg.region.contains(cfg.init_x_max, cfg.init_y_max), "init_x_*/init_y_*",
           "initial subregion must lie inside the region")

    _check(2 <= cfg.population_size <= 10**3, "population_size", "must be in [2, 10^3]")
    _check(cfg.num_users * cfg.population_size <= 10**6, "num_users/population_size",
           "num_users x population_size (one fitness call's arrays) must be <= 10^6")
    _check(1 <= cfg.max_iterations <= 10**4, "max_iterations", "must be in [1, 10^4]")
    _check(1 <= cfg.tournament_size <= cfg.population_size, "tournament_size",
           "must be in [1, population_size]")
    _check(0.0 <= cfg.crossover_prob <= 1.0, "crossover_prob", "must be in [0, 1]")
    if cfg.mutation_prob_per_bit is not None:
        _check(0.0 <= cfg.mutation_prob_per_bit <= 1.0, "mutation_prob_per_bit",
               "must be in [0, 1]")
    # Codes wider than 53 bits are inexact in float64; from 64 bits the int64
    # decode weights overflow.
    _check(1 <= cfg.bits_per_coordinate <= 53, "bits_per_coordinate", "must be in [1, 53]")
    _check(0 <= cfg.elitism_count < cfg.population_size, "elitism_count",
           "must be in [0, population_size)")
    _check(cfg.uav_alt_min_m >= 100.0, "uav_alt_min_m", "must be >= 100 m (safety floor)")
    _check(cfg.uav_alt_max_m >= cfg.uav_alt_min_m, "uav_alt_max_m",
           "must be >= uav_alt_min_m")
    _check(cfg.irs_height_m > 0, "irs_height_m", "must be > 0")
    _check(not cfg.irs_uav_leg_enabled or cfg.irs_height_m < cfg.uav_alt_min_m,
           "irs_height_m", "must be below uav_alt_min_m when irs_uav_leg_enabled is true "
           "(the UAV could otherwise sit on the surface)")
    _check(cfg.sinr_penalty_weight >= 0, "sinr_penalty_weight", "must be >= 0")
    if cfg.max_slot_displacement_m is not None:
        _check(cfg.max_slot_displacement_m > 0, "max_slot_displacement_m", "must be > 0")
        _check(cfg.sinr_penalty_weight > 0, "max_slot_displacement_m",
               "needs sinr_penalty_weight > 0, the weight that enforces it")

    # Every direct and surface-to-user link is between these lengths, and both
    # pathloss laws grow with distance, so their gains at the two ends bound
    # every direct gain a run computes, alone, times the transmit SNR, and over
    # the noise power (and its inverse) as the FTPA split raises it to -decay.
    diagonal = math.hypot(cfg.region_x_max - cfg.region_x_min,
                          cfg.region_y_max - cfg.region_y_min)
    shortest = min(cfg.uav_alt_min_m, cfg.irs_height_m)
    longest = math.hypot(diagonal, max(cfg.uav_alt_max_m, cfg.irs_height_m))
    for keys, intercept, slope in (
            ("los_intercept_db/los_slope", cfg.los_intercept_db, cfg.los_slope),
            ("nlos_intercept_db/nlos_slope", cfg.nlos_intercept_db, cfg.nlos_slope)):
        for d in (shortest, longest):
            loss_db = intercept + 10.0 * slope * math.log10(d)
            ratios_db = (-loss_db, snr_db - loss_db, -loss_db - cfg.noise_power_dbm,
                         loss_db + cfg.noise_power_dbm)
            _check(all(map(_linear_is_finite_positive, ratios_db)), keys,
                   f"linear gain, transmit SNR x gain and gain / noise at {d:g} m must be "
                   "finite and > 0 (link lengths follow from region_x_min/region_x_max/"
                   "region_y_min/region_y_max, uav_alt_min_m/uav_alt_max_m and "
                   "irs_height_m; the SNR from uav_tx_power_dbm and noise_power_dbm)")
    # The blockage exponent peaks at the region diagonal and uav_alt_min_m.
    _check(math.isfinite(cfg.blocker_density_per_m2 * cfg.blocker_diameter_m * diagonal
                         * cfg.blocker_height_m / cfg.uav_alt_min_m),
           "blocker_density_per_m2/blocker_diameter_m/blocker_height_m",
           "times the region diagonal over uav_alt_min_m must be finite")
    if cfg.los_model == "sigmoid":  # the exponent is linear in the elevation: its ends bound it
        a, b = cfg.sigmoid_alpha, cfg.sigmoid_beta
        ends = [-b * (theta - a) for theta in (0.0, 90.0)]
        _check(a >= 0 and all(map(math.isfinite, ends)) and max(ends) < 709.0
               and math.isfinite(a * math.exp(max(ends))), "sigmoid_alpha/sigmoid_beta",
               "need sigmoid_alpha >= 0 and, at every elevation in [0, 90] degrees, -sigmoid_beta"
               " x (elevation - sigmoid_alpha) < 709 and sigmoid_alpha x its exp finite")
    # The reflected gain peaks at N^2 times the NLoS gain at irs_height_m and,
    # with the UAV leg, the LoS gain over the shortest UAV-to-surface hop.
    n = cfg.irs_elements_per_user
    peak_db = (20.0 * math.log10(n) - cfg.nlos_intercept_db
               - 10.0 * cfg.nlos_slope * math.log10(cfg.irs_height_m))
    if cfg.irs_uav_leg_enabled:
        hop = cfg.uav_alt_min_m - cfg.irs_height_m
        peak_db -= cfg.los_intercept_db + 10.0 * cfg.los_slope * math.log10(hop)
    ratios_db = (peak_db, snr_db + peak_db, peak_db - cfg.noise_power_dbm)
    _check(n * n <= sys.float_info.max and all(map(_linear_is_finite_positive, ratios_db)),
           "irs_elements_per_user", "N^2 x the peak reflected gain (at irs_height_m, and "
           "over uav_alt_min_m - irs_height_m with irs_uav_leg_enabled), alone, times the "
           "transmit SNR and over the noise power must be finite and > 0")
    # A genome's penalty is at most the weight times every user's full SINR
    # threshold plus two region diagonals of move; a generation's mean sums
    # population_size of them.
    worst_penalty = cfg.population_size * cfg.sinr_penalty_weight * (
        cfg.num_users * db_to_linear(cfg.snr_threshold_db) + 2.0 * diagonal)
    _check(math.isfinite(worst_penalty), "sinr_penalty_weight",
           "times population_size and the largest SINR shortfall (num_users x "
           "snr_threshold_db) and move (region diagonal) must be finite")

    _check((cfg.s_irs_x is None) == (cfg.s_irs_y is None), "s_irs_x/s_irs_y",
           "both must be set or both omitted")
    if cfg.s_irs_x is not None:
        _check(cfg.region.contains(cfg.s_irs_x, cfg.s_irs_y), "s_irs_x/s_irs_y",
               "must lie inside the region")

    _check(cfg.master_seed >= 0, "master_seed", "must be >= 0")
    _check(1 <= cfg.num_seeds <= MAX_SEEDS, "num_seeds", "must be in [1, 10^4]")


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """PCG64 generator for a named sub-stream (SeedSequence spawn key) of the master seed."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(master_seed, spawn_key=tuple(key))))


def resolve_master_seed(cfg: ScenarioConfig, cli_seed: Optional[int] = None,
                        env: Optional[dict] = None) -> int:
    """Master-seed precedence: CLI flag > environment variable > config value."""
    env = os.environ if env is None else env
    if cli_seed is not None:
        source, raw = "--seed", cli_seed
    elif ENV_SEED_VAR in env:
        source, raw = ENV_SEED_VAR, env[ENV_SEED_VAR]
    else:
        return cfg.master_seed
    try:
        seed = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{source}: expected an integer, got {raw!r}") from exc
    if seed < 0:
        raise ConfigError(f"{source}: must be >= 0, got {seed}")
    return seed
