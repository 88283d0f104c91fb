"""Shared helpers for the test suite."""

import dataclasses

import yaml

from mirsim import optimizer, scenario
from mirsim.optimizer import Variant


def make_config(**overrides) -> scenario.ScenarioConfig:
    """Build a validated config from flat document keys (defaults elsewhere)."""
    return scenario.config_from_dict(overrides)


def small_config(**overrides) -> scenario.ScenarioConfig:
    """A cheap configuration for GA-heavy tests."""
    base = dict(num_users=4, num_slots=2, population_size=10, max_iterations=5,
                bits_per_coordinate=6, num_seeds=2)
    base.update(overrides)
    return scenario.config_from_dict(base)


def config_yaml(cfg: scenario.ScenarioConfig) -> str:
    """The config document of cfg, keys in field order."""
    return yaml.safe_dump(dataclasses.asdict(cfg), sort_keys=False)


def optimize_trajectory(trace, cfg: scenario.ScenarioConfig, master_seed: int,
                        variant: Variant = Variant("mobile", "noma")):
    """(placements, records) of every slot of one trace: a one-job optimize_jobs run."""
    (records,) = optimizer.optimize_jobs([(trace, master_seed, variant)], cfg)
    return [record.placement for record in records], records
