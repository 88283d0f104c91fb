"""Shared helpers for the test suite."""

import yaml

from mirsim import scenario


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
    return yaml.safe_dump(scenario.config_to_dict(cfg), sort_keys=False)
