"""Shared helpers for the test suite."""

import yaml

from mirsim import channel, noma, optimizer, scenario
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
    return yaml.safe_dump(scenario.config_to_dict(cfg), sort_keys=False)


def slot_result(placement, users_xy, cfg: scenario.ScenarioConfig,
                access: str = "noma") -> noma.SlotResult:
    """Score one placement as the GA scores a candidate: a one-row batch."""
    uav_gain, irs_gain = channel.link_gains(placement.uav, placement.irs, users_xy, cfg)
    return noma.SlotResult.from_batch(noma.evaluate_batch(uav_gain, irs_gain, cfg, access), 0)


def optimize_trajectory(trace, cfg: scenario.ScenarioConfig, master_seed: int,
                        variant: Variant = Variant("mobile", "noma")):
    """(placements, records) of every slot of one trace: a one-job optimize_jobs run."""
    (records,) = optimizer.optimize_jobs([(trace, master_seed, variant)], cfg)
    return [record.placement for record in records], records
