"""Simulator and placement optimizer for a UAV base station assisted by a
vehicle-mounted reflecting surface serving mobile NOMA users."""

from .channel import Placement
from .cli import ExperimentReport, emit_outputs, run_experiment
from .mobility import MobilityTrace, Users, generate_trace
from .noma import SlotResult
from .optimizer import GaRunRecord, Variant, optimize_jobs
from .scenario import ConfigError, ScenarioConfig, load_config, parse_config

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ExperimentReport", "GaRunRecord", "MobilityTrace",
    "Placement", "ScenarioConfig", "SlotResult", "Users", "Variant", "emit_outputs",
    "generate_trace", "load_config", "optimize_jobs", "parse_config", "run_experiment",
]
