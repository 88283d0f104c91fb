import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mirsim import scenario
from mirsim.scenario import ConfigError, db_to_linear, linear_to_db

from testutil import config_yaml, make_config


def test_minimal_document_takes_reference_defaults():
    cfg = scenario.parse_config("master_seed: 3\n")
    assert cfg.master_seed == 3
    assert cfg.region == scenario.Region(0.0, 0.0, 500.0, 500.0)
    assert cfg.num_users == 10
    assert cfg.num_slots == 5
    assert cfg.slot_duration_s == 300.0
    assert cfg.uav_tx_power_dbm == 36.0
    assert cfg.noise_power_dbm == -80.0
    assert cfg.snr_threshold_db == 20.0
    assert cfg.ftpa_decay == 0.28
    assert cfg.population_size == 50
    assert cfg.max_iterations == 50
    assert cfg.uav_alt_min_m == 100.0
    assert cfg.initial_subregion == scenario.Region(0.0, 0.0, 50.0, 50.0)


def test_speed_inversion_names_the_field():
    with pytest.raises(ConfigError, match="speed_min"):
        make_config(speed_min_mps=2.0, speed_max_mps=1.0)


def test_altitude_floor_enforced():
    with pytest.raises(ConfigError, match="uav_alt_min"):
        make_config(uav_alt_min_m=50.0)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="not_a_key"):
        scenario.parse_config("not_a_key: 1\n")


def test_parse_failure_reports_line():
    with pytest.raises(ConfigError, match="line"):
        scenario.parse_config("num_users: [unclosed\nnext: 2\n")


def test_non_mapping_document_rejected():
    with pytest.raises(ConfigError, match="mapping"):
        scenario.parse_config("- 1\n- 2\n")


@pytest.mark.parametrize("doc", [
    "num_users: ten",
    "num_users: 9.5",
    "warm_start: 3",
    "los_slope: surely",
])
def test_bad_value_types_name_the_key(doc):
    with pytest.raises(ConfigError):
        scenario.parse_config(doc)


def test_half_specified_static_position_rejected():
    with pytest.raises(ConfigError, match="s_irs"):
        make_config(s_irs_x=100.0)


@pytest.mark.parametrize("overrides", [
    {"elitism_count": 50},
    {"tournament_size": 51},
    {"population_size": 1},
    {"substep_duration_s": 7.0},
    {"nlos_slope": 1.0},
    {"irs_reflection_coeff": 1.5},
    {"num_slots": 0},
    {"blocker_density_per_m2": 0.0},
    {"max_slot_displacement_m": 20.0, "sinr_penalty_weight": 0.0},
    {"sinr_penalty_weight": 1e300, "snr_threshold_db": 100.0},
    {"bits_per_coordinate": 54},
    {"bits_per_coordinate": 64},
])
def test_invariant_violations_rejected(overrides):
    # the message names the first override key
    with pytest.raises(ConfigError, match=f"^{next(iter(overrides))}: "):
        make_config(**overrides)


def test_direct_gain_over_noise_must_stay_finite():
    # Transmit SNR 0 dB, but a 10^18 gain over 10^-300 mW of noise overflows the FTPA split.
    with pytest.raises(ConfigError, match="^los_intercept_db/los_slope: .*gain / noise"):
        make_config(los_intercept_db=-200.0, noise_power_dbm=-3000.0, uav_tx_power_dbm=-3000.0)


def test_degenerate_initial_subregion_is_allowed():
    cfg = make_config(init_x_min=25.0, init_x_max=25.0, init_y_min=25.0, init_y_max=25.0)
    assert cfg.initial_subregion.x_min == cfg.initial_subregion.x_max


@given(st.floats(min_value=1e-15, max_value=1e15))
def test_db_linear_round_trip(x):
    assert math.isclose(db_to_linear(float(linear_to_db(x))), x, rel_tol=1e-12)


def test_config_round_trips_through_document():
    cfg = make_config(
        region_x_max=800.0, num_users=7, irs_elements_per_user=3,
        irs_uav_leg_enabled=True, los_model="sigmoid", ftpa_decay=0.5,
        speed_min_mps=0.2, speed_max_mps=0.4, pause_duration_s=12.0,
        mutation_prob_per_bit=0.02, max_slot_displacement_m=150.0,
        s_irs_x=120.0, s_irs_y=340.0, master_seed=9, num_seeds=3,
    )
    again = scenario.parse_config(config_yaml(cfg))
    assert again == cfg


def test_save_and_load_config(tmp_path):
    cfg = make_config(num_users=6)
    path = tmp_path / "cfg.yaml"
    path.write_text(config_yaml(cfg))
    assert scenario.load_config(path) == cfg


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        scenario.load_config("/nonexistent/config.yaml")


def test_streams_are_deterministic_and_distinct():
    a = scenario.stream(42, scenario.GA_STREAM, 0, 1).random(5)
    b = scenario.stream(42, scenario.GA_STREAM, 0, 1).random(5)
    c = scenario.stream(42, scenario.GA_STREAM, 0, 2).random(5)
    d = scenario.stream(43, scenario.GA_STREAM, 0, 1).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_master_seed_precedence():
    cfg = make_config(master_seed=5)
    assert scenario.resolve_master_seed(cfg, None, env={}) == 5
    assert scenario.resolve_master_seed(cfg, None, env={scenario.ENV_SEED_VAR: "17"}) == 17
    assert scenario.resolve_master_seed(cfg, 99, env={scenario.ENV_SEED_VAR: "17"}) == 99
    with pytest.raises(ConfigError, match=scenario.ENV_SEED_VAR):
        scenario.resolve_master_seed(cfg, None, env={scenario.ENV_SEED_VAR: "oops"})
