import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mirsim import noma, scenario
from mirsim.channel import Placement
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
    assert scenario.parse_config("") == scenario.ScenarioConfig()
    whole = scenario.parse_config("population_size: 50.0\n")  # an integral float is an integer
    assert whole.population_size == 50 and type(whole.population_size) is int


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
    "num_users: true",
    "los_model: 3",
])
def test_bad_value_types_name_the_key(doc):
    with pytest.raises(ConfigError, match=f"^key '{doc.split(':')[0]}': expected "):
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
    {"substep_duration_s": 0.0},  # the trace's sub-step, dt
])
def test_invariant_violations_rejected(overrides):
    # the message names the first override key
    with pytest.raises(ConfigError, match=f"^{next(iter(overrides))}: "):
        make_config(**overrides)


def test_slots_times_generations_cap_sits_at_ten_to_the_six():
    make_config(num_slots=99, max_iterations=10**4)  # 990,099 fitness values per job
    with pytest.raises(ConfigError, match=r"^num_slots/max_iterations: num_slots x "):
        make_config(num_slots=100, max_iterations=10**4)  # 1,000,100


# -- The link budget, computed as README states it ---------------------------

_LAWS = "los_intercept_db/los_slope/nlos_intercept_db/nlos_slope"
_LENGTHS = "region_x_min/region_x_max/region_y_min/region_y_max/uav_alt_max_m/irs_height_m"
_FLOOR = (f"{_LAWS}/irs_elements_per_user/ftpa_decay/ftpa_favor_strong/uav_tx_power_dbm/"
          "noise_power_dbm")


def _linear(x_db):
    """10^(x_db / 10), inf past the float range."""
    try:
        return 10.0 ** (x_db / 10.0)
    except OverflowError:
        return math.inf


def _within_link_budget(cfg) -> bool:
    """README's link-budget conditions: the longest squared link, the region's
    spans squared plus the higher of uav_alt_max_m and irs_height_m squared,
    finite; every direct gain, from uav_alt_min_m to the region diagonal at
    uav_alt_max_m, finite and > 0; N^2 a finite float; the
    largest total gain (largest direct gain plus the reflected peak) finite times
    the transmit SNR and over the smallest direct gain; the SNR's reciprocal
    finite; and the smallest SINR > 0."""
    def loss(intercept, slope, d):
        return intercept + 10.0 * slope * math.log10(d)

    laws = [(cfg.los_intercept_db, cfg.los_slope), (cfg.nlos_intercept_db, cfg.nlos_slope)]
    span_x, span_y = cfg.region_x_max - cfg.region_x_min, cfg.region_y_max - cfg.region_y_min
    top = max(cfg.uav_alt_max_m, cfg.irs_height_m)
    if not span_x * span_x + span_y * span_y + top * top < math.inf:
        return False
    diagonal = math.hypot(span_x, span_y)
    gains = [_linear(-loss(*law, d)) for law in laws
             for d in (cfg.uav_alt_min_m, math.hypot(diagonal, cfg.uav_alt_max_m))]
    n = cfg.irs_elements_per_user
    peak_db = 20.0 * math.log10(n) - loss(*laws[1], cfg.irs_height_m) - (
        loss(*laws[0], cfg.uav_alt_min_m - cfg.irs_height_m) if cfg.irs_uav_leg_enabled else 0.0)
    total = max(gains) + _linear(peak_db)
    snr = _linear(cfg.uav_tx_power_dbm - cfg.noise_power_dbm)
    weakest, strongest = min(gains), max(gains)
    if not (0.0 < snr < math.inf and 1.0 / snr < math.inf and 0.0 < weakest
            and strongest < math.inf and n * n <= sys.float_info.max
            and total * snr < math.inf and total / weakest < math.inf):
        return False
    # The smallest SINR: a noise-limited user's smallest share of the weakest gain
    # times the SNR, or a weak user's over the strong user's largest share of the
    # strongest gain plus 1 / SNR.  A pair's shares lie in [small, 1 - small], the
    # favoured user's (the weak one's, unless ftpa_favor_strong) from 1/2 up.
    small = 1.0 / (1.0 + (total / weakest) ** cfg.ftpa_decay)
    weak, strong = (small, 0.5) if cfg.ftpa_favor_strong else (0.5, small)
    return min(strong * weakest * snr,
               weak * weakest / ((1.0 - weak) * strongest + 1.0 / snr)) > 0.0


def _float_edge(holds, inside, outside):
    """Adjacent floats (a, b) from inside to outside (of one sign): holds(a), not holds(b)."""
    a, b = np.array([inside, outside]).view(np.int64).tolist()
    assert holds(inside) and not holds(outside)
    while abs(b - a) > 1:
        mid = (a + b) // 2
        a, b = (mid, b) if holds(np.array(mid).view(float).item()) else (a, mid)
    return np.array(a).view(float).item(), np.array(b).view(float).item()


_REGION = dict(region_x_min=20.0, region_x_max=520.0, region_y_min=30.0, region_y_max=530.0,
               init_x_min=20.0, init_x_max=70.0, init_y_min=30.0, init_y_max=80.0)


@pytest.mark.parametrize("base, keys, inside, outside, named", [
    # every gain tiny: the smallest SINR, a share of the longest link's gain, reaches 0
    # before that gain does
    (dict(los_slope=2.0, nlos_slope=2.0, irs_height_m=100.0),
     ("los_intercept_db", "nlos_intercept_db"), 3000.0, 3300.0, _FLOOR),
    # both laws 10^300 at 100 m: the pair ratio grows with the longest link, in a shifted region
    (dict(los_intercept_db=-10000.0, nlos_intercept_db=-10000.0, los_slope=350.0,
          nlos_slope=350.0, irs_height_m=100.0, uav_tx_power_dbm=0.0, noise_power_dbm=0.0,
          **_REGION), ("uav_alt_max_m",), 200.0, 300.0, f"{_LAWS}/irs_elements_per_user"),
    # a 10^300 direct gain times the transmit SNR
    (dict(los_intercept_db=-3040.0, nlos_intercept_db=-3040.0, nlos_slope=2.0,
          irs_height_m=100.0, noise_power_dbm=0.0), ("uav_tx_power_dbm",), 1.0, 160.0,
     f"{_LAWS}/irs_elements_per_user"),
    # the transmit SNR alone, at both ends of the float range; at the low end its
    # reciprocal overflows first, with gains of about 10^100 keeping every SINR > 0
    ({}, ("uav_tx_power_dbm",), 3000.0, 3100.0, "uav_tx_power_dbm/noise_power_dbm"),
    (dict(noise_power_dbm=0.0, los_intercept_db=-1100.0, nlos_intercept_db=-1100.0),
     ("uav_tx_power_dbm",), -3000.0, -3300.0, "uav_tx_power_dbm/noise_power_dbm"),
    # a reflected peak of 10^300 x the NLoS gain at irs_height_m over the weakest direct gain
    (dict(irs_elements_per_user=10**150), ("irs_height_m",), 2.0, 1.0,
     f"{_LAWS}/irs_elements_per_user"),
    # the same with the UAV leg, whose shortest hop shrinks as uav_alt_min_m falls
    (dict(irs_elements_per_user=16 * 10**148, irs_uav_leg_enabled=True, irs_height_m=50.0,
          los_intercept_db=-100.0), ("uav_alt_min_m",), 150.0, 100.0,
     f"{_LAWS}/irs_elements_per_user"),
    # gains of about 10^-205 times a falling SNR: the smallest SINR underflows to 0
    (dict(los_intercept_db=2000.0, nlos_intercept_db=2000.0, noise_power_dbm=0.0),
     ("uav_tx_power_dbm",), -1000.0, -1500.0, _FLOOR),
    # near-flat laws: the squared link lengths overflow before any gain does, at a
    # ceiling of about 1.34e154 m or a square of about 9.48e153 m
    (dict(los_slope=0.001, nlos_slope=0.001), ("uav_alt_max_m",), 1e150, 1e160, _LENGTHS),
    (dict(los_slope=0.001, nlos_slope=0.001), ("region_x_max", "region_y_max"), 1e150, 1e160,
     _LENGTHS),
    (dict(los_slope=0.001, nlos_slope=0.001), ("irs_height_m",), 1e150, 1e160, _LENGTHS),
], ids=["weakest-gain", "pair-ratio", "snr-times-total", "snr-overflow", "snr-underflow",
        "reflected-peak", "uav-leg", "sinr-floor", "squared-ceiling", "squared-region",
        "squared-surface"])
def test_link_budget_edges_sit_where_readme_puts_them(base, keys, inside, outside, named):
    # validate must accept the last float inside README's bounds and refuse the
    # next one, naming the bound's keys.
    def config(value):
        return scenario.ScenarioConfig(**{**base, **dict.fromkeys(keys, value)})

    a, b = _float_edge(lambda value: _within_link_budget(config(value)), inside, outside)
    scenario.validate(config(a))
    with pytest.raises(ConfigError, match=f"^{named}: "):
        scenario.validate(config(b))


@pytest.mark.parametrize("overrides, named", [
    ({"los_intercept_db": -1e10}, f"{_LAWS}: linear direct gains"),
    ({"nlos_intercept_db": 1e10}, f"{_LAWS}: linear direct gains"),
], ids=["gain-overflow", "gain-underflow"])
def test_each_link_budget_bound_names_its_keys(overrides, named):
    with pytest.raises(ConfigError, match=f"^{re.escape(named)}"):
        make_config(**overrides)


def _ratio_config(slope, **overrides):
    """Both laws at slope, a 10^300 gain at 100 m, and uav_alt_max_m = uav_alt_min_m:
    the corner placement below then forms half the bound on a pair's FTPA ratio."""
    return make_config(los_intercept_db=-3000.0 - 20.0 * slope, los_slope=slope,
                       nlos_intercept_db=-3000.0 - 20.0 * slope, nlos_slope=slope,
                       irs_height_m=100.0, uav_alt_max_m=100.0, uav_tx_power_dbm=0.0,
                       noise_power_dbm=0.0, **overrides)


@pytest.mark.parametrize("favor_strong", [False, True])
def test_a_pair_just_inside_the_ftpa_ratio_bound_splits_finitely(favor_strong):
    # The user under the UAV and the surface gets 10^300 on each link; the corner
    # user, 714.1 m away on both, the weakest gains.  validate refuses from a slope
    # of about 360.6923, where the bound, twice this pair's ratio, overflows; the
    # suite's filter turns any numpy warning into an error.  In comparison mode the
    # weak user's share falls as the ratio grows, and the bound on its SINR reaches
    # 0 at a lower slope: at the last slope validate accepts, the pair's SINRs, with
    # and without the surface, must still be > 0.
    with pytest.raises(ConfigError, match=f"^{_LAWS}/irs_elements_per_user: "):
        _ratio_config(360.693, ftpa_favor_strong=favor_strong)
    slope = 360.692
    if favor_strong:
        def accepted(slope):
            try:
                return bool(_ratio_config(slope, ftpa_favor_strong=True))
            except ConfigError:
                return False

        slope, refused = _float_edge(accepted, 200.0, 360.692)
        with pytest.raises(ConfigError, match=f"^{re.escape(_FLOOR)}: "):
            _ratio_config(refused, ftpa_favor_strong=True)
    cfg = _ratio_config(slope, ftpa_favor_strong=favor_strong)
    for irs in ((0.0, 0.0), None):
        result = noma.SlotResult.of(Placement((0.0, 0.0, 100.0), irs),
                                    [[0.0, 0.0], [500.0, 500.0]], cfg, "noma")
        assert np.isfinite([*result.sinr, *result.rate, *result.alpha, result.sum_rate]).all()
        assert (result.sinr > 0.0).all()
        assert (result.alpha[0] > result.alpha[1]) == favor_strong  # user 0 is the strong one


def test_degenerate_initial_subregion_is_allowed():
    cfg = make_config(init_x_min=25.0, init_x_max=25.0, init_y_min=25.0, init_y_max=25.0)
    assert cfg.initial_subregion.x_min == cfg.initial_subregion.x_max


@given(st.floats(min_value=1e-15, max_value=1e15))
def test_db_linear_round_trip(x):
    assert math.isclose(db_to_linear(float(linear_to_db(x))), x, rel_tol=1e-12)


def test_db_to_linear_is_inf_past_the_float_range():
    # A float overflows in ** where a numpy scalar gives inf; validate reads both alike.
    assert db_to_linear(3082.0) == 10.0 ** 308.2
    assert db_to_linear(3083.0) == db_to_linear(1e300) == math.inf
    assert db_to_linear(-1e300) == 0.0
    with np.errstate(over="ignore"):
        assert db_to_linear(np.float64(3083.0)) == math.inf


def test_linear_to_db_on_an_array_matches_the_scalar_call_bit_for_bit():
    # The report converts a slot's SINRs to dB as one array; each value must be
    # the bits of the per-user scalar call it replaced.
    rng = np.random.default_rng(5)
    edges = [5e-324, 2.2250738585072014e-308, 1.0, 10.0, 100.0, 1.7976931348623157e308]
    x = np.concatenate([10.0 ** rng.uniform(-320.0, 308.0, 200_000), rng.uniform(0.0, 1e3, 1_000),
                        edges])
    scalar = np.array([linear_to_db(v) for v in x.tolist()])
    assert np.array_equal(linear_to_db(x).view(np.int64), scalar.view(np.int64))
    with np.errstate(divide="ignore"):
        assert linear_to_db(np.array([0.0, 1.0]))[0] == -np.inf


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


def test_master_seed_precedence(monkeypatch):
    cfg = make_config(master_seed=5)
    monkeypatch.delenv(scenario.ENV_SEED_VAR, raising=False)
    assert scenario.resolve_master_seed(cfg, None) == 5
    monkeypatch.setenv(scenario.ENV_SEED_VAR, "17")
    assert scenario.resolve_master_seed(cfg, None) == 17
    assert scenario.resolve_master_seed(cfg, 99) == 99
    monkeypatch.setenv(scenario.ENV_SEED_VAR, "oops")
    with pytest.raises(ConfigError, match=scenario.ENV_SEED_VAR):
        scenario.resolve_master_seed(cfg, None)
