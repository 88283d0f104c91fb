import math

import numpy as np
import pytest

from mirsim import mobility, scenario
from mirsim.mobility import UserState
from mirsim.scenario import ValidationError

from testutil import make_config


def _rng(seed=0):
    return scenario.stream(seed, scenario.MOBILITY_STREAM)


def test_initial_positions_inside_subregion():
    users = mobility.init_users(make_config(), _rng())
    assert len(users) == 10
    for u in users:
        assert 0.0 <= u.position[0] <= 50.0
        assert 0.0 <= u.position[1] <= 50.0
        assert 0.05 <= u.speed <= 0.25


def test_point_subregion_collapses_all_users():
    cfg = make_config(init_x_min=25.0, init_x_max=25.0,
                      init_y_min=25.0, init_y_max=25.0)
    users = mobility.init_users(cfg, _rng())
    assert all(u.position == (25.0, 25.0) for u in users)


def test_same_seed_gives_identical_users():
    cfg = make_config()
    a = mobility.init_users(cfg, _rng(3))
    b = mobility.init_users(cfg, _rng(3))
    assert a == b


def test_subregion_outside_region_rejected():
    bad = make_config(region_x_min=100.0, region_y_min=100.0)
    with pytest.raises(ValidationError, match="subregion"):
        mobility.init_users(bad, _rng())


def test_negative_zero_subregion_bound_reads_as_zero():
    cfg = make_config(init_x_max=-0.0, init_y_max=-0.0)
    assert all(u.position == (0.0, 0.0) for u in mobility.init_users(cfg, _rng()))


def test_step_advances_along_unit_vector():
    cfg = make_config()
    user = UserState(id=0, position=(0.0, 0.0), waypoint=(3.0, 4.0), speed=1.0)
    mobility.step(user, 1.0, cfg.region, cfg, _rng())
    assert math.isclose(user.position[0], 0.6, abs_tol=1e-12)
    assert math.isclose(user.position[1], 0.8, abs_tol=1e-12)


def test_step_zero_speed_is_stationary():
    cfg = make_config(speed_min_mps=0.0, speed_max_mps=0.0)
    rng = _rng()
    user = mobility.init_users(cfg, rng)[0]
    start = user.position
    for _ in range(50):
        mobility.step(user, 1.0, cfg.region, cfg, rng)
    assert user.position == start


def test_step_overshoot_clamps_and_pauses():
    cfg = make_config(pause_duration_s=7.0)
    user = UserState(id=0, position=(0.0, 0.0), waypoint=(0.0, 1.0), speed=5.0)
    mobility.step(user, 1.0, cfg.region, cfg, _rng())
    assert user.position == (0.0, 1.0)
    assert user.pause_remaining == 7.0


def test_step_pause_counts_down_without_motion():
    cfg = make_config(pause_duration_s=2.5)
    user = UserState(id=0, position=(5.0, 5.0), waypoint=(5.0, 5.0),
                     speed=1.0, pause_remaining=2.5)
    for expected in (1.5, 0.5, 0.0):
        mobility.step(user, 1.0, cfg.region, cfg, _rng())
        assert user.position == (5.0, 5.0)
        assert user.pause_remaining == expected


def test_step_rejects_nonpositive_dt():
    cfg = make_config()
    user = UserState(id=0, position=(0.0, 0.0), waypoint=(1.0, 1.0), speed=1.0)
    with pytest.raises(ValueError):
        mobility.step(user, 0.0, cfg.region, cfg, _rng())


def test_trace_shape_and_initial_slot():
    cfg = make_config()
    trace = mobility.generate_trace(cfg, _rng(1))
    assert trace.positions.shape == (5, 10, 2)
    single = mobility.generate_trace(make_config(num_slots=1), _rng(1))
    users = mobility.init_users(make_config(num_slots=1), _rng(1))
    assert np.array_equal(single.positions[0], [u.position for u in users])


def test_trace_is_deterministic():
    cfg = make_config()
    a = mobility.generate_trace(cfg, _rng(9))
    b = mobility.generate_trace(cfg, _rng(9))
    assert np.array_equal(a.positions, b.positions)


def test_trace_positions_contained():
    for seed in (0, 1, 2):
        cfg = make_config(speed_min_mps=0.5, speed_max_mps=2.0)
        trace = mobility.generate_trace(cfg, _rng(seed))
        assert np.all(trace.positions[..., 0] >= 0.0)
        assert np.all(trace.positions[..., 0] <= 500.0)
        assert np.all(trace.positions[..., 1] >= 0.0)
        assert np.all(trace.positions[..., 1] <= 500.0)


def test_displacement_bounded_by_speed():
    cfg = make_config(speed_min_mps=0.3, speed_max_mps=1.4, pause_duration_s=2.0)
    rng = _rng(4)
    user = mobility.init_users(cfg, rng)[0]
    prev = user.position
    for _ in range(2000):
        mobility.step(user, 1.0, cfg.region, cfg, rng)
        assert math.dist(prev, user.position) <= 1.4 + 1e-9
        prev = user.position


def test_pause_lasts_ceil_of_duration_over_dt():
    cfg = make_config(speed_min_mps=0.5, speed_max_mps=1.5, pause_duration_s=3.5)
    rng = _rng(8)
    user = mobility.init_users(cfg, rng)[0]
    # run to the first arrival
    for _ in range(10_000):
        mobility.step(user, 1.0, cfg.region, cfg, rng)
        if user.pause_remaining > 0:
            break
    assert user.position == user.waypoint
    still = 0
    pos = user.position
    while True:
        mobility.step(user, 1.0, cfg.region, cfg, rng)
        if user.position == pos:
            still += 1
        else:
            break
    assert still == math.ceil(3.5 / 1.0)


def test_trace_round_trips_through_csv(tmp_path):
    cfg = make_config()
    trace = mobility.generate_trace(cfg, _rng(2))
    path = tmp_path / "trace.csv"
    mobility.save_trace(trace, path)
    again = mobility.load_trace(path, cfg.region)
    assert np.array_equal(trace.positions, again.positions)


def test_load_trace_validates(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("slot,user_id,x,y\n0,0,600.0,10.0\n")
    with pytest.raises(ValueError, match="outside region"):
        mobility.load_trace(path, scenario.Region(0, 0, 500, 500))
    path.write_text("wrong,header\n")
    with pytest.raises(ValueError, match="header"):
        mobility.load_trace(path)
    path.write_text("slot,user_id,x,y\n0,1,10.0,10.0\n")
    with pytest.raises(ValueError, match="missing"):
        mobility.load_trace(path)
