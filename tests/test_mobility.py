import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mirsim import mobility, scenario
from mirsim.mobility import Users
from mirsim.scenario import ConfigError

from testutil import make_config


def _rng(seed=0):
    return scenario.stream(seed, scenario.MOBILITY_STREAM)


@dataclass
class UserState:
    """Oracle: one user's random-waypoint state."""

    id: int
    position: tuple[float, float]
    waypoint: tuple[float, float]
    speed: float
    pause_remaining: float = 0.0


def oracle_init_users(cfg, rng) -> list[UserState]:
    """Oracle: one scalar uniform per coordinate, user by user in id order."""
    sub, region = cfg.initial_subregion, cfg.region
    users = []
    for i in range(cfg.num_users):
        pos = (rng.uniform(sub.x_min, sub.x_max), rng.uniform(sub.y_min, sub.y_max))
        wp = (rng.uniform(region.x_min, region.x_max), rng.uniform(region.y_min, region.y_max))
        speed = rng.uniform(cfg.speed_min_mps, cfg.speed_max_mps)
        users.append(UserState(id=i, position=pos, waypoint=wp, speed=speed))
    return users


def oracle_step(user: UserState, dt, region, cfg, rng) -> UserState:
    """Oracle: advance one user by dt seconds (in place)."""
    if user.pause_remaining > 0:
        user.pause_remaining = max(0.0, user.pause_remaining - dt)
        return user
    if user.position == user.waypoint:
        user.waypoint = (rng.uniform(region.x_min, region.x_max),
                         rng.uniform(region.y_min, region.y_max))
        user.speed = rng.uniform(cfg.speed_min_mps, cfg.speed_max_mps)
    dx = user.waypoint[0] - user.position[0]
    dy = user.waypoint[1] - user.position[1]
    dist = math.hypot(dx, dy)
    travel = user.speed * dt
    if travel >= dist:
        user.position = user.waypoint
        user.pause_remaining = cfg.pause_duration_s
    else:
        user.position = (user.position[0] + dx / dist * travel,
                         user.position[1] + dy / dist * travel)
    return user


def _one_user(position, waypoint, speed, pause_remaining=0.0) -> Users:
    return Users(position=np.array([position], dtype=float),
                 waypoint=np.array([waypoint], dtype=float),
                 speed=np.array([speed], dtype=float),
                 pause_remaining=np.array([pause_remaining], dtype=float))


def test_initial_positions_inside_subregion():
    users = mobility.init_users(make_config(), _rng())
    assert users.position.shape == users.waypoint.shape == (10, 2)
    assert users.speed.shape == users.pause_remaining.shape == (10,)
    assert np.all((0.0 <= users.position) & (users.position <= 50.0))
    assert np.all((0.05 <= users.speed) & (users.speed <= 0.25))
    assert np.all(users.pause_remaining == 0.0)


def test_point_subregion_collapses_all_users():
    cfg = make_config(init_x_min=25.0, init_x_max=25.0,
                      init_y_min=25.0, init_y_max=25.0)
    users = mobility.init_users(cfg, _rng())
    assert np.all(users.position == 25.0)


def test_same_seed_gives_identical_users():
    cfg = make_config()
    a = mobility.init_users(cfg, _rng(3))
    b = mobility.init_users(cfg, _rng(3))
    for field in ("position", "waypoint", "speed", "pause_remaining"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_init_draws_equal_scalar_uniform_draws():
    cfg = make_config(num_users=25, speed_min_mps=0.3, speed_max_mps=4.0)
    rng, oracle_rng = _rng(11), _rng(11)
    users = mobility.init_users(cfg, rng)
    oracle = oracle_init_users(cfg, oracle_rng)
    assert np.array_equal(users.position, [u.position for u in oracle])
    assert np.array_equal(users.waypoint, [u.waypoint for u in oracle])
    assert np.array_equal(users.speed, [u.speed for u in oracle])
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_subregion_outside_region_rejected():
    with pytest.raises(ConfigError, match="subregion"):
        make_config(region_x_min=100.0, region_y_min=100.0)


def test_negative_zero_subregion_bound_reads_as_zero():
    cfg = make_config(init_x_max=-0.0, init_y_max=-0.0)
    users = mobility.init_users(cfg, _rng())
    assert np.all(users.position == 0.0)
    assert not np.any(np.signbit(users.position))


def test_step_advances_along_unit_vector():
    cfg = make_config()
    users = _one_user((0.0, 0.0), (3.0, 4.0), 1.0)
    mobility.step(users, 1.0, cfg.region, cfg, _rng())
    assert math.isclose(users.position[0, 0], 0.6, abs_tol=1e-12)
    assert math.isclose(users.position[0, 1], 0.8, abs_tol=1e-12)


def test_step_zero_speed_is_stationary():
    cfg = make_config(speed_min_mps=0.0, speed_max_mps=0.0)
    rng = _rng()
    users = mobility.init_users(cfg, rng)
    start = users.position.copy()
    for _ in range(50):
        mobility.step(users, 1.0, cfg.region, cfg, rng)
    assert np.array_equal(users.position, start)


def test_step_overshoot_clamps_and_pauses():
    cfg = make_config(pause_duration_s=7.0)
    for speed in (5.0, 1.0):  # overshoot, exact arrival
        users = _one_user((0.0, 0.0), (0.0, 1.0), speed)
        mobility.step(users, 1.0, cfg.region, cfg, _rng())
        assert np.array_equal(users.position, [[0.0, 1.0]])
        assert users.pause_remaining[0] == 7.0


def test_step_pause_counts_down_without_motion():
    cfg = make_config(pause_duration_s=2.5)
    users = _one_user((5.0, 5.0), (5.0, 5.0), 1.0, pause_remaining=2.5)
    for expected in (1.5, 0.5, 0.0):
        mobility.step(users, 1.0, cfg.region, cfg, _rng())
        assert np.array_equal(users.position, [[5.0, 5.0]])
        assert users.pause_remaining[0] == expected


def test_step_moves_each_user_by_its_own_state():
    cfg = make_config(pause_duration_s=4.0)
    users = Users(position=np.array([[0.0, 0.0], [5.0, 5.0], [10.0, 10.0], [1.0, 1.0]]),
                  waypoint=np.array([[3.0, 4.0], [5.0, 5.0], [10.0, 11.0], [1.0, 1.0]]),
                  speed=np.array([1.0, 1.0, 2.0, 0.5]),
                  pause_remaining=np.array([0.0, 2.0, 0.0, 0.0]))
    rng = _rng(5)
    oracle_rng = _rng(5)
    # user 3 stands on its waypoint unpaused, so it alone draws a new one
    draw = oracle_rng.uniform(0.0, 500.0), oracle_rng.uniform(0.0, 500.0)
    speed = oracle_rng.uniform(0.05, 0.25)
    mobility.step(users, 1.0, cfg.region, cfg, rng)
    assert np.allclose(users.position[:3], [[0.6, 0.8], [5.0, 5.0], [10.0, 11.0]],
                       rtol=0.0, atol=1e-12)
    assert np.array_equal(users.pause_remaining, [0.0, 1.0, 4.0, 0.0])
    assert tuple(users.waypoint[3]) == draw and users.speed[3] == speed
    assert 0.0 < math.dist(users.position[3], (1.0, 1.0)) <= speed + 1e-12
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_step_rejects_nonpositive_dt():
    cfg = make_config()
    users = _one_user((0.0, 0.0), (1.0, 1.0), 1.0)
    with pytest.raises(ValueError):
        mobility.step(users, 0.0, cfg.region, cfg, _rng())


@settings(max_examples=60, deadline=None)
@given(num_users=st.integers(1, 12),
       side=st.sampled_from([5.0, 40.0, 500.0]),
       speeds=st.tuples(st.sampled_from([0.0, 0.05, 1.0, 5.0, 20.0]),
                        st.sampled_from([0.0, 0.25, 3.0, 20.0])),
       pause=st.sampled_from([0.0, 0.5, 3.0, 7.5]),
       dt=st.sampled_from([0.5, 1.0, 2.0]),
       seed=st.integers(0, 2**32 - 1))
def test_population_step_matches_scalar_oracle(num_users, side, speeds, pause, dt, seed):
    cfg = make_config(num_users=num_users, region_x_max=side, region_y_max=side,
                      init_x_max=min(side, 50.0), init_y_max=min(side, 50.0),
                      speed_min_mps=min(speeds), speed_max_mps=max(speeds),
                      pause_duration_s=pause)
    rng, oracle_rng = _rng(seed), _rng(seed)
    users = mobility.init_users(cfg, rng)
    oracle = oracle_init_users(cfg, oracle_rng)
    for _ in range(150):
        mobility.step(users, dt, cfg.region, cfg, rng)
        for user in oracle:
            oracle_step(user, dt, cfg.region, cfg, oracle_rng)
        np.testing.assert_allclose(users.position, [u.position for u in oracle],
                                   rtol=0.0, atol=1e-9)
    assert np.array_equal(users.waypoint, [u.waypoint for u in oracle])
    assert np.array_equal(users.pause_remaining, [u.pause_remaining for u in oracle])
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_trace_shape_and_initial_slot():
    cfg = make_config()
    trace = mobility.generate_trace(cfg, _rng(1))
    assert trace.positions.shape == (5, 10, 2)
    single = mobility.generate_trace(make_config(num_slots=1), _rng(1))
    users = mobility.init_users(make_config(num_slots=1), _rng(1))
    assert np.array_equal(single.positions[0], users.position)


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
    users = mobility.init_users(cfg, rng)
    prev = users.position.copy()
    for _ in range(2000):
        mobility.step(users, 1.0, cfg.region, cfg, rng)
        moved = np.hypot(*(users.position - prev).T)
        assert np.all(moved <= 1.4 + 1e-9)
        prev = users.position.copy()


def test_pause_lasts_ceil_of_duration_over_dt():
    cfg = make_config(speed_min_mps=0.5, speed_max_mps=1.5, pause_duration_s=3.5)
    rng = _rng(8)
    users = mobility.init_users(cfg, rng)
    # run to user 0's first arrival
    for _ in range(10_000):
        mobility.step(users, 1.0, cfg.region, cfg, rng)
        if users.pause_remaining[0] > 0:
            break
    assert np.array_equal(users.position[0], users.waypoint[0])
    still = 0
    pos = users.position[0].copy()
    for _ in range(100):
        mobility.step(users, 1.0, cfg.region, cfg, rng)
        if not np.array_equal(users.position[0], pos):
            break
        still += 1
    else:
        pytest.fail("user 0 never left its waypoint in 100 steps")
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
    with pytest.raises(ValueError, match=r"line 2: position \(600.0, 10.0\) outside region"):
        mobility.load_trace(path, scenario.Region(0, 0, 500, 500))
    path.write_text("wrong,header\n")
    with pytest.raises(ValueError, match="header"):
        mobility.load_trace(path)
    path.write_text("slot,user_id,x,y\n0,1,10.0,10.0\n")
    with pytest.raises(ValueError, match="missing"):
        mobility.load_trace(path)
