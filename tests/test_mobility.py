import csv
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
    pause_remaining: int = 0  # whole sub-steps


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
        user.pause_remaining -= 1
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
        user.pause_remaining = math.ceil(cfg.pause_duration_s / dt)
    else:
        user.position = (user.position[0] + dx / dist * travel,
                         user.position[1] + dy / dist * travel)
    return user


def oracle_trace(cfg, rng) -> np.ndarray:
    """Oracle: the trace's (slots, users, 2) positions, every user stepped through every sub-step."""
    dt = cfg.substep_duration_s
    n_sub = round(cfg.slot_duration_s / dt)
    users = mobility.init_users(cfg, rng)
    positions = np.empty((cfg.num_slots, cfg.num_users, 2))
    positions[0] = users.position
    for slot in range(1, cfg.num_slots):
        for _ in range(n_sub):
            mobility.step(users, dt, cfg.region, cfg, rng)
        positions[slot] = users.position
    return positions


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
    users = _one_user((5.0, 5.0), (5.0, 5.0), 1.0, pause_remaining=3.0)
    for expected in (2.0, 1.0, 0.0):
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
       dt=st.sampled_from([0.1, 0.3, 0.5, 1.0, 2.0]),
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


@settings(max_examples=100, deadline=None)
@given(num_users=st.integers(1, 12),
       corner=st.sampled_from([0.0, -250.0, 1000.0]),
       side=st.sampled_from([0.1, 5.0, 40.0, 500.0]),
       speeds=st.tuples(st.sampled_from([0.0, 0.05, 1.0, 5.0, 20.0]),
                        st.sampled_from([0.0, 0.25, 3.0, 20.0])),
       pause=st.sampled_from([0.0, 0.5, 3.0, 7.5]),
       dt=st.sampled_from([0.1, 0.3, 0.5, 1.0, 2.0]),
       per_slot=st.integers(1, 40),
       num_slots=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_trace_matches_substep_oracle(num_users, corner, side, speeds, pause, dt, per_slot,
                                      num_slots, seed):
    init_side = min(side, 50.0)
    cfg = make_config(num_users=num_users, num_slots=num_slots,
                      region_x_min=corner, region_y_min=corner,
                      region_x_max=corner + side, region_y_max=corner + side,
                      init_x_min=corner, init_y_min=corner,
                      init_x_max=corner + init_side, init_y_max=corner + init_side,
                      speed_min_mps=min(speeds), speed_max_mps=max(speeds),
                      pause_duration_s=pause, substep_duration_s=dt,
                      slot_duration_s=dt * per_slot)
    rng, oracle_rng = _rng(seed), _rng(seed)
    trace = mobility.generate_trace(cfg, rng)
    expected = oracle_trace(cfg, oracle_rng)
    # Same draws in the same order, so every redraw went to the same user.
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    np.testing.assert_allclose(trace.positions, expected, rtol=0.0, atol=1e-9 * side)


def _substeps_to_arrive(waypoint, speed=1.0) -> int:
    """Sub-steps repeated `step` calls take to walk from the origin onto waypoint."""
    cfg = make_config()
    users = _one_user((0.0, 0.0), waypoint, speed)
    for n in range(1, 1000):
        mobility.step(users, 1.0, cfg.region, cfg, _rng())
        if np.array_equal(users.position[0], waypoint):
            return n
    raise AssertionError(f"no arrival at {waypoint}")


def test_leg_takes_ceil_of_distance_over_travel():
    # A 3-4-5 leg at 1 m per sub-step arrives in its 5th sub-step, a 6-8-10 leg
    # in its 10th.  Repeated `step` calls agree on the first, but after nine
    # steps of 0.6/0.8 m their distance left rounds above 1 m, so they arrive
    # one sub-step later on the second.
    legs = mobility._leg_steps(np.array([5.0, 10.0]), np.array([1.0, 1.0]))
    assert legs.tolist() == [5.0, 10.0]
    assert [_substeps_to_arrive((3.0, 4.0)), _substeps_to_arrive((6.0, 8.0))] == [5, 11]
    # A leg the first sub-step covers, a zero-length one (even at zero speed) and
    # a stopped user's; generate_trace silences the 0/0 and x/0 warnings.
    with np.errstate(divide="ignore", invalid="ignore"):
        legs = mobility._leg_steps(np.array([0.5, 0.0, 0.0, 3.0]),
                                   np.array([1.0, 1.0, 0.0, 0.0]))
    assert legs.tolist() == [1.0, 1.0, 1.0, math.inf]


def _trace_pair(seed=3, **overrides):
    """(trace positions, oracle positions, rngs equal afterwards) for one config."""
    cfg = make_config(**overrides)
    rng, oracle_rng = _rng(seed), _rng(seed)
    positions = mobility.generate_trace(cfg, rng).positions
    expected = oracle_trace(cfg, oracle_rng)
    return positions, expected, rng.bit_generator.state == oracle_rng.bit_generator.state


class _CountingRng:
    """Passes rng.random through and counts the calls: one at init, then one per
    sub-step where some user redraws, so a trace's loop iterations are calls - 1."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def random(self, *args):
        self.calls += 1
        return self.rng.random(*args)


def test_endless_pause_is_jumped_not_walked():
    # 10^6 sub-steps (the cap) with a 10^12 s pause: every user ends its first
    # leg and stays, so after init the loop visits no sub-step at all.
    cfg = make_config(num_slots=2, slot_duration_s=1e6, speed_min_mps=1.0,
                      speed_max_mps=2.0, pause_duration_s=1e12)
    rng = _CountingRng(_rng(5))
    trace = mobility.generate_trace(cfg, rng)
    assert rng.calls == 1
    assert np.array_equal(trace.positions[1], mobility.init_users(cfg, _rng(5)).waypoint)
    positions, expected, same_draws = _trace_pair(pause_duration_s=1e12, speed_min_mps=1.0,
                                                  speed_max_mps=2.0)
    assert same_draws
    np.testing.assert_allclose(positions, expected, rtol=0.0, atol=1e-9 * 500.0)


@pytest.mark.parametrize("speed_max", [0.0, 1e-310])
def test_stopped_users_stay_frozen(speed_max):
    # At a subnormal speed dist / travel overflows to inf: like a zero speed's,
    # the first leg outlasts the trace, with no warning.
    positions, expected, same_draws = _trace_pair(speed_min_mps=0.0, speed_max_mps=speed_max)
    assert same_draws
    assert np.array_equal(positions, expected)
    assert np.array_equal(positions, np.broadcast_to(positions[0], positions.shape))


def test_tiny_region_is_bit_equal_to_oracle_and_visits_each_sub_step_once():
    # In a 0.1 m region at >= 1 m/s every leg lasts one sub-step, so every user
    # redraws every sub-step: one event per sub-step, the loop's worst case.
    cfg = make_config(region_x_max=0.1, region_y_max=0.1, init_x_max=0.1, init_y_max=0.1,
                      speed_min_mps=1.0, speed_max_mps=2.0)
    rng, oracle_rng = _CountingRng(_rng(4)), _CountingRng(_rng(4))
    positions = mobility.generate_trace(cfg, rng).positions
    expected = oracle_trace(cfg, oracle_rng)
    assert rng.rng.bit_generator.state == oracle_rng.rng.bit_generator.state
    assert np.array_equal(positions, expected)
    # The init draw, then one array-operation group in each of the 4 x 300
    # sub-steps but the first, which walks the legs drawn at init.
    assert rng.calls == oracle_rng.calls == 1 + 1199


def _paused_substeps(positions, waypoint) -> int:
    """Sub-steps user 0 stands on its first waypoint after arriving on it,
    from a trace that records every sub-step."""
    on_waypoint = np.all(positions[:, 0] == waypoint, axis=1)
    arrival = int(np.argmax(on_waypoint))
    assert on_waypoint[arrival]
    return int(np.argmin(on_waypoint[arrival:])) - 1


def test_trace_pauses_ceil_of_duration_over_dt():
    # One sub-step per slot, so the trace records every sub-step: the arrival
    # sub-step, then ceil(3.5) paused ones, then the next leg.
    cfg = make_config(num_slots=200, slot_duration_s=1.0, region_x_max=20.0,
                      region_y_max=20.0, init_x_max=20.0, init_y_max=20.0,
                      speed_min_mps=0.5, speed_max_mps=1.5, pause_duration_s=3.5)
    positions = mobility.generate_trace(cfg, _rng(8)).positions
    assert _paused_substeps(positions, mobility.init_users(cfg, _rng(8)).waypoint[0]) == 4


def test_pause_at_a_non_binary_dt_is_ceil_not_repeated_subtraction():
    # At dt 0.1 a 1 s pause lasts ceil(1.0 / 0.1) = 10 sub-steps, acceptance
    # criterion 7's law, in the trace and under repeated `step` calls alike:
    # `step` counts whole sub-steps, where subtracting 0.1 s ten times would
    # leave 1.4e-16 s and pause an 11th.
    cfg = make_config(num_slots=400, substep_duration_s=0.1, slot_duration_s=0.1,
                      region_x_max=5.0, region_y_max=5.0, init_x_max=5.0, init_y_max=5.0,
                      speed_min_mps=1.0, speed_max_mps=2.0, pause_duration_s=1.0)
    waypoint = mobility.init_users(cfg, _rng(8)).waypoint[0]
    positions = mobility.generate_trace(cfg, _rng(8)).positions
    assert _paused_substeps(positions, waypoint) == 10
    assert _paused_substeps(oracle_trace(cfg, _rng(8)), waypoint) == 10


def test_trace_shape_and_initial_slot():
    cfg = make_config()
    trace = mobility.generate_trace(cfg, _rng(1))
    assert trace.positions.shape == (5, 10, 2)
    rng, init_rng = _rng(1), _rng(1)
    single = mobility.generate_trace(make_config(num_slots=1), rng)
    users = mobility.init_users(make_config(num_slots=1), init_rng)
    assert np.array_equal(single.positions[0], users.position)
    assert rng.bit_generator.state == init_rng.bit_generator.state  # nothing drawn past init


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


def _save_trace_row_by_row(trace, path):
    """Oracle: the trace CSV written one row at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(mobility.TRACE_COLUMNS)
        for slot in range(trace.num_slots):
            for user in range(trace.num_users):
                x, y = trace.positions[slot, user]
                writer.writerow([slot, user, repr(float(x)), repr(float(y))])


def test_save_trace_writes_the_row_by_row_bytes(tmp_path):
    positions = mobility.generate_trace(make_config(), _rng(6)).positions
    positions[1, :3] = [[-0.0, 5e-324], [1e300, 1 / 3], [0.1, 250.0]]
    trace = mobility.MobilityTrace(positions)
    mobility.save_trace(trace, tmp_path / "one.csv")
    _save_trace_row_by_row(trace, tmp_path / "rows.csv")
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_load_trace_validates(tmp_path):
    path = tmp_path / "bad.csv"
    region = scenario.Region(0, 0, 500, 500)
    path.write_text("slot,user_id,x,y\n0,0,600.0,10.0\n")
    with pytest.raises(ValueError, match=r"line 2: position \(600.0, 10.0\) outside region"):
        mobility.load_trace(path, region)
    path.write_text("wrong,header\n")
    with pytest.raises(ValueError, match="header"):
        mobility.load_trace(path, region)
    path.write_text("slot,user_id,x,y\n0,1,10.0,10.0\n")
    with pytest.raises(ValueError, match="missing"):
        mobility.load_trace(path, region)
