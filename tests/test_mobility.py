import csv
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mirsim import mobility, scenario
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
    pause_left: int = 0  # whole sub-steps


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


def _initial_waypoints_and_speeds(cfg, seed=0):
    """(U, 2) first waypoints and (U,) speeds, read off the oracle's init draws,
    which are generate_trace's (test_init_draws_equal_scalar_uniform_draws)."""
    users = oracle_init_users(cfg, _rng(seed))
    return np.array([u.waypoint for u in users]), np.array([u.speed for u in users])


def oracle_step(user: UserState, dt, region, cfg, rng) -> UserState:
    """Oracle: advance one user by dt seconds (in place), the law of one sub-step.

    This walk pins ``mobility.generate_trace``: a paused user counts down one
    whole sub-step; a user standing on its waypoint redraws; a moving user
    advances speed * dt toward its waypoint, and reaching it clamps to it and
    starts a pause of ceil(pause_duration_s / dt) sub-steps.
    """
    if user.pause_left > 0:
        user.pause_left -= 1
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
        user.pause_left = math.ceil(cfg.pause_duration_s / dt)
    else:
        user.position = (user.position[0] + dx / dist * travel,
                         user.position[1] + dy / dist * travel)
    return user


def oracle_trace(cfg, rng) -> np.ndarray:
    """Oracle: the trace's (slots, users, 2) positions, every user stepped through every sub-step."""
    dt = cfg.substep_duration_s
    n_sub = round(cfg.slot_duration_s / dt)
    users = oracle_init_users(cfg, rng)
    positions = np.empty((cfg.num_slots, cfg.num_users, 2))
    positions[0] = [user.position for user in users]
    for slot in range(1, cfg.num_slots):
        for _ in range(n_sub):
            for user in users:
                oracle_step(user, dt, cfg.region, cfg, rng)
        positions[slot] = [user.position for user in users]
    return positions


def _every_substep(num_substeps, seed=0, dt=1.0, **overrides):
    """(config, positions) of a trace that records every sub-step: one sub-step per
    slot, num_substeps of them after the initial slot."""
    cfg = make_config(num_slots=num_substeps + 1, slot_duration_s=dt, substep_duration_s=dt,
                      **overrides)
    return cfg, mobility.generate_trace(cfg, _rng(seed)).positions


def _pauses(positions) -> list[int]:
    """Every completed pause in a trace that records every sub-step: the number of
    sub-steps a user stands still between two sub-steps in which it moves."""
    moved = np.any(positions[1:] != positions[:-1], axis=2)
    gaps = np.concatenate([np.diff(np.flatnonzero(column)) - 1 for column in moved.T])
    return gaps[gaps > 0].tolist()


def test_initial_positions_inside_subregion():
    # Slot 0 holds the initial positions.  At one 1 s sub-step per slot, slot 1
    # shows each user's first speed: no first leg ends within 0.25 m.
    _, positions = _every_substep(1)
    assert positions.shape == (2, 10, 2)
    assert np.all((0.0 <= positions[0]) & (positions[0] <= 50.0))
    step = positions[1] - positions[0]
    speed = np.hypot(step[:, 0], step[:, 1])
    assert np.all((0.05 - 1e-12 <= speed) & (speed <= 0.25 + 1e-12))


def test_point_subregion_collapses_all_users():
    cfg = make_config(init_x_min=25.0, init_x_max=25.0,
                      init_y_min=25.0, init_y_max=25.0)
    assert np.all(mobility.generate_trace(cfg, _rng()).positions[0] == 25.0)


def test_same_seed_gives_identical_users():
    # A user's first sub-step reads its start, first waypoint and speed.
    _, a = _every_substep(1, seed=3)
    _, b = _every_substep(1, seed=3)
    assert np.array_equal(a, b)


def test_init_draws_equal_scalar_uniform_draws():
    # A one-slot trace draws only the initial block: the oracle's draws, in
    # number (the generator states) and in the positions they give.  The
    # first waypoints and speeds are checked in test_step_advances_along_unit_vector.
    cfg = make_config(num_users=25, num_slots=1, speed_min_mps=0.3, speed_max_mps=4.0)
    rng, oracle_rng = _rng(11), _rng(11)
    positions = mobility.generate_trace(cfg, rng).positions
    oracle = oracle_init_users(cfg, oracle_rng)
    assert np.array_equal(positions[0], [u.position for u in oracle])
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_subregion_outside_region_rejected():
    with pytest.raises(ConfigError, match="subregion"):
        make_config(region_x_min=100.0, region_y_min=100.0)


def test_negative_zero_subregion_bound_reads_as_zero():
    cfg = make_config(init_x_max=-0.0, init_y_max=-0.0)
    start = mobility.generate_trace(cfg, _rng()).positions[0]
    assert np.all(start == 0.0)
    assert not np.any(np.signbit(start))


def test_step_advances_along_unit_vector():
    # In its first sub-step each user walks speed * dt along the unit vector
    # toward its first waypoint, which lies farther away: the oracle's first
    # waypoints and speeds, to the last bits.
    cfg, positions = _every_substep(1, seed=1, dt=0.5)
    waypoint, speed = _initial_waypoints_and_speeds(cfg, 1)
    d = waypoint - positions[0]
    dist = np.hypot(d[:, 0], d[:, 1])
    assert np.all(speed * 0.5 < dist)
    np.testing.assert_allclose(positions[1] - positions[0],
                               d / dist[:, None] * (speed * 0.5)[:, None],
                               rtol=0.0, atol=1e-12)


def test_step_zero_speed_is_stationary():
    _, positions = _every_substep(50, speed_min_mps=0.0, speed_max_mps=0.0)
    assert np.array_equal(positions, np.broadcast_to(positions[0], positions.shape))


def test_step_overshoot_clamps_and_pauses():
    # In a 1 m region at 5 m/s every user overshoots its first waypoint in the
    # first sub-step, stands exactly on it for 7 more, and walks on in the 9th.
    # (An exact arrival, travel == distance, also ends a leg: `_leg_steps` below.)
    cfg, positions = _every_substep(9, region_x_max=1.0, region_y_max=1.0, init_x_max=1.0,
                                    init_y_max=1.0, speed_min_mps=5.0, speed_max_mps=5.0,
                                    pause_duration_s=7.0)
    waypoint = _initial_waypoints_and_speeds(cfg)[0]
    assert np.array_equal(positions[1:9], np.broadcast_to(waypoint, (8, 10, 2)))
    assert np.all(np.any(positions[9] != waypoint, axis=1))


def test_step_pause_counts_down_without_motion():
    # Every pause a user takes lasts ceil(2.5) = 3 whole sub-steps on its
    # waypoint, without motion, before it walks on.
    _, positions = _every_substep(300, region_x_max=5.0, region_y_max=5.0, init_x_max=5.0,
                                  init_y_max=5.0, speed_min_mps=0.5, speed_max_mps=1.5,
                                  pause_duration_s=2.5)
    pauses = _pauses(positions)
    assert len(pauses) > 50 and set(pauses) == {3}


def test_step_moves_each_user_by_its_own_state():
    # One sub-step per slot in a 10 m region: in some sub-step one user walks,
    # one stands out its pause, one arrives and one redraws, and each sub-step's
    # positions and draws are the scalar oracle's.
    cfg = make_config(num_users=8, num_slots=61, slot_duration_s=1.0, region_x_max=10.0,
                      region_y_max=10.0, init_x_max=10.0, init_y_max=10.0, speed_min_mps=0.5,
                      speed_max_mps=3.0, pause_duration_s=4.0)
    rng, oracle_rng = _rng(5), _rng(5)
    positions = mobility.generate_trace(cfg, rng).positions
    oracle = oracle_init_users(cfg, oracle_rng)
    mixed = False
    for slot in range(1, cfg.num_slots):
        states = set()
        for user in oracle:
            paused, redraws = user.pause_left > 0, user.position == user.waypoint
            oracle_step(user, 1.0, cfg.region, cfg, oracle_rng)
            states.add("pause" if paused else "redraw" if redraws
                       else "arrive" if user.pause_left > 0 else "walk")
        mixed |= states == {"walk", "pause", "arrive", "redraw"}
        np.testing.assert_allclose(positions[slot], [u.position for u in oracle],
                                   rtol=0.0, atol=1e-9 * 10.0)
    assert mixed
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
    """Sub-steps the scalar oracle's walk takes from the origin onto waypoint."""
    cfg = make_config()
    user = UserState(id=0, position=(0.0, 0.0), waypoint=waypoint, speed=speed)
    for n in range(1, 1000):
        oracle_step(user, 1.0, cfg.region, cfg, _rng())
        if user.position == waypoint:
            return n
    raise AssertionError(f"no arrival at {waypoint}")


def test_leg_takes_ceil_of_distance_over_travel():
    # A 3-4-5 leg at 1 m per sub-step arrives in its 5th sub-step, a 6-8-10 leg
    # in its 10th.  The scalar oracle's walk agrees on the first, but after
    # nine sub-steps of 0.6/0.8 m its distance left rounds above 1 m, so it
    # arrives one sub-step later on the second.
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
    assert np.array_equal(trace.positions[1], _initial_waypoints_and_speeds(cfg, 5)[0])
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


def test_users_that_start_on_their_waypoint_redraw_at_once():
    # In a region 5e-324 m wide, the smallest subnormal, every uniform rounds to
    # 0 or to that width, so some users start on their first waypoint: they
    # redraw in the first sub-step, as the scalar oracle does.
    overrides = dict(region_x_max=5e-324, region_y_max=5e-324, init_x_max=0.0, init_y_max=0.0,
                     speed_min_mps=1.0, speed_max_mps=2.0, num_slots=4, slot_duration_s=3.0,
                     pause_duration_s=1.0)
    users = oracle_init_users(make_config(**overrides), _rng(2))
    assert any(u.position == u.waypoint for u in users)
    positions, expected, same_draws = _trace_pair(seed=2, **overrides)
    assert same_draws
    assert np.array_equal(positions, expected)


def test_tiny_region_is_bit_equal_to_oracle_and_visits_each_sub_step_once():
    # In a 0.1 m region at >= 1 m/s every leg lasts one sub-step, so every user
    # redraws every sub-step: one event per sub-step, the loop's worst case.
    cfg = make_config(region_x_max=0.1, region_y_max=0.1, init_x_max=0.1, init_y_max=0.1,
                      speed_min_mps=1.0, speed_max_mps=2.0)
    rng, oracle_rng = _CountingRng(_rng(4)), _rng(4)
    positions = mobility.generate_trace(cfg, rng).positions
    expected = oracle_trace(cfg, oracle_rng)
    assert rng.rng.bit_generator.state == oracle_rng.bit_generator.state
    assert np.array_equal(positions, expected)
    # The init draw, then one array-operation group in each of the 4 x 300
    # sub-steps but the first, which walks the legs drawn at init.
    assert rng.calls == 1 + 1199


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
    assert _paused_substeps(positions, _initial_waypoints_and_speeds(cfg, 8)[0][0]) == 4


def test_pause_at_a_non_binary_dt_is_ceil_not_repeated_subtraction():
    # At dt 0.1 a 1 s pause lasts ceil(1.0 / 0.1) = 10 sub-steps, acceptance
    # criterion 7's law, in the trace and in the scalar oracle alike: the
    # oracle counts whole sub-steps, where subtracting 0.1 s ten times would
    # leave 1.4e-16 s and pause an 11th.
    cfg = make_config(num_slots=400, substep_duration_s=0.1, slot_duration_s=0.1,
                      region_x_max=5.0, region_y_max=5.0, init_x_max=5.0, init_y_max=5.0,
                      speed_min_mps=1.0, speed_max_mps=2.0, pause_duration_s=1.0)
    waypoint = _initial_waypoints_and_speeds(cfg, 8)[0][0]
    positions = mobility.generate_trace(cfg, _rng(8)).positions
    assert _paused_substeps(positions, waypoint) == 10
    assert _paused_substeps(oracle_trace(cfg, _rng(8)), waypoint) == 10


def test_trace_shape_and_initial_slot():
    cfg = make_config()
    trace = mobility.generate_trace(cfg, _rng(1))
    assert trace.positions.shape == (5, 10, 2)
    rng, init_rng = _rng(1), _rng(1)
    single = mobility.generate_trace(make_config(num_slots=1), rng)
    users = oracle_init_users(make_config(num_slots=1), init_rng)
    assert np.array_equal(single.positions[0], [u.position for u in users])
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
    _, positions = _every_substep(2000, seed=4, speed_min_mps=0.3, speed_max_mps=1.4,
                                  pause_duration_s=2.0)
    step = positions[1:] - positions[:-1]
    assert np.all(np.hypot(step[..., 0], step[..., 1]) <= 1.4 + 1e-9)


def test_pause_lasts_ceil_of_duration_over_dt():
    # Every pause in the default region, user 0's first among them, lasts
    # ceil(3.5 / 1.0) = 4 sub-steps.
    cfg, positions = _every_substep(2000, seed=8, speed_min_mps=0.5, speed_max_mps=1.5,
                                    pause_duration_s=3.5)
    assert _paused_substeps(positions, _initial_waypoints_and_speeds(cfg, 8)[0][0]) == 4
    assert set(_pauses(positions)) == {math.ceil(3.5 / 1.0)}


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
