"""Random-waypoint mobility for ground users.

Each user repeatedly picks a uniform waypoint inside the region and a uniform
speed from [speed_min, speed_max], walks straight toward it, pauses for a
constant time on arrival, then repeats.  Users start uniformly inside the
initial subregion; the first slot records that distribution.

Time advances in sub-steps of dt = substep_duration_s (default 1 s).  A leg
of length d walked at v m/s covers v * dt per sub-step and ends on its
waypoint after ceil(d / (v * dt)) sub-steps (at least one; never, at zero
speed).  The user then stands there for ceil(pause_duration_s / dt) whole
sub-steps and, in the next one, draws a new waypoint and speed and walks on.
A user that starts on its waypoint redraws in the first sub-step.
``generate_trace`` states this law event by event: a user's course changes
only at its events (arrival, pause end and redraw), so each user jumps from
event to event and is placed on its open leg at slot boundaries.  The scalar
oracle in tests/test_mobility.py walks every user through every sub-step
and pins the generator to this law.

Draw order is fixed so traces are reproducible.  At init one (U, 5) block
gives each user, row by row in id order, x, y, waypoint x, waypoint y and
speed; in a sub-step, the k users that redraw draw one (k, 3) block in id
order: waypoint x, waypoint y, speed.  Each uniform is lo + (hi - lo) * u
for one ``rng.random`` double u, as numpy's scalar ``uniform(lo, hi)``
computes it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .scenario import MAX_TRACE_ROWS, ConfigError, Region, ScenarioConfig

TRACE_COLUMNS = ["slot", "user_id", "x", "y"]


@dataclass
class Users:
    """Random-waypoint state of every user; row i is user i."""

    position: np.ndarray  # (U, 2), m
    waypoint: np.ndarray  # (U, 2), m
    speed: np.ndarray  # (U,), m/s


@dataclass(frozen=True)
class MobilityTrace:
    """Per-slot, per-user positions, shape (num_slots, num_users, 2).

    source names the file a trace was loaded from, for error messages.
    """

    positions: np.ndarray
    source: Optional[str] = None

    @property
    def num_slots(self) -> int:
        return self.positions.shape[0]

    @property
    def num_users(self) -> int:
        return self.positions.shape[1]


def init_users(cfg: ScenarioConfig, rng: np.random.Generator) -> Users:
    """Place users uniformly in the initial subregion with fresh waypoints and speeds."""
    sub, region = cfg.initial_subregion, cfg.region
    lo = np.array([sub.x_min, sub.y_min, region.x_min, region.y_min, cfg.speed_min_mps])
    hi = np.array([sub.x_max, sub.y_max, region.x_max, region.y_max, cfg.speed_max_mps])
    draw = lo + (hi - lo) * rng.random((cfg.num_users, 5))
    return Users(position=draw[:, 0:2].copy(), waypoint=draw[:, 2:4].copy(),
                 speed=draw[:, 4].copy())


def _leg_steps(dist: np.ndarray, travel: np.ndarray) -> np.ndarray:
    """Sub-steps that legs of length dist take at travel m per sub-step.

    ceil(dist / travel), and at least one: a user walks while travel falls
    short of the distance left.  A walk that adds travel sub-step by sub-step,
    as the suite's scalar oracle does, can take one more where the ratio sits
    within rounding of an integer (11 for a 6-8-10 leg at travel 1).  The
    ratio is inf at zero travel or on overflow, a leg that never ends, and
    nan for a zero-length leg at zero speed, which ends at once; callers
    silence those floating-point warnings.
    """
    return np.fmax(np.ceil(dist / travel), 1.0)


def generate_trace(cfg: ScenarioConfig, rng: np.random.Generator) -> MobilityTrace:
    """Simulate all users and record positions at slot boundaries.

    States the module's law event by event.  For each user, ``start`` is
    where its open leg began, after ``leg`` sub-steps; it walks toward ``wp``
    at ``travel`` m per sub-step, stands on it once ``arrive`` sub-steps have
    passed, and redraws in sub-step ``redraw``, ceil(pause / dt) sub-steps
    later.  Only redraws draw randomness, so the loop visits just the
    sub-steps where some user redraws and serves that group with array
    operations, one (k, 3) block in id order.  At a slot boundary a user
    stands on its waypoint or at start + unit * (travel * walked) on its
    open leg: one multiply where a sub-stepped walk adds ``walked`` times,
    so positions match such a walk to the last bits.
    """
    dt = cfg.substep_duration_s
    n_sub = round(cfg.slot_duration_s / dt)
    users = init_users(cfg, rng)
    region = cfg.region
    lo = np.array([region.x_min, region.y_min, cfg.speed_min_mps])
    span = np.array([region.x_max, region.y_max, cfg.speed_max_mps]) - lo
    positions = np.empty((cfg.num_slots, cfg.num_users, 2), dtype=float)
    start, wp = users.position, users.waypoint
    positions[0] = start
    # Sub-step counts are floats so that a leg or pause that never ends is inf.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        pause = np.ceil(np.float64(cfg.pause_duration_s) / dt)
        travel = users.speed * dt
        d = wp - start
        dist = np.hypot(d[:, 0], d[:, 1])
        leg = np.zeros(cfg.num_users)
        arrive = _leg_steps(dist, travel)
        # A user that starts on its waypoint redraws in the first sub-step.
        redraw = np.where(dist == 0.0, 0.0, arrive + pause)
        for slot in range(1, cfg.num_slots):
            now = slot * n_sub  # sub-steps passed at this slot's boundary
            while (t := redraw.min()) < now:
                ids = np.flatnonzero(redraw == t)
                draw = lo + span * rng.random((ids.size, 3))
                p = wp[ids]
                d = draw[:, :2] - p
                start[ids] = p
                wp[ids] = draw[:, :2]
                travel[ids] = tr = draw[:, 2] * dt
                leg[ids] = t
                arrive[ids] = end = t + _leg_steps(np.hypot(d[:, 0], d[:, 1]), tr)
                redraw[ids] = end + pause
            d = wp - start
            unit = d / np.hypot(d[:, 0], d[:, 1])[:, None]
            positions[slot] = np.where((arrive <= now)[:, None], wp,
                                       start + unit * (travel * (now - leg))[:, None])
    return MobilityTrace(positions=positions)


def save_trace(trace: MobilityTrace, path: str | Path) -> None:
    """Write a trace as a CSV table: slot, user_id, x, y."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        # csv writes a float as its repr, the shortest text that reads back exactly.
        writer.writerows([slot, user, x, y]
                         for slot, users in enumerate(trace.positions.tolist())
                         for user, (x, y) in enumerate(users))


def load_trace(path: str | Path, region: Region) -> MobilityTrace:
    """Read a trace CSV; validates completeness and that region holds every position.

    Every problem raises ConfigError naming the file and, for a bad row, its
    1-based line.
    """
    entries: dict[tuple[int, int], tuple[float, float]] = {}
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ConfigError(f"cannot read trace {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != TRACE_COLUMNS:
                raise ConfigError(f"{path}: line 1: expected header {TRACE_COLUMNS}, got {header}")
            for row in reader:
                where = f"{path}: line {reader.line_num}"
                if len(row) != len(TRACE_COLUMNS):
                    raise ConfigError(f"{where}: expected {len(TRACE_COLUMNS)} fields, "
                                      f"got {len(row)}")
                try:
                    slot, user, x, y = int(row[0]), int(row[1]), float(row[2]), float(row[3])
                except ValueError as exc:
                    raise ConfigError(f"{where}: {exc}") from exc
                if slot < 0 or user < 0:
                    raise ConfigError(f"{where}: slot and user_id must be >= 0")
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ConfigError(f"{where}: position ({x}, {y}) is not finite")
                if not region.contains(x, y):
                    raise ConfigError(f"{where}: position ({x}, {y}) outside region")
                if (slot, user) in entries:
                    raise ConfigError(f"{where}: duplicate entry for slot {slot}, user {user}")
                if len(entries) == MAX_TRACE_ROWS:
                    raise ConfigError(f"{where}: more than 10^5 entries (num_users x num_slots)")
                entries[(slot, user)] = (x, y)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: not a readable CSV text file: {exc}") from exc
    if not entries:
        raise ConfigError(f"{path}: empty trace")
    num_slots = max(s for s, _ in entries) + 1
    num_users = max(u for _, u in entries) + 1
    if len(entries) < num_slots * num_users:
        # Entries are distinct, so a gap shows within the first len(entries) + 1 keys.
        slot, user = next((slot, user) for slot in range(num_slots) for user in range(num_users)
                          if (slot, user) not in entries)
        raise ConfigError(f"{path}: missing entry for slot {slot}, user {user}")
    positions = np.array([[entries[(slot, user)] for user in range(num_users)]
                          for slot in range(num_slots)], dtype=float)
    return MobilityTrace(positions=positions, source=str(path))
