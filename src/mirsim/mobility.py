"""Random-waypoint mobility for ground users.

Each user repeatedly picks a uniform waypoint inside the region and a uniform
speed from [speed_min, speed_max], walks straight toward it, pauses for a
constant time on arrival, then repeats.  Users start uniformly inside the
initial subregion.  The simulation advances in fixed sub-steps (default 1 s)
and records positions at slot boundaries; the first slot records the initial
distribution.

Draw order is fixed so traces are reproducible: per user at init
(x, y, waypoint_x, waypoint_y, speed); on re-waypointing
(waypoint_x, waypoint_y, speed); users advance in id order within a sub-step.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .scenario import ConfigError, Region, ScenarioConfig, ValidationError

TRACE_COLUMNS = ["slot", "user_id", "x", "y"]


@dataclass
class UserState:
    id: int
    position: tuple[float, float]
    waypoint: tuple[float, float]
    speed: float
    pause_remaining: float = 0.0


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


def _draw_waypoint(region: Region, rng: np.random.Generator) -> tuple[float, float]:
    return (rng.uniform(region.x_min, region.x_max),
            rng.uniform(region.y_min, region.y_max))


def init_users(cfg: ScenarioConfig, rng: np.random.Generator) -> list[UserState]:
    """Place users uniformly in the initial subregion with fresh waypoints and speeds."""
    sub = cfg.initial_subregion
    region = cfg.region
    if not (region.contains(sub.x_min, sub.y_min) and region.contains(sub.x_max, sub.y_max)):
        raise ValidationError("init_x_*/init_y_*: initial subregion must lie inside the region")
    users = []
    for i in range(cfg.num_users):
        pos = (rng.uniform(sub.x_min, sub.x_max), rng.uniform(sub.y_min, sub.y_max))
        wp = _draw_waypoint(region, rng)
        speed = rng.uniform(cfg.speed_min_mps, cfg.speed_max_mps)
        users.append(UserState(id=i, position=pos, waypoint=wp, speed=speed))
    return users


def step(user: UserState, dt: float, region: Region, cfg: ScenarioConfig,
         rng: np.random.Generator) -> UserState:
    """Advance one user by dt seconds (in place).

    Paused users only tick down their pause timer.  A moving user advances
    toward its waypoint by speed*dt; reaching the waypoint clamps to it and
    starts the pause.  A new waypoint and speed are drawn at the start of the
    next moving phase.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if user.pause_remaining > 0:
        user.pause_remaining = max(0.0, user.pause_remaining - dt)
        return user
    if user.position == user.waypoint:
        user.waypoint = _draw_waypoint(region, rng)
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


def generate_trace(cfg: ScenarioConfig, rng: np.random.Generator) -> MobilityTrace:
    """Simulate all users and record positions at slot boundaries."""
    dt = cfg.substep_duration_s
    n_sub = round(cfg.slot_duration_s / dt)
    if abs(cfg.slot_duration_s - n_sub * dt) > 1e-9:
        raise ValidationError("substep_duration_s: must divide slot_duration_s evenly")
    users = init_users(cfg, rng)
    region = cfg.region
    positions = np.empty((cfg.num_slots, cfg.num_users, 2), dtype=float)
    positions[0] = [u.position for u in users]
    for slot in range(1, cfg.num_slots):
        for _ in range(n_sub):
            for u in users:
                step(u, dt, region, cfg, rng)
        positions[slot] = [u.position for u in users]
    return MobilityTrace(positions=positions)


def save_trace(trace: MobilityTrace, path: str | Path) -> None:
    """Write a trace as a CSV table: slot, user_id, x, y."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for slot in range(trace.num_slots):
            for user in range(trace.num_users):
                x, y = trace.positions[slot, user]
                writer.writerow([slot, user, repr(float(x)), repr(float(y))])


def load_trace(path: str | Path, region: Optional[Region] = None) -> MobilityTrace:
    """Read a trace CSV; validates completeness and (optionally) containment.

    Every problem raises ConfigError naming the file and, for a bad row, its
    1-based line.
    """
    entries: dict[tuple[int, int], tuple[float, float]] = {}
    with open(path, newline="") as fh:
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
                if (slot, user) in entries:
                    raise ConfigError(f"{where}: duplicate entry for slot {slot}, user {user}")
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
    if region is not None:
        for slot in range(num_slots):
            for user in range(num_users):
                x, y = positions[slot, user]
                if not region.contains(x, y):
                    raise ConfigError(
                        f"{path}: slot {slot} user {user} position ({x}, {y}) outside region")
    return MobilityTrace(positions=positions, source=str(path))
