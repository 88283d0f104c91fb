"""Random-waypoint mobility for ground users.

Each user repeatedly picks a uniform waypoint inside the region and a uniform
speed from [speed_min, speed_max], walks straight toward it, pauses for a
constant time on arrival, then repeats.  Users start uniformly inside the
initial subregion.  The simulation advances in fixed sub-steps (default 1 s),
all users at once, and records positions at slot boundaries; the first slot
records the initial distribution.

Draw order is fixed so traces are reproducible.  At init one (U, 5) block
gives each user, row by row in id order, x, y, waypoint x, waypoint y and
speed; in a sub-step, the k users that need a new waypoint draw one (k, 3)
block in id order: waypoint x, waypoint y, speed.  Each uniform is
lo + (hi - lo) * u for one ``rng.random`` double u, as numpy's scalar
``uniform(lo, hi)`` computes it.
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
    pause_remaining: np.ndarray  # (U,), s


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


def _uniform(lo: list[float], hi: list[float], rows: int, rng: np.random.Generator):
    """A (rows, len(lo)) block of uniforms on [lo, hi), column by column."""
    lo, hi = np.array(lo), np.array(hi)
    return lo + (hi - lo) * rng.random((rows, len(lo)))


def init_users(cfg: ScenarioConfig, rng: np.random.Generator) -> Users:
    """Place users uniformly in the initial subregion with fresh waypoints and speeds."""
    sub = cfg.initial_subregion
    region = cfg.region
    draw = _uniform([sub.x_min, sub.y_min, region.x_min, region.y_min, cfg.speed_min_mps],
                    [sub.x_max, sub.y_max, region.x_max, region.y_max, cfg.speed_max_mps],
                    cfg.num_users, rng)
    return Users(position=draw[:, 0:2].copy(), waypoint=draw[:, 2:4].copy(),
                 speed=draw[:, 4].copy(), pause_remaining=np.zeros(cfg.num_users))


def step(users: Users, dt: float, region: Region, cfg: ScenarioConfig,
         rng: np.random.Generator) -> Users:
    """Advance every user by dt seconds (in place).

    Paused users only tick down their pause timer.  A moving user advances
    toward its waypoint by speed*dt; reaching the waypoint clamps to it and
    starts the pause.  A new waypoint and speed are drawn at the start of the
    next moving phase.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    pos, wp, pause = users.position, users.waypoint, users.pause_remaining
    moving = pause <= 0.0
    np.maximum(pause - dt, 0.0, out=pause)
    d = wp - pos
    dist = np.hypot(d[:, 0], d[:, 1])
    redraw = moving & (dist == 0.0)  # standing on the waypoint, pause over
    if k := np.count_nonzero(redraw):
        draw = _uniform([region.x_min, region.y_min, cfg.speed_min_mps],
                        [region.x_max, region.y_max, cfg.speed_max_mps], k, rng)
        wp[redraw] = draw[:, 0:2]
        users.speed[redraw] = draw[:, 2]
        d = wp - pos
        dist = np.hypot(d[:, 0], d[:, 1])
    travel = users.speed * dt
    walk = moving & (travel < dist)
    arrive = moving & ~walk
    if np.count_nonzero(arrive):
        pos[arrive] = wp[arrive]
        pause[arrive] = cfg.pause_duration_s
    # Only walking users divide; the others keep their position untouched.
    unit = d / np.where(walk, dist, 1.0)[:, None]
    np.add(pos, unit * travel[:, None], out=pos, where=walk[:, None])
    return users


def generate_trace(cfg: ScenarioConfig, rng: np.random.Generator) -> MobilityTrace:
    """Simulate all users and record positions at slot boundaries."""
    dt = cfg.substep_duration_s
    n_sub = round(cfg.slot_duration_s / dt)
    users = init_users(cfg, rng)
    region = cfg.region
    positions = np.empty((cfg.num_slots, cfg.num_users, 2), dtype=float)
    positions[0] = users.position
    for slot in range(1, cfg.num_slots):
        for _ in range(n_sub):
            step(users, dt, region, cfg, rng)
        positions[slot] = users.position
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
                if region is not None and not region.contains(x, y):
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
