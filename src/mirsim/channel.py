"""Geometry, pathloss, blockage, and link gains.

The UAV-to-user link uses a blockage-averaged pathloss: the line-of-sight
probability weights separate LoS/NLoS log-distance laws.  The
vehicle-mounted reflecting surface serves each user through N elements in
the horizontal plane at a fixed mounting height; its per-element NLoS gain
combines coherently, so the aggregate scales as N^2.  The kernels write each
law as ln(gain) = a + k log10(d^2), the dB-to-linear step folded into a and
k, and end it in one exp; the averaged direct law is one such affine form,
mixed by the LoS probability, and q^2 is formed once (q = sqrt(q^2), d^2 =
q^2 + z^2).  uav_link_pathloss gives the direct law in dB; the laws' dB
statements live in README "Model summary" and in the suite's textbook
oracles.  Users are a (..., U, 2) array.  All functions are pure and
broadcast over leading placement axes, so a batch of candidate placements
evaluates in one call; (J, 1, U, 2) users against (J, P, .) placements
score P candidates of each of J jobs, each job with its own users.  The
kernels rely on scenario.validate's bounds (positive altitudes, finite
squared link lengths and gains) and do not check the arrays they get.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .scenario import _REGION_TOL, ScenarioConfig

_TINY = np.finfo(float).tiny  # keeps LoS probability strictly positive


@dataclass(frozen=True)
class Placement:
    """UAV 3D position and vehicle 2D position, meters; irs is None without a surface."""

    uav: tuple[float, float, float]
    irs: Optional[tuple[float, float]]


class Workspace:
    """Scratch arrays that the fitness kernels reuse from call to call.

    A role names one flat buffer, not one quantity: a kernel writes an
    intermediate into a role once the role's previous contents are dead.
    ``take`` returns a C-contiguous view of the role's buffer, replaced only
    when a call needs a larger one or another dtype, so same-sized calls
    allocate nothing after the first.  Arrays a kernel returns with a
    workspace are views into it, valid until its next use; without one a
    kernel uses a workspace of its own, so its results are fresh arrays.  A
    workspace serves one thread.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, role: str, shape, dtype=float) -> np.ndarray:
        """An uninitialized `shape` array of `dtype` in role's buffer."""
        size = math.prod(shape)
        buf = self._buffers.get(role)
        if buf is None or buf.dtype != dtype or buf.size < size:
            buf = self._buffers[role] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def _squared_ground_distance(xy, users_xy, ws: Optional[Workspace] = None, roles=("x", "y")):
    """dx^2 + dy^2 from (..., 2+) points to (..., U, 2) users, in roles[0]; roles[1] is scratch."""
    xy, users = np.asarray(xy, dtype=float), np.asarray(users_xy, dtype=float)
    ws = Workspace() if ws is None else ws
    shape = np.broadcast_shapes(xy.shape[:-1] + (1,), users.shape[:-1])
    dx = np.subtract(xy[..., 0, None], users[..., 0], out=ws.take(roles[0], shape))
    dy = np.subtract(xy[..., 1, None], users[..., 1], out=ws.take(roles[1], shape))
    dx *= dx
    dx += np.multiply(dy, dy, out=dy)
    return dx


def distance_3d(uav_xyz, users_xy):
    """Slant distance from the UAV to (..., U, 2) ground users (users at z=0)."""
    d2 = _squared_ground_distance(uav_xyz, users_xy)
    return np.sqrt(np.add(d2, np.asarray(uav_xyz, dtype=float)[..., 2, None] ** 2, out=d2), out=d2)


def horizontal_distance(uav_xyz, users_xy):
    """2D distance between the UAV's ground projection and each of (..., U, 2) users."""
    return np.sqrt(_squared_ground_distance(uav_xyz, users_xy))


_DB = 10.0 / math.log(10.0)  # a loss of L dB is the linear power gain exp(-L / _DB)


def _ln_gain_law(intercept_db: float, slope: float):
    """(a, k) with ln(gain) = a + k log10(d^2) for the loss intercept_db + 10 slope log10(d)."""
    return -intercept_db / _DB, -5.0 * slope / _DB


def blockage_prob(q, z, cfg: ScenarioConfig, out=None):
    """Probability the link is unblocked by human bodies.

    q is the horizontal UAV-user distance, z the UAV altitude; the result
    lies in (0, 1] and decays exponentially in q, floored at the smallest
    normal double where exp underflows.  out (which may be q) receives it.
    """
    rate = -(cfg.blocker_density_per_m2 * cfg.blocker_diameter_m * cfg.blocker_height_m) / z
    return np.maximum(np.exp(np.multiply(q, rate, out=out), out=out), _TINY, out=out)


def sigmoid_los_prob(q, z, cfg: ScenarioConfig, out=None):
    """Elevation-angle LoS probability (alternative model); out as in blockage_prob."""
    alpha, beta = cfg.sigmoid_alpha, cfg.sigmoid_beta
    elevation = np.degrees(np.arctan2(z, q, out=out), out=out)
    p = np.exp(np.multiply(-beta, np.subtract(elevation, alpha, out=out), out=out), out=out)
    return np.divide(1.0, np.add(1.0, np.multiply(alpha, p, out=out), out=out), out=out)


def los_probability(q, z, cfg: ScenarioConfig, out=None):
    law = sigmoid_los_prob if cfg.los_model == "sigmoid" else blockage_prob
    return law(q, z, cfg, out)


def _direct_ln_gain(uav_xyz, users_xy, cfg: ScenarioConfig, ws: Workspace):
    """ln of the blockage-averaged UAV-user gain in ws's role "gu" ("gi", "scratch": scratch),
    a_nlos + k_nlos log10(d^2) + P_los ((k_los - k_nlos) log10(d^2) + a_los - a_nlos)."""
    z = np.asarray(uav_xyz, dtype=float)[..., 2, None]
    log_d2 = _squared_ground_distance(uav_xyz, users_xy, ws, ("gu", "scratch"))
    q = np.sqrt(log_d2, out=ws.take("scratch", log_d2.shape))
    p_los = los_probability(q, z, cfg, out=q)
    np.log10(np.add(log_d2, z * z, out=log_d2), out=log_d2)
    a_los, k_los = _ln_gain_law(cfg.los_intercept_db, cfg.los_slope)
    a_nlos, k_nlos = _ln_gain_law(cfg.nlos_intercept_db, cfg.nlos_slope)
    mix = np.multiply(log_d2, k_los - k_nlos, out=ws.take("gi", log_d2.shape))
    mix += a_los - a_nlos
    mix *= p_los
    log_d2 *= k_nlos
    log_d2 += a_nlos
    log_d2 += mix
    return log_d2


def uav_link_pathloss(uav_xyz, users_xy, cfg: ScenarioConfig):
    """Blockage-averaged UAV-user pathloss in dB, link_gains' direct law:
    L = P_los * L_los(d) + (1 - P_los) * L_nlos(d) at the slant distance d;
    broadcasts over leading placement axes."""
    return _direct_ln_gain(uav_xyz, users_xy, cfg, Workspace()) * -_DB


def irs_combined_gain(irs_xy, uav_xyz, users_xy, cfg: ScenarioConfig,
                      ws: Optional[Workspace] = None):
    """Coherently combined reflected-link power gain per user.

    Per-element gain is the linear NLoS gain at the element-to-user 3D
    distance (elements sit at irs_height_m above the vehicle position); N
    elements combine coherently into N^2 times that, scaled by the power
    reflection coefficient (which may be 0, so both multiply after the exp).
    An enabled UAV-to-surface leg multiplies in the LoS gain of that hop.
    irs_xy has uav_xyz's leading shape.  Computed in ws's roles "gi" (the
    result) and "scratch".
    """
    height = cfg.irs_height_m
    uav = np.asarray(uav_xyz, dtype=float)
    irs = np.asarray(irs_xy, dtype=float)
    d2 = _squared_ground_distance(irs, users_xy, ws, ("gi", "scratch"))
    d2 += height * height
    a, k = _ln_gain_law(cfg.nlos_intercept_db, cfg.nlos_slope)
    if cfg.irs_uav_leg_enabled:  # the leg is > 0 long: validate() puts the UAV higher
        a_leg, k_leg = _ln_gain_law(cfg.los_intercept_db, cfg.los_slope)
        a = (a + (a_leg + k_leg * np.log10((uav[..., 0] - irs[..., 0]) ** 2
                                           + (uav[..., 1] - irs[..., 1]) ** 2
                                           + (uav[..., 2] - height) ** 2)))[..., None]
    ln_gain = np.log10(d2, out=d2)
    ln_gain *= k
    ln_gain += a
    gain = np.exp(ln_gain, out=ln_gain)
    gain *= cfg.irs_reflection_coeff * cfg.irs_elements_per_user ** 2
    return gain


def link_gains(uav_xyz, irs_xy, users_xy, cfg: ScenarioConfig, ws: Optional[Workspace] = None):
    """Direct and reflected linear gains for every user; broadcasts over placements.

    irs_xy is None when there is no surface, and the reflected gains are
    then None; otherwise it has uav_xyz's leading shape.  The gains are
    written to ws's roles "gu" and "gi"; "scratch" is scratch.
    """
    ws = Workspace() if ws is None else ws
    uav_gain = _direct_ln_gain(uav_xyz, users_xy, cfg, ws)
    np.exp(uav_gain, out=uav_gain)
    if irs_xy is None:
        return uav_gain, None
    return uav_gain, irs_combined_gain(irs_xy, uav_xyz, users_xy, cfg, ws)


def validate_placement(placement: Placement, cfg: ScenarioConfig) -> None:
    """Raises if the placement leaves the region or the altitude band."""
    x, y, z = placement.uav
    if not cfg.region.contains(x, y):
        raise ValueError(f"UAV ({x}, {y}) outside region")
    if not (cfg.uav_alt_min_m - _REGION_TOL <= z <= cfg.uav_alt_max_m + _REGION_TOL):
        raise ValueError(f"UAV altitude {z} outside "
                         f"[{cfg.uav_alt_min_m}, {cfg.uav_alt_max_m}]")
    if placement.irs is not None and not cfg.region.contains(*placement.irs):
        raise ValueError(f"vehicle position {placement.irs} outside region")


def channel_debug_table(placement: Placement, users_xy, cfg: ScenarioConfig) -> list[dict]:
    """Per-user channel breakdown for the CLI inspection dump: the GA's own
    laws at one placement, so its gains are link_gains' bits."""
    users = np.asarray(users_xy, dtype=float)
    uav = np.asarray(placement.uav, dtype=float)
    q = horizontal_distance(uav, users)
    uav_gain, irs_gain = link_gains(uav, placement.irs, users, cfg)
    columns = {"user": np.arange(len(users)), "x": users[:, 0], "y": users[:, 1],
               "distance_3d_m": distance_3d(uav, users), "horizontal_m": q,
               "p_los": los_probability(q, uav[2], cfg),
               "avg_pathloss_db": uav_link_pathloss(uav, users, cfg), "uav_gain": uav_gain,
               "irs_gain": np.zeros(len(users)) if irs_gain is None else irs_gain}
    return [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]
