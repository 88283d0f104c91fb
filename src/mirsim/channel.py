"""Geometry, pathloss, blockage, and link gains.

The UAV-to-user link uses a blockage-averaged pathloss: the line-of-sight
probability weights separate LoS/NLoS log-distance laws, and the averaged
dB value converts to a linear power gain.  The vehicle-mounted reflecting
surface serves each user through N elements in the horizontal plane at a
fixed mounting height; its per-element NLoS gain combines coherently, so the
aggregate scales as N^2.  Users are a (..., U, 2) array.  All functions
are pure and broadcast over leading placement axes, so a batch of candidate
placements evaluates in one call; (J, 1, U, 2) users against (J, P, .)
placements score P candidates of each of J jobs, each job with its own users.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .scenario import ScenarioConfig, db_to_linear

_TINY = np.finfo(float).tiny  # keeps LoS probability strictly positive


@dataclass(frozen=True)
class Placement:
    """UAV 3D position and vehicle 2D position, meters; irs is None without a surface."""

    uav: tuple[float, float, float]
    irs: Optional[tuple[float, float]]


def distance_3d(uav_xyz, users_xy):
    """Slant distance from the UAV to (..., U, 2) ground users (users at z=0)."""
    uav = np.asarray(uav_xyz, dtype=float)
    users = np.asarray(users_xy, dtype=float)
    dx = uav[..., 0, None] - users[..., 0]
    dy = uav[..., 1, None] - users[..., 1]
    return np.sqrt(dx * dx + dy * dy + uav[..., 2, None] ** 2)


def horizontal_distance(uav_xyz, users_xy):
    """2D distance between the UAV's ground projection and each of (..., U, 2) users."""
    uav = np.asarray(uav_xyz, dtype=float)
    users = np.asarray(users_xy, dtype=float)
    return np.hypot(uav[..., 0, None] - users[..., 0], uav[..., 1, None] - users[..., 1])


def pathloss_los(d, cfg: ScenarioConfig):
    """LoS pathloss in dB at distance d (meters)."""
    return _log_law(_log10_distance(d), cfg.los_intercept_db, cfg.los_slope)


def pathloss_nlos(d, cfg: ScenarioConfig):
    """NLoS pathloss in dB at distance d (meters)."""
    return _log_law(_log10_distance(d), cfg.nlos_intercept_db, cfg.nlos_slope)


def _log10_distance(d, out=None):
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("pathloss distance must be > 0")
    return np.log10(d, out=out)


def _log_law(log_d, intercept_db: float, slope: float, out=None):
    """intercept_db + 10 slope log10(d) from log_d = log10(d); out may be log_d."""
    loss = np.multiply(log_d, 10.0 * slope, out=out)
    loss += intercept_db
    return loss


def _to_gain(loss_db):
    """db_to_linear(-loss_db), computed in loss_db's buffer."""
    np.negative(loss_db, out=loss_db)
    loss_db /= 10.0
    return np.power(10.0, loss_db, out=loss_db)


def blockage_prob(q, z, cfg: ScenarioConfig):
    """Probability the link is unblocked by human bodies.

    q is the horizontal UAV-user distance, z the UAV altitude; the result
    lies in (0, 1] and decays exponentially in q.
    """
    q = np.asarray(q, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        raise ValueError("altitude must be > 0")
    if np.any(q < 0):
        raise ValueError("horizontal distance must be >= 0")
    exponent = cfg.blocker_density_per_m2 * cfg.blocker_diameter_m * q * cfg.blocker_height_m / z
    return np.maximum(np.exp(-exponent), _TINY)


def sigmoid_los_prob(q, z, cfg: ScenarioConfig):
    """Elevation-angle LoS probability (alternative model)."""
    q = np.asarray(q, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        raise ValueError("altitude must be > 0")
    theta_deg = np.degrees(np.arctan2(z, q))
    alpha, beta = cfg.sigmoid_alpha, cfg.sigmoid_beta
    return 1.0 / (1.0 + alpha * np.exp(-beta * (theta_deg - alpha)))


def los_probability(q, z, cfg: ScenarioConfig):
    if cfg.los_model == "sigmoid":
        return sigmoid_los_prob(q, z, cfg)
    return blockage_prob(q, z, cfg)


def uav_link_pathloss(uav_xyz, users_xy, cfg: ScenarioConfig):
    """Blockage-averaged UAV-user pathloss in dB.

    L = P_los * L_los(d) + (1 - P_los) * L_nlos(d), evaluated at the slant
    distance d; broadcasts over leading placement axes.  Computed in place:
    the offsets' buffers become d, then log10(d), then L_nlos.
    """
    uav = np.asarray(uav_xyz, dtype=float)
    users = np.asarray(users_xy, dtype=float)
    z = uav[..., 2, None]
    dx = uav[..., 0, None] - users[..., 0]
    dy = uav[..., 1, None] - users[..., 1]
    q = np.hypot(dx, dy)
    d = np.multiply(dx, dx, out=dx)
    d += np.multiply(dy, dy, out=dy)
    del dy
    d += z ** 2
    np.sqrt(d, out=d)
    p_los = los_probability(q, z, cfg)
    del q
    log_d = _log10_distance(d, out=d)
    loss = _log_law(log_d, cfg.los_intercept_db, cfg.los_slope)
    loss *= p_los
    nlos = _log_law(log_d, cfg.nlos_intercept_db, cfg.nlos_slope, out=log_d)
    nlos *= np.subtract(1.0, p_los, out=p_los)
    loss += nlos
    return loss


def irs_combined_gain(irs_xy, uav_xyz, users_xy, cfg: ScenarioConfig):
    """Coherently combined reflected-link power gain per user.

    Per-element gain is the linear NLoS gain at the element-to-user 3D
    distance (elements sit at irs_height_m above the vehicle position); N
    elements combine coherently into N^2 times that, scaled by the power
    reflection coefficient.  When the UAV-to-surface leg is enabled the
    product additionally includes the LoS gain of that hop.
    """
    irs_height = cfg.irs_height_m
    irs = np.asarray(irs_xy, dtype=float)
    users = np.asarray(users_xy, dtype=float)
    dx = irs[..., 0, None] - users[..., 0]
    dy = irs[..., 1, None] - users[..., 1]
    d_iu = np.multiply(dx, dx, out=dx)
    d_iu += np.multiply(dy, dy, out=dy)
    del dy
    d_iu += irs_height * irs_height
    np.sqrt(d_iu, out=d_iu)
    if np.any(d_iu <= 0):
        raise ValueError("degenerate surface-to-user distance")
    log_d = np.log10(d_iu, out=d_iu)
    gain = _to_gain(_log_law(log_d, cfg.nlos_intercept_db, cfg.nlos_slope, out=log_d))
    n = cfg.irs_elements_per_user
    gain *= cfg.irs_reflection_coeff * (n * n)
    if cfg.irs_uav_leg_enabled:
        uav = np.asarray(uav_xyz, dtype=float)
        d_ui = np.sqrt((uav[..., 0] - irs[..., 0]) ** 2
                       + (uav[..., 1] - irs[..., 1]) ** 2
                       + (uav[..., 2] - irs_height) ** 2)
        if np.any(d_ui <= 0):
            raise ValueError("degenerate UAV-to-surface distance")
        gain = gain * np.asarray(db_to_linear(-pathloss_los(d_ui, cfg)))[..., None]
    return gain


def link_gains(uav_xyz, irs_xy, users_xy, cfg: ScenarioConfig):
    """Direct and reflected linear gains for every user; broadcasts over placements.

    irs_xy None means there is no surface: every reflected gain is zero.
    """
    uav_gain = _to_gain(uav_link_pathloss(uav_xyz, users_xy, cfg))
    if irs_xy is None:
        return uav_gain, np.zeros_like(uav_gain)
    irs_gain = irs_combined_gain(irs_xy, uav_xyz, users_xy, cfg)
    if irs_gain.shape != uav_gain.shape:  # a surface shared by several placements
        irs_gain = np.broadcast_to(irs_gain, uav_gain.shape).copy()
    return uav_gain, irs_gain


def validate_placement(placement: Placement, cfg: ScenarioConfig) -> None:
    """Raises if the placement leaves the region or the altitude band."""
    x, y, z = placement.uav
    if not cfg.region.contains(x, y):
        raise ValueError(f"UAV ({x}, {y}) outside region")
    if not (cfg.uav_alt_min_m - 1e-9 <= z <= cfg.uav_alt_max_m + 1e-9):
        raise ValueError(f"UAV altitude {z} outside "
                         f"[{cfg.uav_alt_min_m}, {cfg.uav_alt_max_m}]")
    if placement.irs is not None and not cfg.region.contains(*placement.irs):
        raise ValueError(f"vehicle position {placement.irs} outside region")


def channel_debug_table(placement: Placement, users_xy, cfg: ScenarioConfig) -> list[dict]:
    """Per-user channel breakdown for the CLI inspection dump."""
    users = np.asarray(users_xy, dtype=float)
    uav = np.asarray(placement.uav, dtype=float)
    d = distance_3d(uav, users)
    q = horizontal_distance(uav, users)
    p_los = los_probability(q, uav[2], cfg)
    loss = uav_link_pathloss(uav, users, cfg)
    uav_gain, irs_gain = link_gains(uav, placement.irs, users, cfg)
    rows = []
    for i in range(len(users)):
        rows.append({
            "user": i,
            "x": float(users[i, 0]),
            "y": float(users[i, 1]),
            "distance_3d_m": float(d[i]),
            "horizontal_m": float(q[i]),
            "p_los": float(p_los[i]),
            "avg_pathloss_db": float(loss[i]),
            "uav_gain": float(uav_gain[i]),
            "irs_gain": float(irs_gain[i]),
        })
    return rows
