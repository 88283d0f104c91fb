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

import math
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


class Workspace:
    """Scratch arrays that the fitness kernels reuse from call to call.

    A role names one flat buffer, not one quantity: a kernel writes an
    intermediate into a role once the role's previous contents are dead, and
    its next call overwrites them all.  ``take`` returns a C-contiguous view
    of the role's buffer, which is replaced only when a call needs a larger
    one or another dtype, so same-sized calls allocate nothing after the
    first.  Arrays a kernel returns with a workspace are views into it, valid
    until its next use; a kernel called without one uses a workspace of its
    own, so its results are fresh arrays.  A workspace serves one thread.
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


def blockage_prob(q, z, cfg: ScenarioConfig, out=None):
    """Probability the link is unblocked by human bodies.

    q is the horizontal UAV-user distance, z the UAV altitude; the result
    lies in (0, 1] and decays exponentially in q.  out (which may be q)
    receives the result.
    """
    q = np.asarray(q, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        raise ValueError("altitude must be > 0")
    if np.any(q < 0):
        raise ValueError("horizontal distance must be >= 0")
    p = np.multiply(cfg.blocker_density_per_m2 * cfg.blocker_diameter_m, q, out=out)
    p = np.multiply(p, cfg.blocker_height_m, out=out)
    p = np.divide(p, z, out=out)  # the exponent
    p = np.exp(np.negative(p, out=out), out=out)
    return np.maximum(p, _TINY, out=out)


def sigmoid_los_prob(q, z, cfg: ScenarioConfig, out=None):
    """Elevation-angle LoS probability (alternative model); out as in blockage_prob."""
    q = np.asarray(q, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        raise ValueError("altitude must be > 0")
    alpha, beta = cfg.sigmoid_alpha, cfg.sigmoid_beta
    p = np.degrees(np.arctan2(z, q, out=out), out=out)  # the elevation angle
    p = np.multiply(-beta, np.subtract(p, alpha, out=out), out=out)
    p = np.multiply(alpha, np.exp(p, out=out), out=out)
    return np.divide(1.0, np.add(1.0, p, out=out), out=out)


def los_probability(q, z, cfg: ScenarioConfig, out=None):
    if cfg.los_model == "sigmoid":
        return sigmoid_los_prob(q, z, cfg, out)
    return blockage_prob(q, z, cfg, out)


def uav_link_pathloss(uav_xyz, users_xy, cfg: ScenarioConfig, ws: Optional[Workspace] = None):
    """Blockage-averaged UAV-user pathloss in dB.

    L = P_los * L_los(d) + (1 - P_los) * L_nlos(d), evaluated at the slant
    distance d; broadcasts over leading placement axes.  Computed in ws's
    roles "gi" (the x offsets, then d, log10(d) and L_nlos), "gu" (the y
    offsets, then L, the result) and "scratch" (q, then P_los and 1 - P_los).
    """
    ws = Workspace() if ws is None else ws
    uav = np.asarray(uav_xyz, dtype=float)
    users = np.asarray(users_xy, dtype=float)
    z = uav[..., 2, None]
    shape = np.broadcast_shapes(z.shape, users.shape[:-1])
    dx = np.subtract(uav[..., 0, None], users[..., 0], out=ws.take("gi", shape))
    dy = np.subtract(uav[..., 1, None], users[..., 1], out=ws.take("gu", shape))
    q = np.hypot(dx, dy, out=ws.take("scratch", shape))
    d = np.multiply(dx, dx, out=dx)
    d += np.multiply(dy, dy, out=dy)
    d += z ** 2
    np.sqrt(d, out=d)
    p_los = los_probability(q, z, cfg, out=q)
    log_d = _log10_distance(d, out=d)
    loss = _log_law(log_d, cfg.los_intercept_db, cfg.los_slope, out=dy)
    loss *= p_los
    nlos = _log_law(log_d, cfg.nlos_intercept_db, cfg.nlos_slope, out=log_d)
    nlos *= np.subtract(1.0, p_los, out=p_los)
    loss += nlos
    return loss


def irs_combined_gain(irs_xy, uav_xyz, users_xy, cfg: ScenarioConfig,
                      ws: Optional[Workspace] = None):
    """Coherently combined reflected-link power gain per user.

    Per-element gain is the linear NLoS gain at the element-to-user 3D
    distance (elements sit at irs_height_m above the vehicle position); N
    elements combine coherently into N^2 times that, scaled by the power
    reflection coefficient.  When the UAV-to-surface leg is enabled the
    product additionally includes the LoS gain of that hop.  A surface
    position shared by several UAV placements is scored once for each.
    Computed in ws's roles "gi" (the x offsets, then the result) and "scratch".
    """
    ws = Workspace() if ws is None else ws
    irs_height = cfg.irs_height_m
    uav = np.asarray(uav_xyz, dtype=float)
    irs = np.asarray(irs_xy, dtype=float)
    irs = np.broadcast_to(irs, np.broadcast_shapes(irs.shape[:-1], uav.shape[:-1]) + (2,))
    users = np.asarray(users_xy, dtype=float)
    shape = np.broadcast_shapes(irs.shape[:-1] + (1,), users.shape[:-1])
    dx = np.subtract(irs[..., 0, None], users[..., 0], out=ws.take("gi", shape))
    dy = np.subtract(irs[..., 1, None], users[..., 1], out=ws.take("scratch", shape))
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
        d_ui = np.sqrt((uav[..., 0] - irs[..., 0]) ** 2
                       + (uav[..., 1] - irs[..., 1]) ** 2
                       + (uav[..., 2] - irs_height) ** 2)
        if np.any(d_ui <= 0):
            raise ValueError("degenerate UAV-to-surface distance")
        gain *= np.asarray(db_to_linear(-pathloss_los(d_ui, cfg)))[..., None]
    return gain


def link_gains(uav_xyz, irs_xy, users_xy, cfg: ScenarioConfig, ws: Optional[Workspace] = None):
    """Direct and reflected linear gains for every user; broadcasts over placements.

    irs_xy None means there is no surface: every reflected gain is zero.
    The gains are written to ws's roles "gu" and "gi"; "scratch" is scratch.
    """
    ws = Workspace() if ws is None else ws
    uav_gain = _to_gain(uav_link_pathloss(uav_xyz, users_xy, cfg, ws))
    if irs_xy is None:
        irs_gain = ws.take("gi", uav_gain.shape)
        irs_gain.fill(0.0)
        return uav_gain, irs_gain
    return uav_gain, irs_combined_gain(irs_xy, uav_xyz, users_xy, cfg, ws)


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
