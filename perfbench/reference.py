"""Independent reference model of one slot, for checking mirsim's outputs.

Written from the model description (README "Model summary"), not from the
package: numpy for the per-user channel gains, plain ``math`` per NOMA pair.
It takes the config snapshot that ``results.json`` carries, the users'
positions from a trace CSV and one placement, and returns every user's
pair id, power fraction, SINR and rate.
"""

from __future__ import annotations

import math

import numpy as np

TINY = np.finfo(float).tiny


def _gain_from_db(loss_db):
    return np.power(10.0, -np.asarray(loss_db) / 10.0)


def los_probability(cfg: dict, horizontal, altitude):
    """Probability that the UAV-user link is unblocked."""
    if cfg["los_model"] == "sigmoid":
        theta = np.degrees(np.arctan2(altitude, horizontal))
        a, b = cfg["sigmoid_alpha"], cfg["sigmoid_beta"]
        return 1.0 / (1.0 + a * np.exp(-b * (theta - a)))
    k = (cfg["blocker_density_per_m2"] * cfg["blocker_diameter_m"]
         * cfg["blocker_height_m"])
    return np.maximum(np.exp(-k * horizontal / altitude), TINY)


def gains(cfg: dict, users, uav, irs):
    """Direct and reflected linear power gains of every user.

    users is (U, 2); uav is (x, y, z); irs is (x, y) or None (no surface).
    """
    users = np.asarray(users, dtype=float)
    ux, uy, uz = uav
    horizontal = np.hypot(users[:, 0] - ux, users[:, 1] - uy)
    slant = np.hypot(horizontal, uz)
    p = los_probability(cfg, horizontal, uz)
    loss_los = cfg["los_intercept_db"] + 10.0 * cfg["los_slope"] * np.log10(slant)
    loss_nlos = cfg["nlos_intercept_db"] + 10.0 * cfg["nlos_slope"] * np.log10(slant)
    direct = _gain_from_db(p * loss_los + (1.0 - p) * loss_nlos)
    if irs is None:
        return direct, np.zeros_like(direct)
    h = cfg["irs_height_m"]
    to_user = np.hypot(np.hypot(users[:, 0] - irs[0], users[:, 1] - irs[1]), h)
    element = _gain_from_db(cfg["nlos_intercept_db"]
                            + 10.0 * cfg["nlos_slope"] * np.log10(to_user))
    n = cfg["irs_elements_per_user"]
    reflected = cfg["irs_reflection_coeff"] * n * n * element
    if cfg["irs_uav_leg_enabled"]:
        hop = math.dist((ux, uy, uz), (irs[0], irs[1], h))
        reflected = reflected * float(_gain_from_db(
            cfg["los_intercept_db"] + 10.0 * cfg["los_slope"] * math.log10(hop)))
    return direct, reflected


def slot_users(cfg: dict, users, uav, irs, access: str) -> list[tuple]:
    """Per user (pair_id, alpha, sinr, rate) at one placement.

    Users sort by direct + reflected gain (stable); the k-th weakest pairs
    with the k-th strongest as pair k, and an odd middle user is alone on
    pair U // 2 at full power.  NOMA splits a pair's power by FTPA; OMA
    gives every user half the resource at full power.
    """
    direct, reflected = gains(cfg, users, uav, irs)
    direct = direct.tolist()
    reflected = reflected.tolist()
    total = [d + r for d, r in zip(direct, reflected)]
    n = len(total)
    order = sorted(range(n), key=lambda u: total[u])
    rho = 10.0 ** ((cfg["uav_tx_power_dbm"] - cfg["noise_power_dbm"]) / 10.0)
    noise = 10.0 ** (cfg["noise_power_dbm"] / 10.0)
    beta = cfg["ftpa_decay"] if cfg["ftpa_favor_strong"] else -cfg["ftpa_decay"]
    out: list = [None] * n
    for k in range(n // 2):
        w, s = order[k], order[n - 1 - k]
        if access == "oma":
            for u in (w, s):
                out[u] = (k, 1.0, total[u] * rho)
            continue
        xw = (total[w] / noise) ** beta
        xs = (total[s] / noise) ** beta
        aw, a_s = xw / (xw + xs), xs / (xw + xs)
        out[w] = (k, aw, (aw * direct[w] + reflected[w]) / (a_s * direct[s] + 1.0 / rho))
        out[s] = (k, a_s, (a_s * direct[s] + reflected[s]) * rho)
    if n % 2:
        m = order[n // 2]
        out[m] = (n // 2, 1.0, total[m] * rho)
    share = 0.5 if access == "oma" else 1.0
    return [(pair, alpha, sinr, share * math.log2(1.0 + sinr)) for pair, alpha, sinr in out]
