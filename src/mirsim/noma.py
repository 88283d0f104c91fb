"""User pairing, power allocation, SINR, and per-slot rates.

Users are sorted by total effective gain (direct plus reflected) and the
k-th weakest is paired with the k-th strongest; each pair shares one
sub-band.  Within a pair the fractional transmit power allocation gives the
weaker channel the larger share (decay exponent beta; beta=0 splits power
equally).  The weak user decodes under the strong user's interference; the
strong user cancels the weak signal first and sees noise only.  Reflected
gains enter SINR numerators unscaled by the power fractions.  An odd user
count leaves the middle user alone on its band at full sub-band power.

The OMA baseline gives each user half the resource at full power.

``evaluate_batch`` does all of this for a whole batch of candidate
placements at once, with ``ftpa_allocate`` splitting every pair's power; it
reads the power, threshold and FTPA keys straight from the config and
linearizes the dB ones.  The GA keeps its final generation's evaluation,
and ``SlotResult.from_batch`` copies the winner's row out of it: the slot's
result, which keeps the pairing as index arrays; the CLI turns it into
report rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .scenario import ScenarioConfig, db_to_linear


@dataclass
class SlotResult:
    """Per-user SINRs, power fractions, rates, and the slot sum rate.

    Pair k is (weak[k], strong[k]); mid is the unpaired user of an odd
    count, else None.
    """

    sinr: np.ndarray
    rate: np.ndarray
    alpha: np.ndarray
    pair_id: np.ndarray
    feasible: np.ndarray
    sum_rate: float
    weak: np.ndarray
    strong: np.ndarray
    mid: Optional[int]

    @property
    def any_feasible(self) -> bool:
        return bool(np.any(self.feasible))

    @classmethod
    def from_batch(cls, ev: dict, row: int) -> "SlotResult":
        """Row `row` of an evaluate_batch result, copied out of the batch arrays."""
        arrays = ("sinr", "rate", "alpha", "pair_id", "feasible", "weak", "strong")
        return cls(**{key: ev[key][row].copy() for key in arrays},
                   sum_rate=float(ev["sum_rate"][row]),
                   mid=None if ev["mid"] is None else int(ev["mid"][row]))


def ftpa_allocate(gain_weak, gain_strong, noise_linear: float,
                  decay: float, favor_strong: bool = False):
    """Split a pair's power by normalized channel gain to the power -decay.

    Returns (alpha_weak, alpha_strong), summing to 1; works elementwise on
    arrays of pairs.  decay=0 gives an equal split; larger decay shifts
    power toward the weaker channel.  favor_strong=True flips the exponent
    sign so the stronger channel wins instead (comparison mode).
    """
    if np.any(gain_weak <= 0) or np.any(gain_strong <= 0):
        raise ValueError("channel gains must be > 0")
    exponent = decay if favor_strong else -decay
    x_weak = (gain_weak / noise_linear) ** exponent
    x_strong = (gain_strong / noise_linear) ** exponent
    total = x_weak + x_strong
    return x_weak / total, x_strong / total


def evaluate_batch(uav_gain, irs_gain, cfg: ScenarioConfig, access: str) -> dict:
    """Vectorized pairing/allocation/SINR/rates for (P, U) gain arrays.

    access is "noma" or "oma".  The transmit SNR, SINR threshold and noise
    power are the linear forms of cfg's dB keys.

    Returns a dict of arrays: sinr, rate, alpha, pair_id, feasible (all
    (P, U)), sum_rate and deficit (both (P,)), the pairing index arrays
    weak/strong ((P, K)) and mid, the unpaired user of an odd count ((P,),
    or None).  Under OMA every alpha is 1.
    """
    gu = np.atleast_2d(np.asarray(uav_gain, dtype=float))
    gi = np.atleast_2d(np.asarray(irs_gain, dtype=float))
    if gu.shape != gi.shape:
        raise ValueError("gain arrays must have matching shapes")
    batch, n = gu.shape
    if n == 0:
        raise ValueError("at least one user required")
    rho = db_to_linear(cfg.uav_tx_power_dbm - cfg.noise_power_dbm)
    gamma_th = db_to_linear(cfg.snr_threshold_db)
    heff = gu + gi
    order = np.argsort(heff, axis=1, kind="stable")
    half = n // 2
    rows = np.arange(batch)[:, None]
    weak = order[:, :half]
    strong = order[:, ::-1][:, :half]

    pair_id = np.empty((batch, n), dtype=int)
    if half:
        pair_id[rows, weak] = np.arange(half)[None, :]
        pair_id[rows, strong] = np.arange(half)[None, :]
    mid = order[:, half] if n % 2 else None
    if mid is not None:
        pair_id[np.arange(batch), mid] = half

    alpha = np.ones((batch, n), dtype=float)
    if access == "noma":
        sinr_arr = np.empty((batch, n), dtype=float)
        if half:
            alpha_weak, alpha_strong = ftpa_allocate(
                heff[rows, weak], heff[rows, strong], db_to_linear(cfg.noise_power_dbm),
                cfg.ftpa_decay, cfg.ftpa_favor_strong)
            sig_weak = alpha_weak * gu[rows, weak] + gi[rows, weak]
            sinr_arr[rows, weak] = sig_weak / (alpha_strong * gu[rows, strong] + 1.0 / rho)
            sinr_arr[rows, strong] = (alpha_strong * gu[rows, strong]
                                      + gi[rows, strong]) * rho
            alpha[rows, weak] = alpha_weak
            alpha[rows, strong] = alpha_strong
        if mid is not None:
            mrows = np.arange(batch)
            sinr_arr[mrows, mid] = (gu[mrows, mid] + gi[mrows, mid]) * rho
        rate = np.log2(1.0 + sinr_arr)
    elif access == "oma":
        sinr_arr = heff * rho
        rate = 0.5 * np.log2(1.0 + sinr_arr)
    else:
        raise ValueError(f"unknown access mode {access!r}")

    return {
        "sinr": sinr_arr,
        "rate": rate,
        "alpha": alpha,
        "pair_id": pair_id,
        "feasible": sinr_arr >= gamma_th,
        "sum_rate": rate.sum(axis=1),
        "deficit": np.maximum(0.0, gamma_th - sinr_arr).sum(axis=1),
        "weak": weak,
        "strong": strong,
        "mid": mid,
    }

