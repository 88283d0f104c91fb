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
    feasible: np.ndarray
    sum_rate: float
    weak: np.ndarray
    strong: np.ndarray
    mid: Optional[int]

    @classmethod
    def from_batch(cls, ev: dict, row: int) -> "SlotResult":
        """Row `row` of an evaluate_batch result, copied out of the batch arrays."""
        arrays = ("sinr", "rate", "alpha", "feasible", "weak", "strong")
        return cls(**{key: ev[key][row].copy() for key in arrays},
                   sum_rate=float(ev["sum_rate"][row]),
                   mid=None if ev["mid"] is None else int(ev["mid"][row]))

    @property
    def pair_id(self) -> np.ndarray:
        """Each user's pair k; the unpaired mid user's is the pair count."""
        pair_id = np.full(len(self.sinr), len(self.weak))
        pair_id[self.weak] = pair_id[self.strong] = np.arange(len(self.weak))
        return pair_id


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
    x_weak = gain_weak / noise_linear
    x_weak **= exponent
    x_strong = gain_strong / noise_linear
    x_strong **= exponent
    total = x_weak + x_strong
    x_weak /= total
    x_strong /= total
    return x_weak, x_strong


def evaluate_batch(uav_gain, irs_gain, cfg: ScenarioConfig, access: str) -> dict:
    """Vectorized pairing/allocation/SINR/rates for (P, U) gain arrays.

    access is "noma" or "oma".  The transmit SNR, SINR threshold and noise
    power are the linear forms of cfg's dB keys.

    Returns a dict of arrays: sinr, rate, alpha, feasible (all (P, U)),
    sum_rate and deficit (both (P,)), the pairing index arrays weak/strong
    ((P, K)) and mid, the unpaired user of an odd count ((P,), or None).
    Under OMA every alpha is 1.  Users are ordered as a stable sort of
    their total gains would order them: the default (SIMD) sort, then a
    stable re-sort of the rows whose sorted gains are not strictly
    increasing (ties, NaN), where the two could differ.
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
    order = np.argsort(heff, axis=1)
    rows = np.arange(batch)[:, None]
    ranked = heff[rows, order]
    redo = np.flatnonzero(~(ranked[:, 1:] > ranked[:, :-1]).all(axis=1))
    if redo.size:
        order[redo] = np.argsort(heff[redo], axis=1, kind="stable")
        ranked[redo] = heff[redo[:, None], order[redo]]
    half = n // 2
    weak = order[:, :half]
    strong = order[:, ::-1][:, :half]
    mid = order[:, half] if n % 2 else None

    if access == "noma":
        del heff
        alpha_weak, alpha_strong = ftpa_allocate(
            ranked[:, :half], ranked[:, ::-1][:, :half], db_to_linear(cfg.noise_power_dbm),
            cfg.ftpa_decay, cfg.ftpa_favor_strong)
        mid_sinr = ranked[:, half] * rho if mid is not None else None
        del ranked
        alpha = np.ones((batch, n), dtype=float)
        alpha[rows, weak] = alpha_weak
        alpha[rows, strong] = alpha_strong
        # The strong user cancels the weak signal; the weak one hears the strong one's.
        weak_sinr, interference = alpha_weak, alpha_strong  # their buffers, reused
        del alpha_weak, alpha_strong
        interference *= gu[rows, strong]
        strong_sinr = gi[rows, strong]
        strong_sinr += interference
        strong_sinr *= rho
        interference += 1.0 / rho
        weak_sinr *= gu[rows, weak]
        weak_sinr += gi[rows, weak]
        weak_sinr /= interference
        del interference
        sinr = np.empty((batch, n), dtype=float)
        sinr[rows, weak] = weak_sinr
        sinr[rows, strong] = strong_sinr
        if mid is not None:
            sinr[rows[:, 0], mid] = mid_sinr
        del weak_sinr, strong_sinr
    elif access == "oma":
        del ranked
        alpha = np.ones((batch, n), dtype=float)
        sinr = heff
        sinr *= rho
    else:
        raise ValueError(f"unknown access mode {access!r}")

    shortfall = np.subtract(gamma_th, sinr)
    deficit = np.maximum(0.0, shortfall, out=shortfall).sum(axis=1)
    rate = np.log2(np.add(1.0, sinr, out=shortfall), out=shortfall)  # the same buffer
    if access == "oma":
        rate *= 0.5
    return {
        "sinr": sinr,
        "rate": rate,
        "alpha": alpha,
        "feasible": sinr >= gamma_th,
        "sum_rate": rate.sum(axis=1),
        "deficit": deficit,
        "weak": weak,
        "strong": strong,
        "mid": mid,
    }
