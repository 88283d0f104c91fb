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

from .channel import Workspace
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
                  decay: float, favor_strong: bool = False, out=None):
    """Split a pair's power by normalized channel gain to the power -decay.

    Returns (alpha_weak, alpha_strong), summing to 1; works elementwise on
    arrays of pairs.  decay=0 gives an equal split; larger decay shifts
    power toward the weaker channel.  favor_strong=True flips the exponent
    sign so the stronger channel wins instead (comparison mode).  out, a
    triple of float arrays shaped like gain_weak, receives the two shares
    and their unnormalized sum.
    """
    if np.any(gain_weak <= 0) or np.any(gain_strong <= 0):
        raise ValueError("channel gains must be > 0")
    exponent = decay if favor_strong else -decay
    x_weak, x_strong, total = (None, None, None) if out is None else out
    x_weak = np.divide(gain_weak, noise_linear, out=x_weak)
    x_weak **= exponent
    x_strong = np.divide(gain_strong, noise_linear, out=x_strong)
    x_strong **= exponent
    total = np.add(x_weak, x_strong, out=total)
    x_weak /= total
    x_strong /= total
    return x_weak, x_strong


def evaluate_batch(uav_gain, irs_gain, cfg: ScenarioConfig, access: str,
                   ws: Optional[Workspace] = None, full: bool = True) -> dict:
    """Vectorized pairing/allocation/SINR/rates for (P, U) gain arrays.

    access is "noma" or "oma".  The transmit SNR, SINR threshold and noise
    power are the linear forms of cfg's dB keys.

    Returns a dict of arrays: sinr, rate, alpha, feasible (all (P, U)),
    sum_rate and deficit (both (P,)), the pairing index arrays weak/strong
    ((P, K)) and mid, the unpaired user of an odd count ((P,), or None).
    Under OMA every alpha is 1.  Users are ordered as a stable sort of
    their total gains would order them: the default (SIMD) sort, then a
    stable re-sort of the rows whose sorted gains are not strictly
    increasing (ties, NaN), where the two could differ.  full=False returns
    sum_rate and deficit alone, with the same bits, and skips the work only
    the other keys need.

    Every (P, U) array lives in ws (a channel.Workspace), in the roles
    "rate" (total gains, then the pair shares, then the rates), "scratch"
    (sorted gains, then the gathered gains), "sinr" (first the shares'
    sums), "alpha", "feasible" and "pairs" (weak and strong), never in
    "gu" or "gi", which hold channel.link_gains' results.  The gathers and
    scatters index the flattened arrays.
    """
    gu = np.atleast_2d(np.asarray(uav_gain, dtype=float))
    gi = np.atleast_2d(np.asarray(irs_gain, dtype=float))
    if gu.shape != gi.shape:
        raise ValueError("gain arrays must have matching shapes")
    batch, n = gu.shape
    if n == 0:
        raise ValueError("at least one user required")
    if access not in ("noma", "oma"):
        raise ValueError(f"unknown access mode {access!r}")
    ws = Workspace() if ws is None else ws
    rho = db_to_linear(cfg.uav_tx_power_dbm - cfg.noise_power_dbm)
    gamma_th = db_to_linear(cfg.snr_threshold_db)
    half = n // 2
    heff = np.add(gu, gi, out=ws.take("rate", (batch, n)))
    sinr = ws.take("sinr", (batch, n))
    if access == "noma" or full:  # OMA's rates do not depend on the pairing
        # Each row's ascending order, as flat indices into the (batch, n) arrays.
        order = np.argsort(heff, axis=1)
        first = np.arange(0, batch * n, n)[:, None]
        order += first
        ranked = np.take(heff, order, out=ws.take("scratch", (batch, n)), mode="clip")
        redo = np.flatnonzero(~(ranked[:, 1:] > ranked[:, :-1]).all(axis=1))
        if redo.size:
            order[redo] = np.argsort(heff[redo], axis=1, kind="stable") + first[redo]
            ranked[redo] = np.take(heff, order[redo])
        weak, strong = ws.take("pairs", (2, batch, half), np.intp)
        np.copyto(weak, order[:, :half])
        np.copyto(strong, order[:, ::-1][:, :half])
        mid = order[:, half] if n % 2 else None
    if full:
        alpha = ws.take("alpha", (batch, n))
        alpha.fill(1.0)

    if access == "noma":
        mid_sinr = ranked[:, half] * rho if mid is not None else None
        alpha_weak, alpha_strong = ftpa_allocate(
            ranked[:, :half], ranked[:, ::-1][:, :half], db_to_linear(cfg.noise_power_dbm),
            cfg.ftpa_decay, cfg.ftpa_favor_strong,
            out=(*ws.take("rate", (2, batch, half)), ws.take("sinr", (batch, half))))
        if full:
            np.put(alpha, weak, alpha_weak)
            np.put(alpha, strong, alpha_strong)
        # The strong user cancels the weak signal; the weak one hears the strong one's.
        weak_sinr, interference = alpha_weak, alpha_strong  # their buffers, reused
        gathered = ws.take("scratch", (batch, half))
        interference *= np.take(gu, strong, out=gathered, mode="clip")
        strong_sinr = np.take(gi, strong, out=gathered, mode="clip")
        strong_sinr += interference
        strong_sinr *= rho
        np.put(sinr, strong, strong_sinr)
        interference += 1.0 / rho
        weak_sinr *= np.take(gu, weak, out=gathered, mode="clip")
        weak_sinr += np.take(gi, weak, out=gathered, mode="clip")
        weak_sinr /= interference
        np.put(sinr, weak, weak_sinr)
        if mid is not None:
            np.put(sinr, mid, mid_sinr)
    else:
        np.multiply(heff, rho, out=sinr)

    shortfall = np.subtract(gamma_th, sinr, out=ws.take("rate", (batch, n)))
    deficit = np.maximum(0.0, shortfall, out=shortfall).sum(axis=1)
    rate = np.log2(np.add(1.0, sinr, out=shortfall), out=shortfall)  # the same buffer
    if access == "oma":
        rate *= 0.5
    if not full:
        return {"sum_rate": rate.sum(axis=1), "deficit": deficit}
    # Back from flat indices to user indices.
    weak -= first
    strong -= first
    return {
        "sinr": sinr,
        "rate": rate,
        "alpha": alpha,
        "feasible": np.greater_equal(sinr, gamma_th, out=ws.take("feasible", (batch, n), bool)),
        "sum_rate": rate.sum(axis=1),
        "deficit": deficit,
        "weak": weak,
        "strong": strong,
        "mid": None if mid is None else mid - first[:, 0],
    }
