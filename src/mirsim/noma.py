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
placements at once, with ``ftpa_allocate`` splitting every pair's power (one
power per pair), in pair order, so a score-only call scatters nothing back
to user order; it reads the power, threshold and FTPA keys straight from the
config and linearizes the dB ones.  The GA scores its generations for sum
rate and deficit alone; ``SlotResult.of`` evaluates one placement in full, as
a one-row batch: a slot's result, which keeps the pairing as index arrays;
the CLI turns it into report rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import Placement, Workspace, link_gains
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
    def of(cls, placement: Placement, users_xy, cfg: ScenarioConfig, access: str) -> "SlotResult":
        """placement's full evaluation for (U, 2) users, in fresh arrays: the
        row a GA candidate at placement gets in any evaluate_batch call."""
        ev = evaluate_batch(*link_gains(placement.uav, placement.irs, users_xy, cfg), cfg, access)
        arrays = ("sinr", "rate", "alpha", "feasible", "weak", "strong")
        return cls(**{key: ev[key][0] for key in arrays}, sum_rate=float(ev["sum_rate"][0]),
                   mid=None if ev["mid"] is None else int(ev["mid"][0]))

    @property
    def pair_id(self) -> np.ndarray:
        """Each user's pair k; the unpaired mid user's is the pair count."""
        pair_id = np.full(len(self.sinr), len(self.weak))
        pair_id[self.weak] = pair_id[self.strong] = np.arange(len(self.weak))
        return pair_id


def ftpa_allocate(gain_weak, gain_strong, decay: float, favor_strong: bool = False, out=None):
    """Split a pair's power by channel gain to the power -decay.

    Returns (alpha_weak, alpha_strong), summing to 1; works elementwise on
    arrays of pairs.  decay=0 gives an equal split; larger decay shifts
    power toward the weaker channel.  favor_strong=True flips the exponent
    sign so the stronger channel wins instead (comparison mode).  One power
    per pair: r = (gain_strong / gain_weak) ** -decay, alpha_weak = 1 / (1 +
    r), alpha_strong = r * alpha_weak.  out, a pair of arrays shaped like
    gain_weak, receives them.
    """
    exponent = decay if favor_strong else -decay
    weak_out, strong_out = (None, None) if out is None else out
    ratio = np.power(np.divide(gain_strong, gain_weak, out=strong_out), exponent, out=strong_out)
    alpha_weak = np.divide(1.0, np.add(ratio, 1.0, out=weak_out), out=weak_out)
    return alpha_weak, np.multiply(ratio, alpha_weak, out=strong_out)


def evaluate_batch(uav_gain, irs_gain, cfg: ScenarioConfig, access: str,
                   ws: Optional[Workspace] = None, full: bool = True) -> dict:
    """Vectorized pairing/allocation/SINR/rates for (P, U) gain arrays.

    access is "noma" or "oma".  irs_gain None means no reflected link,
    which gives the bits of an all-zero irs_gain.  The transmit SNR and SINR
    threshold are the linear forms of cfg's dB keys.  Like the channel
    kernels, it relies on scenario.validate's bounds and does not check its
    inputs: gains of one (P, U) shape, U >= 1, and access "noma" or "oma".

    Returns a dict of arrays: sinr, rate, alpha, feasible (all (P, U)),
    sum_rate and deficit (both (P,)), the pairing index arrays weak/strong
    ((P, K)) and mid, the unpaired user of an odd count ((P,), or None).
    Under OMA every alpha is 1.  Users are ranked as a stable sort of their
    total gains would rank them.  Each gain's bits (gains are >= 0 and
    finite, so their bits sort as they do), with the low (U - 1).bit_length()
    bits replaced by the user index, form a key; the keys are sorted in place
    and masked back to user indices.  A row whose ranked gains are not
    strictly increasing (ties, gains apart only in the replaced bits, or any
    input the keys misorder) is ranked again by a stable argsort; a strictly
    increasing row is in the one order that sorts it.  NOMA works and sums
    each row in pair order, as flat blocks of weak users, strong users and
    mid users; OMA in user order.  full=False returns sum_rate and deficit
    alone, with the same bits, and skips the work only the other keys need.

    Every (P, U) array lives in ws (a channel.Workspace), never in "gu" or
    "gi", which hold channel.link_gains' results: "rate" (total gains, pair
    shares, rates), "scratch" (sorted gains, pair-order reflected gains, a
    full NOMA call's SINRs), "sinr" (the ranking keys as int64, SINRs, a
    full NOMA call's rates), "alpha", "feasible" and "pairs" (users in pair
    order).  The gathers and scatters index the flattened arrays.
    """
    gu = np.atleast_2d(np.asarray(uav_gain, dtype=float))
    gi = None if irs_gain is None else np.atleast_2d(np.asarray(irs_gain, dtype=float))
    batch, n = gu.shape
    ws = Workspace() if ws is None else ws
    rho = db_to_linear(cfg.uav_tx_power_dbm - cfg.noise_power_dbm)
    gamma_th = db_to_linear(cfg.snr_threshold_db)
    half = n // 2
    cut = batch * half  # pair-order blocks: [:cut] weak, [cut:2 * cut] strong, then mid
    heff = gu if gi is None else np.add(gu, gi, out=ws.take("rate", (batch, n)))
    alpha = ws.take("alpha", (batch, n)) if full else None
    if access == "noma" or full:  # OMA's rates do not depend on the pairing
        # Each row's ascending order, as flat indices into the (batch, n) arrays: a gain's
        # bits sort as the gain does, and its low bits give way to the user index.
        low = (1 << (n - 1).bit_length()) - 1
        order = np.bitwise_and(heff.view(np.int64), ~low,
                               out=ws.take("sinr", (batch, n)).view(np.int64))
        order |= np.arange(n)
        order.sort(axis=1)
        order &= low
        first = np.arange(0, batch * n, n)[:, None]
        order += first
        ranked = np.take(heff, order, out=ws.take("scratch", (batch, n)), mode="clip")
        redo = np.flatnonzero(~(ranked[:, 1:] > ranked[:, :-1]).all(axis=1))
        if redo.size:  # ties, or gains apart only in the bits the user index took
            order[redo] = np.argsort(heff[redo], axis=1, kind="stable") + first[redo]
            ranked[redo] = np.take(heff, order[redo])
        pairs = ws.take("pairs", (batch * n,), np.intp)  # users in pair order
        weak, strong = pairs[:cut].reshape(batch, half), pairs[cut:2 * cut].reshape(batch, half)
        mid = pairs[2 * cut:].reshape(batch, n % 2)
        np.copyto(weak, order[:, :half])
        np.copyto(strong, order[:, ::-1][:, :half])
        np.copyto(mid, order[:, half:n - half])

    if access == "noma":
        shares = ws.take("rate", (batch * n,))  # in pair order, like sinr
        alpha_weak, alpha_strong = ftpa_allocate(
            ranked[:, :half], ranked[:, ::-1][:, :half], cfg.ftpa_decay, cfg.ftpa_favor_strong,
            out=shares[:2 * cut].reshape(2, batch, half))
        if full:
            shares[2 * cut:] = 1.0
            np.put(alpha, pairs, shares)
        sinr = np.take(gu, pairs, out=ws.take("sinr", (batch * n,)), mode="clip")
        reflected = None if gi is None else np.take(gi, pairs, out=ranked.ravel(), mode="clip")
        # The strong user cancels the weak signal; the weak one hears the strong one's.
        weak_sinr, strong_sinr = sinr[:cut], sinr[cut:2 * cut]
        strong_sinr *= alpha_strong.ravel()  # the interference the weak user hears
        weak_sinr *= alpha_weak.ravel()
        noise_floor = np.add(strong_sinr, 1.0 / rho, out=alpha_weak.ravel())
        if gi is not None:
            weak_sinr += reflected[:cut]
            sinr[cut:] += reflected[cut:]  # the strong users' and mid's
        weak_sinr /= noise_floor
        sinr[cut:] *= rho
    else:
        sinr = np.multiply(heff, rho, out=ws.take("sinr", (batch, n)))

    shortfall = np.subtract(gamma_th, sinr, out=ws.take("rate", sinr.shape))
    paired = half if access == "noma" else 0  # OMA sums each row in user order
    deficit = _row_sums(np.maximum(0.0, shortfall, out=shortfall).ravel(), batch, paired)
    rate = np.log2(np.add(1.0, sinr, out=shortfall), out=shortfall)  # the same buffer
    if access == "oma":
        rate *= 0.5
    sum_rate = _row_sums(rate.ravel(), batch, paired)
    if not full:
        return {"sum_rate": sum_rate, "deficit": deficit}
    if access == "noma":  # back from pair order to user order: "scratch" and "sinr"
        np.put(ws.take("scratch", (batch, n)), pairs, sinr)
        np.put(sinr, pairs, rate)
        sinr, rate = ws.take("scratch", (batch, n)), sinr.reshape(batch, n)
    else:
        alpha.fill(1.0)
    for block in (weak, strong, mid):
        block -= first  # back from flat indices to user indices
    return {
        "sinr": sinr,
        "rate": rate,
        "alpha": alpha,
        "feasible": np.greater_equal(sinr, gamma_th, out=ws.take("feasible", (batch, n), bool)),
        "sum_rate": sum_rate,
        "deficit": deficit,
        "weak": weak,
        "strong": strong,
        "mid": mid[:, 0] if n % 2 else None,
    }


def _row_sums(values, batch: int, half: int):
    """Row sums of flat pair-order blocks: weak, plus strong, plus the rest (half 0: all)."""
    weak, strong = values[:2 * batch * half].reshape(2, batch, half).sum(axis=2)
    return weak + strong + values[2 * batch * half:].reshape(batch, -1).sum(axis=1)
