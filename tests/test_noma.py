import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mirsim import channel, noma
from mirsim.channel import Placement
from mirsim.scenario import ScenarioConfig, db_to_linear

from testutil import make_config, slot_result


@dataclass
class NomaPair:
    """Oracle record of one sub-band: weak/strong user indices and their power fractions.

    strong is None for the unpaired user of an odd count; it transmits
    alone with alpha_weak = 1.
    """

    weak: int
    strong: Optional[int]
    alpha_weak: float = 1.0
    alpha_strong: float = 0.0


def pair_users(gains) -> list[NomaPair]:
    """Scalar pairing oracle: the k-th weakest user with the k-th strongest (ties by index)."""
    gains = np.asarray(gains, dtype=float)
    if gains.size == 0:
        raise ValueError("cannot pair an empty user set")
    order = np.argsort(gains, kind="stable")
    n = gains.size
    half = n // 2
    pairs = [NomaPair(weak=int(order[k]), strong=int(order[n - 1 - k]))
             for k in range(half)]
    if n % 2:
        pairs.append(NomaPair(weak=int(order[half]), strong=None,
                              alpha_weak=1.0, alpha_strong=0.0))
    return pairs


def sinr(role: str, pair: NomaPair, uav_gains, irs_gains, rho: float) -> float:
    """Scalar SINR oracle for one pair member.

    role "weak": decodes under the strong user's allocated interference.
    role "strong": perfect cancellation leaves noise only.
    role "solo": unpaired user, full sub-band power, no interference.
    """
    gu = np.asarray(uav_gains, dtype=float)
    gi = np.asarray(irs_gains, dtype=float)
    if role == "weak":
        signal = pair.alpha_weak * gu[pair.weak] + gi[pair.weak]
        interference = pair.alpha_strong * gu[pair.strong]
        return float(signal / (interference + 1.0 / rho))
    if role == "strong":
        return float((pair.alpha_strong * gu[pair.strong] + gi[pair.strong]) * rho)
    if role == "solo":
        return float((gu[pair.weak] + gi[pair.weak]) * rho)
    raise ValueError(f"unknown role {role!r}")


def _power_config(rho_db=0.0, threshold_db=0.0, decay=0.0):
    """Config with the given transmit SNR, SINR threshold and FTPA decay (noise -80 dBm)."""
    return make_config(uav_tx_power_dbm=-80.0 + rho_db, noise_power_dbm=-80.0,
                       snr_threshold_db=threshold_db, ftpa_decay=decay)


def _batch_pairs(gains):
    """(weak, strong) pairs that evaluate_batch forms for each row of gains."""
    gains = np.atleast_2d(gains)
    ev = noma.evaluate_batch(gains, np.zeros_like(gains), _power_config(), "noma")
    return [list(zip(w.tolist(), s.tolist())) for w, s in zip(ev["weak"], ev["strong"])]


def _best_matching_by_spread(gains):
    """Exhaustive pairing oracle: maximize the summed squared gain difference."""
    indices = list(range(len(gains)))

    def matchings(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for k, partner in enumerate(rest):
            for tail in matchings(rest[:k] + rest[k + 1:]):
                yield [(first, partner)] + tail

    def spread(matching):
        return sum((gains[a] - gains[b]) ** 2 for a, b in matching)

    return max(matchings(indices), key=spread), max(map(spread, matchings(indices)))


def test_pairing_matches_exhaustive_spread_oracle():
    gains = [1.0, 2.0, 3.0, 4.0]
    pairs = pair_users(gains)
    assert [(p.weak, p.strong) for p in pairs] == [(0, 3), (1, 2)]
    assert _batch_pairs(gains) == [[(0, 3), (1, 2)]]
    _, best = _best_matching_by_spread(gains)
    ours = sum((gains[p.weak] - gains[p.strong]) ** 2 for p in pairs)
    assert ours == best

    rng = np.random.default_rng(2)
    random_gains = rng.uniform(0.1, 10.0, size=(20, 6))
    for row, batch_pairs in zip(random_gains, _batch_pairs(random_gains)):
        pairs = pair_users(row)
        assert [(p.weak, p.strong) for p in pairs] == batch_pairs
        _, best = _best_matching_by_spread(list(row))
        ours = sum((row[p.weak] - row[p.strong]) ** 2 for p in pairs)
        assert math.isclose(ours, best, rel_tol=1e-12)


def test_pairing_basics():
    pairs = pair_users([3.0, 1.0])
    assert pairs == [NomaPair(weak=1, strong=0)]
    assert _batch_pairs([3.0, 1.0]) == [[(1, 0)]]
    tied = pair_users([5.0, 5.0])
    assert (tied[0].weak, tied[0].strong) == (0, 1)
    assert _batch_pairs([5.0, 5.0]) == [[(0, 1)]]
    with pytest.raises(ValueError):
        pair_users([])


def test_odd_count_leaves_a_singleton():
    pairs = pair_users([5.0, 1.0, 3.0])
    assert (pairs[0].weak, pairs[0].strong) == (1, 0)
    assert pairs[1].strong is None
    assert pairs[1].weak == 2
    assert pairs[1].alpha_weak == 1.0


def test_ftpa_equal_split_at_zero_decay():
    assert noma.ftpa_allocate(1e-11, 4e-11, 0.0) == (0.5, 0.5)


def test_ftpa_hand_values():
    aw, a_s = noma.ftpa_allocate(1.0, 4.0, 1.0)
    assert math.isclose(aw, 0.8, rel_tol=1e-12)
    assert math.isclose(a_s, 0.2, rel_tol=1e-12)
    aw, a_s = noma.ftpa_allocate(1.0, 4.0, 0.28)
    expected = 4.0 ** 0.28 / (1.0 + 4.0 ** 0.28)
    assert math.isclose(aw, expected, rel_tol=1e-12)


def test_ftpa_strict_mode_reverses_the_split():
    aw, a_s = noma.ftpa_allocate(1.0, 4.0, 1.0, favor_strong=True)
    assert math.isclose(aw, 0.2, rel_tol=1e-12)
    assert math.isclose(a_s, 0.8, rel_tol=1e-12)


@given(st.floats(min_value=1e-14, max_value=1e-6),
       st.floats(min_value=1e-14, max_value=1e-6),
       st.floats(min_value=0.0, max_value=1.0))
def test_ftpa_properties(a, b, decay):
    weak, strong = min(a, b), max(a, b)
    aw, a_s = noma.ftpa_allocate(weak, strong, decay)
    assert abs(aw + a_s - 1.0) <= 1e-12
    assert aw >= a_s


def test_sinr_strong_user_example():
    pair = NomaPair(weak=0, strong=1, alpha_weak=0.8, alpha_strong=0.2)
    gamma = sinr("strong", pair, [0.5, 1.0], [0.0, 0.0], rho=100.0)
    assert math.isclose(gamma, 20.0, rel_tol=1e-12)
    assert math.isclose(math.log2(1 + gamma), math.log2(21.0), rel_tol=1e-12)


def test_sinr_weak_user_example():
    pair = NomaPair(weak=0, strong=1, alpha_weak=0.8, alpha_strong=0.2)
    gamma = sinr("weak", pair, [0.01, 0.04], [0.0, 0.0], rho=1000.0)
    assert math.isclose(gamma, 0.008 / 0.009, rel_tol=1e-12)


def test_sinr_interference_limited_ceiling():
    pair = NomaPair(weak=0, strong=1, alpha_weak=0.7, alpha_strong=0.3)
    gamma = sinr("weak", pair, [0.02, 0.05], [0.0, 0.0], rho=1e15)
    assert math.isclose(gamma, (0.7 * 0.02) / (0.3 * 0.05), rel_tol=1e-6)


def test_sinr_monotone_in_own_reflected_gain():
    pair = NomaPair(weak=0, strong=1, alpha_weak=0.6, alpha_strong=0.4)
    low = sinr("weak", pair, [0.01, 0.05], [0.0, 0.0], rho=1e3)
    high = sinr("weak", pair, [0.01, 0.05], [0.005, 0.0], rho=1e3)
    assert high > low


def test_sinr_decreases_with_partner_interference():
    gains_light = [0.01, 0.02]
    gains_heavy = [0.01, 0.08]
    pair = NomaPair(weak=0, strong=1, alpha_weak=0.6, alpha_strong=0.4)
    assert (sinr("weak", pair, gains_heavy, [0.0, 0.0], 1e3)
            < sinr("weak", pair, gains_light, [0.0, 0.0], 1e3))


def test_sinr_solo_role():
    pair = NomaPair(weak=2, strong=None)
    gamma = sinr("solo", pair, [0.0, 0.0, 0.05], [0.0, 0.0, 0.01], rho=100.0)
    assert math.isclose(gamma, 6.0, rel_tol=1e-12)
    with pytest.raises(ValueError):
        sinr("sideways", pair, [0.1], [0.0], 1.0)


def test_slot_sum_rate_matches_scalar_composition():
    cfg = make_config(num_users=2)
    placement = Placement(uav=(30.0, 40.0, 100.0), irs=(20.0, 20.0))
    users = np.array([[10.0, 10.0], [200.0, 250.0]])
    result = slot_result(placement, users, cfg)

    uav_gain, irs_gain = channel.link_gains(placement.uav, placement.irs, users, cfg)
    heff = uav_gain + irs_gain
    pairs = pair_users(heff)
    assert (result.weak.tolist(), result.strong.tolist(), result.mid) == (
        [pairs[0].weak], [pairs[0].strong], None)
    aw, a_s = noma.ftpa_allocate(heff[pairs[0].weak], heff[pairs[0].strong], cfg.ftpa_decay)
    pair = NomaPair(weak=pairs[0].weak, strong=pairs[0].strong,
                    alpha_weak=aw, alpha_strong=a_s)
    rho = db_to_linear(cfg.uav_tx_power_dbm - cfg.noise_power_dbm)
    weak_gamma = sinr("weak", pair, uav_gain, irs_gain, rho)
    strong_gamma = sinr("strong", pair, uav_gain, irs_gain, rho)

    assert math.isclose(result.sinr[pair.weak], weak_gamma, rel_tol=1e-12)
    assert math.isclose(result.sinr[pair.strong], strong_gamma, rel_tol=1e-12)
    expected_sum = math.log2(1 + weak_gamma) + math.log2(1 + strong_gamma)
    assert math.isclose(result.sum_rate, expected_sum, rel_tol=1e-12)
    assert result.sum_rate == result.rate.sum()
    assert np.all(result.rate >= 0.0)
    assert math.isclose(result.alpha[pair.weak] + result.alpha[pair.strong], 1.0,
                        abs_tol=1e-12)


def test_slot_result_pair_bookkeeping():
    cfg = make_config(num_users=5)
    placement = Placement(uav=(100.0, 100.0, 120.0), irs=(60.0, 60.0))
    users = np.array([[30.0, 30.0], [60.0, 60.0], [90.0, 120.0],
                      [300.0, 300.0], [450.0, 80.0]])
    result = slot_result(placement, users, cfg)
    assert result.weak.shape == result.strong.shape == (2,)
    assert result.alpha[result.mid] == 1.0
    assert result.pair_id[result.mid] == 2
    covered = {result.mid}
    for k, (weak, strong) in enumerate(zip(result.weak, result.strong)):
        covered.update((weak, strong))
        assert result.pair_id[weak] == result.pair_id[strong] == k
        assert result.alpha[weak] >= result.alpha[strong]
    assert covered == set(range(5))
    uav_gain, irs_gain = channel.link_gains(placement.uav, placement.irs, users, cfg)
    assert [(p.weak, p.strong) for p in pair_users(uav_gain + irs_gain)] == [
        *zip(result.weak.tolist(), result.strong.tolist()), (result.mid, None)]


def test_no_irs_kind_equals_zero_reflection():
    cfg = make_config()
    dead = make_config(irs_reflection_coeff=0.0)
    placement = Placement(uav=(100.0, 100.0, 150.0), irs=(50.0, 50.0))
    users = np.array([[20.0, 30.0], [120.0, 80.0], [340.0, 420.0], [60.0, 250.0]])
    a = slot_result(replace(placement, irs=None), users, cfg)
    b = slot_result(placement, users, dead)
    assert np.array_equal(a.sinr, b.sinr)
    assert a.sum_rate == b.sum_rate


def test_removing_reflected_path_never_raises_sinr():
    # monotone gains keep the pairing identical with and without the surface
    gu = np.array([[1e-12, 3e-12, 6e-12, 9e-12]])
    gi = np.array([[1e-13, 2e-13, 3e-13, 4e-13]])
    cfg = _power_config(rho_db=110.0, threshold_db=20.0, decay=0.28)
    with_irs = noma.evaluate_batch(gu, gi, cfg, "noma")
    without = noma.evaluate_batch(gu, np.zeros_like(gi), cfg, "noma")
    for key in ("weak", "strong"):
        assert np.array_equal(with_irs[key], without[key])
    assert np.all(without["sinr"] <= with_irs["sinr"])


def test_vanishing_snr_gives_vanishing_sum_rate():
    gu = np.array([[1e-12, 3e-12, 6e-12, 9e-12]])
    ev = noma.evaluate_batch(gu, np.zeros_like(gu),
                             _power_config(rho_db=-90.0, threshold_db=20.0, decay=0.28), "noma")
    assert ev["sum_rate"][0] == pytest.approx(0.0, abs=1e-12)


def test_reference_transmit_snr_and_threshold():
    # unit direct gain sees the linear transmit SNR under OMA; a user with no
    # gain falls short by the whole linear threshold
    ev = noma.evaluate_batch(np.array([[1.0, 0.0]]), np.zeros((1, 2)), ScenarioConfig(), "oma")
    assert math.isclose(ev["sinr"][0, 0], 10.0 ** 11.6, rel_tol=1e-12)
    assert ev["deficit"][0] == 100.0


def test_equal_power_and_noise_gives_unit_snr():
    cfg = make_config(uav_tx_power_dbm=-10.0, noise_power_dbm=-10.0)
    ev = noma.evaluate_batch(np.array([[1.0]]), np.zeros((1, 1)), cfg, "oma")
    assert ev["sinr"][0, 0] == 1.0


def test_oma_single_user_halves_the_resource():
    ev = noma.evaluate_batch(np.array([[0.2]]), np.array([[0.0]]),
                             _power_config(rho_db=20.0, decay=0.28), "oma")
    assert math.isclose(ev["rate"][0, 0], 0.5 * math.log2(21.0), rel_tol=1e-12)


def test_oma_zero_gain_gives_zero_rate():
    ev = noma.evaluate_batch(np.array([[0.0]]), np.array([[0.0]]),
                             _power_config(rho_db=20.0, decay=0.28), "oma")
    assert ev["rate"][0, 0] == 0.0


def test_oma_symmetric_users_get_equal_rates():
    cfg = make_config(num_users=2)
    placement = Placement(uav=(250.0, 250.0, 100.0), irs=(250.0, 250.0))
    users = np.array([[200.0, 250.0], [300.0, 250.0]])  # mirror images
    result = slot_result(placement, users, cfg, "oma")
    assert math.isclose(result.rate[0], result.rate[1], rel_tol=1e-12)
    assert np.all(result.alpha == 1.0)


def test_feasibility_flags_respect_threshold():
    ev = noma.evaluate_batch(np.array([[0.5, 2.0]]), np.zeros((1, 2)),
                             _power_config(rho_db=20.0, threshold_db=10.0 * math.log10(30.0)),
                             "noma")
    # strong user: 0.5 * 2.0 * 100 = 100 >= 30; weak user is interference limited
    strong = ev["strong"][0, 0]
    weak = ev["weak"][0, 0]
    assert bool(ev["feasible"][0, strong])
    assert not bool(ev["feasible"][0, weak])
    assert ev["deficit"][0] > 0.0
    # At rho = 1 and a 0 dB threshold the gain-1.0 user's SINR is the threshold
    # exactly, under OMA and as NOMA's unpaired mid user: it is feasible.
    cfg = _power_config(rho_db=0.0, threshold_db=0.0)
    for access in ("oma", "noma"):
        ev = noma.evaluate_batch(np.array([[1.0, 0.25, 4.0]]), np.zeros((1, 3)), cfg, access)
        assert ev["sinr"][0, 0] == 1.0, access
        assert ev["feasible"][0].tolist() == [True, False, True], access


def test_relabelling_users_permutes_sinr_and_keeps_the_sum_rate():
    # A metamorphic relation: a user is known only by its gains.  NOMA sums in
    # pair order, which a relabelling leaves as it is, so its sums are bit-equal;
    # OMA sums in user order, and two orders of 9 positive terms lie within
    # 8 ulps of each other, relative.
    cfg = make_config(num_users=9)
    rng = np.random.default_rng(3)
    users = rng.uniform(0.0, 500.0, (9, 2))
    uav = np.column_stack([rng.uniform(0.0, 500.0, (20, 2)), rng.uniform(100.0, 300.0, 20)])
    gu, gi = channel.link_gains(uav, rng.uniform(0.0, 500.0, (20, 2)), users, cfg)
    perm = rng.permutation(9)
    for access in ("noma", "oma"):
        ev = noma.evaluate_batch(gu, gi, cfg, access)
        relabelled = noma.evaluate_batch(gu[:, perm], gi[:, perm], cfg, access)
        assert np.array_equal(relabelled["sinr"], ev["sinr"][:, perm]), access
        assert np.array_equal(relabelled["rate"], ev["rate"][:, perm]), access
        for key in ("sum_rate", "deficit"):
            if access == "noma":
                assert np.array_equal(relabelled[key], ev[key]), key
            else:
                np.testing.assert_allclose(relabelled[key], ev[key], rtol=8 * np.finfo(float).eps,
                                           atol=0.0, err_msg=key)
