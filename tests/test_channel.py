import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mirsim import channel
from mirsim.channel import Placement

from testutil import make_config

CFG = make_config()


@pytest.mark.parametrize("uav,user,expected", [
    ((0.0, 0.0, 100.0), (0.0, 0.0), 100.0),
    ((3.0, 4.0, 0.0), (0.0, 0.0), 5.0),
    ((30.0, 40.0, 120.0), (0.0, 0.0), 130.0),
])
def test_distance_3d(uav, user, expected):
    assert channel.distance_3d(np.array(uav), np.array([user]))[0] == expected


def test_distance_3d_vectorizes():
    uav = np.array([0.0, 0.0, 100.0])
    users = np.array([[0.0, 0.0], [30.0, 40.0]])
    d = channel.distance_3d(uav, users)
    assert d.shape == (2,)
    assert d[0] == 100.0
    assert math.isclose(d[1], math.sqrt(2500 + 10000), rel_tol=1e-15)


def los_db(d):
    """LoS pathloss in dB off the direct kernel: the UAV d m straight above
    the user, where the blockage law gives P_los = 1."""
    d = np.asarray(d, dtype=float)
    uav = np.stack([np.zeros_like(d), np.zeros_like(d), d], axis=-1)
    return channel.uav_link_pathloss(uav, np.zeros((1, 2)), CFG)[..., 0]


def nlos_db(d):
    """NLoS pathloss in dB off the reflected kernel: one element (N = 1,
    coefficient 1) d m above the user."""
    one = dataclasses.replace(CFG, irs_height_m=float(d), irs_elements_per_user=1,
                              irs_reflection_coeff=1.0)
    gain = channel.irs_combined_gain(np.zeros(2), np.array([0.0, 0.0, 100.0]),
                                     np.zeros((1, 2)), one)[0]
    return -10.0 * math.log10(gain)


def test_pathloss_decade_slope():
    slope = los_db(1000.0) - los_db(100.0)
    assert math.isclose(slope, 20.0, abs_tol=1e-9)


@given(st.floats(min_value=1.0, max_value=1e6))
def test_nlos_never_below_los(d):
    assert nlos_db(d) >= los_db(d)


def test_pathloss_strictly_increases_with_distance():
    d = np.linspace(1.0, 2000.0, 400)
    assert np.all(np.diff(los_db(d)) > 0)
    assert np.all(np.diff([nlos_db(x) for x in d]) > 0)


def test_blockage_prob_at_zero_distance_is_one():
    assert channel.blockage_prob(0.0, 100.0, CFG) == 1.0


def test_blockage_prob_hand_value():
    # density 0.01, diameter 0.4, height 1.7, q 100, z 100
    expected = math.exp(-0.01 * 0.4 * 100.0 * 1.7 / 100.0)
    assert math.isclose(channel.blockage_prob(100.0, 100.0, CFG), expected,
                        rel_tol=1e-15)


def test_blockage_prob_decays_monotonically_and_stays_positive():
    q = np.linspace(0.0, 1e6, 500)
    p = channel.blockage_prob(q, 120.0, CFG)
    assert np.all(np.diff(p) < 0)
    assert np.all(p > 0.0)
    assert np.all(p <= 1.0)


def test_blockage_prob_keeps_its_floor_where_exp_underflows():
    # At z = 100 m the exponent is 6.8e3 at q = 1e8 m and 6.8e7 at 1e12 m: exp gives 0.
    q = np.array([0.0, 1e3, 1e8, 1e12])
    p = channel.blockage_prob(q, 100.0, CFG)
    assert np.all(p > 0.0)
    assert p[2] == p[3] == np.finfo(float).tiny
    in_place = q.copy()  # the GA computes the law in q's buffer
    assert channel.blockage_prob(in_place, 100.0, CFG, out=in_place) is in_place
    assert np.array_equal(in_place, p)


def test_sigmoid_model_is_selectable():
    sig_cfg = make_config(los_model="sigmoid")
    overhead = channel.los_probability(0.0, 100.0, sig_cfg)
    grazing = channel.los_probability(5000.0, 100.0, sig_cfg)
    assert 0.99 < overhead <= 1.0
    assert grazing < overhead


def test_averaged_pathloss_is_pure_los_overhead():
    # P_los is exactly 1 overhead; the kernel sums the law as ln(gain), so
    # its dB value meets the dB law to within rounding.
    uav = np.array([50.0, 50.0, 150.0])
    user = np.array([[50.0, 50.0]])
    assert channel.los_probability(channel.horizontal_distance(uav, user), 150.0, CFG)[0] == 1.0
    assert math.isclose(channel.uav_link_pathloss(uav, user, CFG)[0],
                        61.4 + 20.0 * math.log10(150.0), rel_tol=1e-15)


def test_averaged_pathloss_composed_example():
    uav = np.array([0.0, 0.0, 100.0])
    user = np.array([[100.0, 0.0]])
    d = math.sqrt(100.0 ** 2 + 100.0 ** 2)
    p_los = math.exp(-0.01 * 0.4 * 100.0 * 1.7 / 100.0)
    expected = (p_los * (61.4 + 20.0 * math.log10(d))
                + (1.0 - p_los) * (72.0 + 29.2 * math.log10(d)))
    assert math.isclose(channel.uav_link_pathloss(uav, user, CFG)[0], expected,
                        rel_tol=1e-14)


def test_averaged_pathloss_between_endpoints():
    rng = np.random.default_rng(0)
    uav = np.array([rng.uniform(0, 500), rng.uniform(0, 500), rng.uniform(100, 300)])
    users = rng.uniform(0, 500, size=(200, 2))
    d = channel.distance_3d(uav, users)
    avg = channel.uav_link_pathloss(uav, users, CFG)
    assert np.all(avg >= 61.4 + 20.0 * np.log10(d) - 1e-9)
    assert np.all(avg <= 72.0 + 29.2 * np.log10(d) + 1e-9)


def test_single_element_gain_reduces_to_nlos_law():
    irs = np.array([10.0, 20.0])
    uav = np.array([0.0, 0.0, 150.0])
    user = np.array([[13.0, 24.0]])
    d = math.sqrt(3.0 ** 2 + 4.0 ** 2 + 6.0 ** 2)
    expected = 10.0 ** (-(72.0 + 29.2 * math.log10(d)) / 10.0)
    got = channel.irs_combined_gain(irs, uav, user, CFG)[0]
    assert math.isclose(got, expected, rel_tol=1e-14)


def test_colocated_user_sees_mounting_height_distance():
    irs = np.array([100.0, 100.0])
    uav = np.array([0.0, 0.0, 150.0])
    user = np.array([[100.0, 100.0]])
    expected = 10.0 ** (-(72.0 + 29.2 * math.log10(6.0)) / 10.0)
    assert math.isclose(channel.irs_combined_gain(irs, uav, user, CFG)[0],
                        expected, rel_tol=1e-14)


def test_combined_gain_scales_as_elements_squared():
    irs = np.array([100.0, 100.0])
    uav = np.array([150.0, 100.0, 120.0])
    users = np.array([[90.0, 85.0], [300.0, 420.0]])
    one = channel.irs_combined_gain(irs, uav, users, CFG)
    for n in (2, 4, 8, 16):
        params = dataclasses.replace(CFG, irs_elements_per_user=n)
        gain = channel.irs_combined_gain(irs, uav, users, params)
        assert np.all(gain / one == float(n * n))


def test_zero_reflection_coefficient_kills_the_link():
    params = dataclasses.replace(CFG, irs_reflection_coeff=0.0)
    gain = channel.irs_combined_gain(np.array([10.0, 10.0]), np.array([0.0, 0.0, 150.0]),
                                     np.array([[50.0, 50.0]]), params)
    assert np.all(gain == 0.0)


def test_uav_leg_multiplies_in_when_enabled():
    params = dataclasses.replace(CFG, irs_uav_leg_enabled=True)
    irs = np.array([0.0, 0.0])
    uav = np.array([0.0, 0.0, 100.0])
    user = np.array([[3.0, 4.0]])
    without = channel.irs_combined_gain(irs, uav, user, CFG)[0]
    with_leg = channel.irs_combined_gain(irs, uav, user, params)[0]
    leg = 10.0 ** (-(61.4 + 20.0 * math.log10(94.0)) / 10.0)
    assert math.isclose(with_leg, without * leg, rel_tol=1e-14)


def test_link_gains_match_hand_composition():
    placement = Placement(uav=(0.0, 0.0, 100.0), irs=(5.0, 5.0))
    user = np.array([[0.0, 0.0]])
    uav_gain, irs_gain = channel.link_gains(placement.uav, placement.irs, user, CFG)
    assert math.isclose(uav_gain[0], 10.0 ** (-101.4 / 10.0), rel_tol=1e-12)
    d_iu = math.sqrt(25.0 + 25.0 + 36.0)
    expected_irs = 10.0 ** (-(72.0 + 29.2 * math.log10(d_iu)) / 10.0)
    assert math.isclose(irs_gain[0], expected_irs, rel_tol=1e-12)


def test_gains_decrease_with_distance():
    uav, irs = (0.0, 0.0, 100.0), (0.0, 0.0)
    near_uav, near_irs = channel.link_gains(uav, irs, np.array([[50.0, 0.0]]), CFG)
    far_uav, far_irs = channel.link_gains(uav, irs, np.array([[100.0, 0.0]]), CFG)
    assert far_uav[0] < near_uav[0]
    assert far_irs[0] < near_irs[0]


def test_batched_gains_match_per_placement_calls():
    rng = np.random.default_rng(5)
    uav = np.column_stack([rng.uniform(0, 500, 8), rng.uniform(0, 500, 8),
                           rng.uniform(100, 300, 8)])
    irs = rng.uniform(0, 500, size=(8, 2))
    users = rng.uniform(0, 500, size=(6, 2))
    gu, gi = channel.link_gains(uav, irs, users, CFG)
    assert gu.shape == gi.shape == (8, 6)
    for k in range(8):
        single_uav, single_irs = channel.link_gains(uav[k], irs[k], users, CFG)
        assert np.allclose(gu[k], single_uav, rtol=1e-14)
        assert np.allclose(gi[k], single_irs, rtol=1e-14)


def test_no_surface_gives_no_reflected_gains():
    gu, gi = channel.link_gains(np.array([10.0, 10.0, 150.0]), None,
                                np.array([[1.0, 1.0]]), CFG)
    assert gi is None
    assert np.all(gu > 0.0)


def test_validate_placement():
    channel.validate_placement(Placement(uav=(10.0, 10.0, 100.0), irs=(5.0, 5.0)), CFG)
    with pytest.raises(ValueError, match="altitude"):
        channel.validate_placement(Placement(uav=(10.0, 10.0, 99.0), irs=(5.0, 5.0)), CFG)
    with pytest.raises(ValueError, match="outside region"):
        channel.validate_placement(Placement(uav=(-1.0, 10.0, 150.0), irs=(5.0, 5.0)), CFG)
    with pytest.raises(ValueError, match="vehicle"):
        channel.validate_placement(Placement(uav=(10.0, 10.0, 150.0), irs=(501.0, 5.0)), CFG)
    channel.validate_placement(Placement(uav=(10.0, 10.0, 150.0), irs=None), CFG)


def test_debug_table_contents():
    placement = Placement(uav=(250.0, 250.0, 100.0), irs=(100.0, 100.0))
    rows = channel.channel_debug_table(placement, np.array([[250.0, 250.0]]), CFG)
    assert len(rows) == 1
    assert rows[0]["distance_3d_m"] == 100.0
    assert rows[0]["horizontal_m"] == 0.0
    assert rows[0]["p_los"] == 1.0
    assert math.isclose(rows[0]["avg_pathloss_db"], 101.4, rel_tol=1e-12)


def test_workspace_keeps_a_role_until_a_call_needs_more_room_or_another_dtype():
    ws = channel.Workspace()
    first = ws.take("role", (2, 3))
    assert first.shape == (2, 3) and first.dtype == float and first.flags.c_contiguous
    assert np.shares_memory(ws.take("role", (5,)), first)  # smaller: the same buffer
    assert not np.shares_memory(ws.take("other", (2, 3)), first)
    ints = ws.take("role", (4,), np.intp)  # another dtype: a new buffer
    assert ints.dtype == np.intp and not np.shares_memory(ints, first)
    assert np.shares_memory(ws.take("role", (2, 2), np.intp), ints)
    grown = ws.take("role", (7,), np.intp)  # larger: a new buffer
    assert grown.shape == (7,) and not np.shares_memory(grown, ints)
