"""The fitness kernels pinned bit for bit against their plain-expression forms,
and those forms against the textbook laws.

``channel.link_gains`` and ``noma.evaluate_batch`` compute in place over
reused buffers, state each law as one pass (the channel laws as ln(gain),
ending in one exp; FTPA as one power per pair; NOMA rates in pair order) and
rank users by sorting integer keys in place (a gain's bits, the user index
in the lowest), ranking stably again only the rows those keys may misorder.
The ``fused_*`` oracles below are the same arithmetic as plain
expressions, each temporary its own array and every sort stable; every array
the kernels return must equal theirs exactly.  So must every array they
return when they compute in a ``channel.Workspace`` that an earlier call of
another shape, access mode and surface left behind.

The ``textbook_*`` forms are the laws as the model states them: dB
pathlosses averaged by the LoS probability and turned linear, FTPA over
noise-normalized gains, rates summed in user order.  The kernels must meet
them to 1e-12 relative (rates and SINR deficits to 1e-12 of a bit/s/Hz and
of the threshold, where a rounding of 1 + SINR or of the threshold minus
SINR is all they may differ by).
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mirsim import channel, cli, noma, optimizer
from mirsim.scenario import db_to_linear

from testutil import make_config

DB = 10.0 / math.log(10.0)  # a loss of L dB is the gain exp(-L / DB)


def fused_law(intercept_db, slope):
    """(a, k) with ln(gain) = a + k log10(d^2)."""
    return -intercept_db / DB, -5.0 * slope / DB


def fused_los_probability(q, z, cfg):
    if cfg.los_model == "sigmoid":
        elevation = np.degrees(np.arctan2(z, q))
        return 1.0 / (1.0 + cfg.sigmoid_alpha * np.exp(-cfg.sigmoid_beta
                                                       * (elevation - cfg.sigmoid_alpha)))
    rate = -(cfg.blocker_density_per_m2 * cfg.blocker_diameter_m * cfg.blocker_height_m) / z
    return np.maximum(np.exp(q * rate), np.finfo(float).tiny)


def fused_direct_ln_gain(uav_xyz, users_xy, cfg):
    uav = np.asarray(uav_xyz, dtype=float)
    users = np.asarray(users_xy, dtype=float)
    dx = uav[..., 0, None] - users[..., 0]
    dy = uav[..., 1, None] - users[..., 1]
    z = uav[..., 2, None]
    q2 = dx * dx + dy * dy
    p_los = fused_los_probability(np.sqrt(q2), z, cfg)
    log_d2 = np.log10(q2 + z * z)
    a_los, k_los = fused_law(cfg.los_intercept_db, cfg.los_slope)
    a_nlos, k_nlos = fused_law(cfg.nlos_intercept_db, cfg.nlos_slope)
    return (log_d2 * k_nlos + a_nlos) + (log_d2 * (k_los - k_nlos) + (a_los - a_nlos)) * p_los


def fused_irs_combined_gain(irs_xy, uav_xyz, users_xy, cfg):
    irs_height = cfg.irs_height_m
    uav = np.asarray(uav_xyz, dtype=float)
    irs = np.asarray(irs_xy, dtype=float)
    users = np.asarray(users_xy, dtype=float)
    dx = irs[..., 0, None] - users[..., 0]
    dy = irs[..., 1, None] - users[..., 1]
    a, k = fused_law(cfg.nlos_intercept_db, cfg.nlos_slope)
    if cfg.irs_uav_leg_enabled:
        d2_ui = ((uav[..., 0] - irs[..., 0]) ** 2 + (uav[..., 1] - irs[..., 1]) ** 2
                 + (uav[..., 2] - irs_height) ** 2)
        a_leg, k_leg = fused_law(cfg.los_intercept_db, cfg.los_slope)
        a = (a + (a_leg + k_leg * np.log10(d2_ui)))[..., None]
    n = cfg.irs_elements_per_user
    ln_gain = np.log10(dx * dx + dy * dy + irs_height * irs_height) * k + a
    return np.exp(ln_gain) * (cfg.irs_reflection_coeff * (n * n))


def fused_link_gains(uav_xyz, irs_xy, users_xy, cfg):
    uav_gain = np.exp(fused_direct_ln_gain(uav_xyz, users_xy, cfg))
    if irs_xy is None:
        return uav_gain, None
    return uav_gain, fused_irs_combined_gain(irs_xy, uav_xyz, users_xy, cfg)


def fused_ftpa_allocate(gain_weak, gain_strong, decay, favor_strong=False):
    ratio = (gain_strong / gain_weak) ** (decay if favor_strong else -decay)
    alpha_weak = 1.0 / (ratio + 1.0)
    return alpha_weak, ratio * alpha_weak


def pairing(heff):
    """Stable ascending order; weak, strong ((P, K)) and mid ((P,) or None) user indices."""
    order = np.argsort(heff, axis=1, kind="stable")
    half = heff.shape[1] // 2
    return order[:, :half], order[:, ::-1][:, :half], order[:, half] if heff.shape[1] % 2 else None


def fused_evaluate_batch(uav_gain, irs_gain, cfg, access):
    gu = np.atleast_2d(np.asarray(uav_gain, dtype=float))
    gi = np.zeros_like(gu) if irs_gain is None else np.atleast_2d(irs_gain)
    batch, n = gu.shape
    rho = db_to_linear(cfg.uav_tx_power_dbm - cfg.noise_power_dbm)
    gamma_th = db_to_linear(cfg.snr_threshold_db)
    heff = gu + gi
    weak, strong, mid = pairing(heff)
    rows = np.arange(batch)[:, None]
    alpha = np.ones((batch, n))
    sinr = np.empty((batch, n))
    if access == "noma":
        alpha_weak, alpha_strong = fused_ftpa_allocate(
            heff[rows, weak], heff[rows, strong], cfg.ftpa_decay, cfg.ftpa_favor_strong)
        alpha[rows, weak] = alpha_weak
        alpha[rows, strong] = alpha_strong
        interference = gu[rows, strong] * alpha_strong
        # Pair order: the weak users, their strong partners, then mid; each a (P, .) block.
        users = [weak, strong]
        blocks = [(gu[rows, weak] * alpha_weak + gi[rows, weak]) / (interference + 1.0 / rho),
                  (interference + gi[rows, strong]) * rho]
        if mid is not None:
            users.append(mid[:, None])
            blocks.append(heff[rows, mid[:, None]] * rho)
        rate = np.empty((batch, n))
        sum_rate = deficit = 0.0
        for user, block in zip(users, blocks):
            sinr[rows, user] = block
            rate[rows, user] = np.log2(1.0 + block)
            sum_rate = sum_rate + np.log2(1.0 + block).sum(axis=1)
            deficit = deficit + np.maximum(0.0, gamma_th - block).sum(axis=1)
    else:
        sinr = heff * rho
        rate = 0.5 * np.log2(1.0 + sinr)
        sum_rate = rate.sum(axis=1)
        deficit = np.maximum(0.0, gamma_th - sinr).sum(axis=1)
    return {
        "sinr": sinr,
        "rate": rate,
        "alpha": alpha,
        "feasible": sinr >= gamma_th,
        "sum_rate": sum_rate,
        "deficit": deficit,
        "weak": weak,
        "strong": strong,
        "mid": mid,
    }


def textbook_link_gains(uav_xyz, irs_xy, users_xy, cfg):
    """The dB laws: P_los L_los + (1 - P_los) L_nlos, N^2 coherent NLoS reflection."""
    uav = np.asarray(uav_xyz, dtype=float)
    users = np.asarray(users_xy, dtype=float)
    q = np.hypot(uav[..., 0, None] - users[..., 0], uav[..., 1, None] - users[..., 1])
    z = uav[..., 2, None]
    d = np.sqrt(q * q + z * z)
    if cfg.los_model == "sigmoid":
        elevation = np.degrees(np.arctan2(z, q))
        p_los = 1.0 / (1.0 + cfg.sigmoid_alpha * np.exp(-cfg.sigmoid_beta
                                                        * (elevation - cfg.sigmoid_alpha)))
    else:
        p_los = np.maximum(np.exp(-cfg.blocker_density_per_m2 * cfg.blocker_diameter_m * q
                                  * cfg.blocker_height_m / z), np.finfo(float).tiny)
    los = cfg.los_intercept_db + 10.0 * cfg.los_slope * np.log10(d)
    nlos = cfg.nlos_intercept_db + 10.0 * cfg.nlos_slope * np.log10(d)
    loss = p_los * los + (1.0 - p_los) * nlos
    uav_gain = db_to_linear(-loss)
    if irs_xy is None:
        return loss, uav_gain, None
    irs = np.broadcast_to(np.asarray(irs_xy, dtype=float), uav.shape[:-1] + (2,))
    d_iu = np.sqrt((irs[..., 0, None] - users[..., 0]) ** 2
                   + (irs[..., 1, None] - users[..., 1]) ** 2 + cfg.irs_height_m ** 2)
    n = cfg.irs_elements_per_user
    irs_gain = cfg.irs_reflection_coeff * n * n * db_to_linear(
        -(cfg.nlos_intercept_db + 10.0 * cfg.nlos_slope * np.log10(d_iu)))
    if cfg.irs_uav_leg_enabled:
        d_ui = np.sqrt((uav[..., 0] - irs[..., 0]) ** 2 + (uav[..., 1] - irs[..., 1]) ** 2
                       + (uav[..., 2] - cfg.irs_height_m) ** 2)
        irs_gain = irs_gain * db_to_linear(
            -(cfg.los_intercept_db + 10.0 * cfg.los_slope * np.log10(d_ui)))[..., None]
    return loss, uav_gain, irs_gain


def textbook_evaluate_batch(uav_gain, irs_gain, cfg, access):
    """FTPA over noise-normalized gains; SINRs, rates and sums in user order."""
    gu = np.atleast_2d(np.asarray(uav_gain, dtype=float))
    gi = np.atleast_2d(np.asarray(irs_gain, dtype=float))
    batch, n = gu.shape
    rho = db_to_linear(cfg.uav_tx_power_dbm - cfg.noise_power_dbm)
    gamma_th = db_to_linear(cfg.snr_threshold_db)
    heff = gu + gi
    weak, strong, mid = pairing(heff)
    rows = np.arange(batch)[:, None]
    alpha = np.ones((batch, n), dtype=float)
    if access == "noma":
        sinr = np.empty((batch, n), dtype=float)
        noise = db_to_linear(cfg.noise_power_dbm)
        exponent = cfg.ftpa_decay if cfg.ftpa_favor_strong else -cfg.ftpa_decay
        x_weak = (heff[rows, weak] / noise) ** exponent
        x_strong = (heff[rows, strong] / noise) ** exponent
        alpha_weak, alpha_strong = x_weak / (x_weak + x_strong), x_strong / (x_weak + x_strong)
        sinr[rows, weak] = ((alpha_weak * gu[rows, weak] + gi[rows, weak])
                            / (alpha_strong * gu[rows, strong] + 1.0 / rho))
        sinr[rows, strong] = (alpha_strong * gu[rows, strong] + gi[rows, strong]) * rho
        alpha[rows, weak] = alpha_weak
        alpha[rows, strong] = alpha_strong
        if mid is not None:
            sinr[rows[:, 0], mid] = heff[rows[:, 0], mid] * rho
        rate = np.log2(1.0 + sinr)
    else:
        sinr = heff * rho
        rate = 0.5 * np.log2(1.0 + sinr)
    return {
        "sinr": sinr,
        "rate": rate,
        "alpha": alpha,
        "feasible": sinr >= gamma_th,
        "sum_rate": rate.sum(axis=1),
        "deficit": np.maximum(0.0, gamma_th - sinr).sum(axis=1),
        "weak": weak,
        "strong": strong,
        "mid": mid,
    }


def assert_same(got, want):
    """Equal dict keys and every array equal exactly, in shape, dtype and value."""
    assert got.keys() == want.keys()
    for key in want:
        if want[key] is None:
            assert got[key] is None, key
            continue
        g, w = np.asarray(got[key]), np.asarray(want[key])
        assert g.dtype == w.dtype and np.array_equal(g, w), key


def assert_gains_same(got, want):
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert g.shape == w.shape and np.array_equal(g, w)


def assert_meets_textbook(got, want, cfg):
    """got within 1e-12 relative of the textbook evaluation (see the module docstring)."""
    gamma_th = db_to_linear(cfg.snr_threshold_db)
    for key in ("weak", "strong", "mid", "feasible"):
        assert (got[key] is None and want[key] is None) or np.array_equal(got[key], want[key])
    for key, atol in (("sinr", 0.0), ("alpha", 0.0), ("rate", 1e-12), ("sum_rate", 1e-12),
                      ("deficit", 1e-12 * gamma_th)):
        assert np.allclose(got[key], want[key], rtol=1e-12, atol=atol), key


def _placements(rng, cfg, jobs, size, surface):
    """(uav, irs) as the GA scores them: (J, P, 3) and (J, P, 2), each job's
    point repeated ("pinned"), or None.  With "tail" the last job has no
    surface: _zero_tail zeroes its reflected rows, as the GA does."""
    r = cfg.region
    uav = np.stack([rng.uniform(r.x_min, r.x_max, (jobs, size)),
                    rng.uniform(r.y_min, r.y_max, (jobs, size)),
                    rng.uniform(cfg.uav_alt_min_m, cfg.uav_alt_max_m, (jobs, size))], axis=-1)
    if surface == "none":
        return uav, None
    shape = (jobs, 1 if surface == "pinned" else size)
    irs = np.stack([rng.uniform(r.x_min, r.x_max, shape),
                    rng.uniform(r.y_min, r.y_max, shape)], axis=-1)
    return uav, np.repeat(irs, size, axis=1) if surface == "pinned" else irs


def _zero_tail(gains, surface):
    """(gu, gi) with the last job's reflected rows zeroed if surface is "tail"."""
    if surface == "tail":
        gains[1][-1] = 0.0
    return gains


def assert_scores_same(ws, gu, gi, cfg, access, want):
    """A score-only call in ws gives the full evaluation's sum_rate and deficit."""
    got = noma.evaluate_batch(gu, gi, cfg, access, ws, full=False)
    assert got.keys() == {"sum_rate", "deficit"}
    assert_same(got, {key: want[key] for key in got})


def used_workspace(rng, access, surface):
    """A workspace left behind by kernel calls of another shape (11 users), access and surface."""
    cfg = make_config()
    jobs, size = rng.integers(1, 4, 2)
    uav, irs = _placements(rng, cfg, jobs, size, surface)
    users = rng.uniform(0.0, 60.0, (jobs, 1, 11, 2))
    ws = channel.Workspace()
    gu, gi = channel.link_gains(uav, irs, users, cfg, ws)
    noma.evaluate_batch(gu.reshape(-1, 11), None if gi is None else gi.reshape(-1, 11),
                        cfg, access, ws)
    return ws


def _other(value, choices):
    return choices[(choices.index(value) + 1) % len(choices)]


def _rows(gains, rows, num_users):
    return None if gains is None else gains.reshape(rows, num_users)


kernel_cases = dict(
    seed=st.integers(0, 2**32 - 1), jobs=st.integers(1, 3), size=st.integers(1, 6),
    num_users=st.sampled_from([1, 2, 3, 4, 7, 10]),
    surface=st.sampled_from(["none", "pinned", "moving", "tail"]),
    los_model=st.sampled_from(["blockage", "sigmoid"]), uav_leg=st.booleans(),
    access=st.sampled_from(["noma", "oma"]), elements=st.sampled_from([1, 4]),
    # 1000 blockers per m^2 underflow the LoS probability to its floor beyond ~110 m.
    blockers=st.sampled_from([0.01, 1000.0]), coeff=st.sampled_from([1.0, 0.0]))
floor_and_no_reflection = dict(seed=5, jobs=2, size=4, num_users=7, surface="tail",
                               los_model="blockage", uav_leg=True, access="noma", elements=4,
                               blockers=1000.0, coeff=0.0)


def case(seed, jobs, size, num_users, surface, los_model, uav_leg, elements, blockers, coeff):
    cfg = make_config(los_model=los_model, irs_uav_leg_enabled=uav_leg,
                      irs_elements_per_user=elements, blocker_density_per_m2=blockers,
                      irs_reflection_coeff=coeff)
    rng = np.random.default_rng(seed)
    uav, irs = _placements(rng, cfg, jobs, size, surface)
    users = rng.uniform(0.0, 500.0, (jobs, 1, num_users, 2))
    if num_users > 1:
        users[..., 1, :] = users[..., 0, :]  # a coincident pair ties in every row
    return cfg, rng, uav, irs, users


@settings(max_examples=120, deadline=None)
@given(**kernel_cases)
@example(**floor_and_no_reflection)
def test_fitness_kernels_equal_their_oracles_bit_for_bit(seed, jobs, size, num_users, surface,
                                                         los_model, uav_leg, access, elements,
                                                         blockers, coeff):
    cfg, rng, uav, irs, users = case(seed, jobs, size, num_users, surface, los_model, uav_leg,
                                     elements, blockers, coeff)
    assert np.array_equal(channel.uav_link_pathloss(uav, users, cfg),
                          fused_direct_ln_gain(uav, users, cfg) * -DB)
    want = fused_link_gains(uav, irs, users, cfg)
    assert_gains_same(channel.link_gains(uav, irs, users, cfg), want)
    want = _zero_tail(want, surface)
    rows = jobs * size
    gu, gi = (_rows(g, rows, num_users) for g in want)
    assert_same(noma.evaluate_batch(gu, gi, cfg, access),
                fused_evaluate_batch(gu, gi, cfg, access))

    ws = used_workspace(rng, _other(access, ["noma", "oma"]),
                        _other(surface, ["none", "pinned", "moving", "tail"]))
    got = channel.link_gains(uav, irs, users, cfg, ws)
    assert_gains_same(_zero_tail(got, surface), want)
    ws_gu, ws_gi = (_rows(g, rows, num_users) for g in got)
    want_ev = fused_evaluate_batch(gu, gi, cfg, access)
    assert_same(noma.evaluate_batch(ws_gu, ws_gi, cfg, access, ws), want_ev)
    assert_scores_same(ws, ws_gu, ws_gi, cfg, access, want_ev)


@settings(max_examples=120, deadline=None)
@given(**kernel_cases)
@example(**floor_and_no_reflection)
def test_fitness_kernels_meet_the_textbook_laws(seed, jobs, size, num_users, surface,
                                                los_model, uav_leg, access, elements,
                                                blockers, coeff):
    cfg, _, uav, irs, users = case(seed, jobs, size, num_users, surface, los_model, uav_leg,
                                   elements, blockers, coeff)
    loss, want_gu, want_gi = textbook_link_gains(uav, irs, users, cfg)
    assert np.allclose(channel.uav_link_pathloss(uav, users, cfg), loss, rtol=1e-12, atol=0.0)
    gu, gi = channel.link_gains(uav, irs, users, cfg)
    assert np.allclose(gu, want_gu, rtol=1e-12, atol=0.0)
    if want_gi is None:
        assert gi is None
        gi = want_gi = np.zeros_like(gu)
    assert np.allclose(gi, want_gi, rtol=1e-12, atol=0.0)
    if coeff == 0.0:
        assert np.all(gi == 0.0)
    gu, gi = gu.reshape(-1, num_users), gi.reshape(-1, num_users)
    assert_meets_textbook(noma.evaluate_batch(gu, gi, cfg, access),
                          textbook_evaluate_batch(gu, gi, cfg, access), cfg)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 8), num_users=st.integers(1, 12),
       ties=st.booleans(), reflected=st.sampled_from(["some", "zero", "none"]),
       access=st.sampled_from(["noma", "oma"]), decay=st.sampled_from([0.0, 0.28, 1.0]),
       favor_strong=st.booleans())
def test_evaluate_batch_equals_its_oracle_on_random_gains(seed, batch, num_users, ties,
                                                          reflected, access, decay,
                                                          favor_strong):
    cfg = make_config(ftpa_decay=decay, ftpa_favor_strong=favor_strong)
    rng = np.random.default_rng(seed)
    if ties:  # heff drawn from three values: most rows hold ties
        gu = rng.choice([1e-10, 3e-10, 2e-9], (batch, num_users))
        gi = np.full_like(gu, 1e-11)
    else:
        gu = rng.uniform(1e-12, 1e-8, (batch, num_users))
        gi = rng.uniform(0.0, 1e-9, (batch, num_users))
    gi = {"some": gi, "zero": np.zeros_like(gu), "none": None}[reflected]
    want = fused_evaluate_batch(gu, gi, cfg, access)
    assert_same(noma.evaluate_batch(gu, gi, cfg, access), want)
    if gi is None:  # no reflected link gives the bits of an all-zero one
        assert_same(noma.evaluate_batch(gu, np.zeros_like(gu), cfg, access), want)
    assert_meets_textbook(want, textbook_evaluate_batch(
        gu, np.zeros_like(gu) if gi is None else gi, cfg, access), cfg)

    ws = used_workspace(rng, _other(access, ["noma", "oma"]), "moving")
    assert_same(noma.evaluate_batch(gu, gi, cfg, access, ws), want)
    assert_scores_same(ws, gu, gi, cfg, access, want)


def adversarial_gains(num_users, seed):
    """Rows of total gains that test the ranking keys: distinct gains; exact
    ties; gains equal but for the low (U - 1).bit_length() bits the user index
    takes, larger at lower indices; and normal gains among which up to half
    the users (so no NOMA pair is two zeros) hold +0.0 and -0.0, the +0.0 at
    lower indices, or zeros from exp underflow and subnormals."""
    rng = np.random.default_rng(seed)
    low = (1 << (num_users - 1).bit_length()) - 1
    distinct = rng.uniform(1e-12, 1e-8, num_users)
    ties = rng.choice([1e-10, 3e-10, 2e-9], num_users)
    apart = (np.full(num_users, 3e-10).view(np.int64) & ~low) | (low - np.arange(num_users))
    rows = [distinct, ties, apart.view(float)]
    for specials in ([0.0, -0.0], [np.exp(-800.0), 5e-324, 1e-310, 2.0**-1060]):
        row = rng.uniform(1e-12, 1e-8, num_users)
        odd = np.sort(rng.permutation(num_users)[:num_users // 2])
        row[odd] = np.repeat(specials, -(-len(odd) // len(specials)))[:len(odd)]
        rows.append(row)
    return np.stack(rows)


@pytest.mark.parametrize("num_users", [1, 2, 3, 511, 512, 513])
def test_in_place_ranking_equals_a_stable_argsort_on_adversarial_rows(num_users):
    gu = adversarial_gains(num_users, num_users)
    cfg = make_config()
    ws = used_workspace(np.random.default_rng(num_users), "noma", "moving")
    half = num_users // 2
    for gi in (None, np.zeros_like(gu)):  # heff is gu itself, or gu + 0.0 (no -0.0 left)
        order = np.argsort(gu if gi is None else gu + gi, axis=1, kind="stable")
        for access in ("noma", "oma"):
            with np.errstate(divide="ignore", over="ignore"):  # FTPA over zero and subnormal gains
                want = fused_evaluate_batch(gu, gi, cfg, access)
                got = noma.evaluate_batch(gu, gi, cfg, access, ws)
                assert np.array_equal(got["weak"], order[:, :half])
                assert np.array_equal(got["strong"], order[:, ::-1][:, :half])
                assert got["mid"] is None if num_users % 2 == 0 else np.array_equal(
                    got["mid"], order[:, half])
                assert_same(got, want)
                assert_scores_same(ws, gu, gi, cfg, access, want)


def test_one_placement_and_one_user_shapes_match_the_oracle(cfg):
    users = np.array([[10.0, 20.0], [30.0, 5.0], [30.0, 5.0]])
    for uav, irs, pts in [((250.0, 250.0, 100.0), (40.0, 40.0), users),
                          ((250.0, 250.0, 100.0), None, users),
                          ((0.0, 0.0, 300.0), (0.0, 0.0), users[:1])]:
        want = fused_link_gains(uav, irs, pts, cfg)
        assert_gains_same(channel.link_gains(uav, irs, pts, cfg), want)
        for access in ("noma", "oma"):
            assert_same(noma.evaluate_batch(*want, cfg, access),
                        fused_evaluate_batch(*want, cfg, access))


def test_a_warm_workspace_keeps_fitness_calls_from_allocating_cell_arrays():
    # Jobs of 200 candidates and 301 users, alone and as one mixed stack.  NOMA
    # ranks users in a workspace buffer, so a score-only call allocates only
    # the kernels' small temporaries (bool masks, a byte per cell), well under
    # one (P, U) array per job; a fresh ranking array would fill that budget.
    # A full call may copy out its winners, but copying an access mode's whole
    # evaluation out of the workspace breaks its budget of two such arrays.
    cfg = make_config(num_users=301, population_size=200)
    rng = np.random.default_rng(7)
    genomes = (rng.random((3, 200, optimizer.genome_length(cfg))) < 0.5).astype(np.uint8)
    users = rng.uniform(0.0, 500.0, (3, 301, 2))
    names = ["M-IRS-NOMA", "No-IRS-NOMA", "M-IRS-OMA"]
    for stack in [[name] for name in names] + [names]:
        jobs = len(stack)
        cells = jobs * 200 * 301 * np.dtype(float).itemsize
        for full, budget in ((False, cells), (True, 2 * cells)):
            args = (genomes[:jobs], users[:jobs], cfg, [cli.SCENARIOS[n] for n in stack],
                    [None] * jobs, None, channel.Workspace(), full)
            peak = _warm_peak_bytes(optimizer._fitness, *args)
            assert peak <= budget, (stack, full, peak)


def test_a_warm_workspace_keeps_link_gains_from_allocating_cell_arrays():
    # Each channel law runs in place in the workspace's roles: with every LoS
    # model, the UAV leg on and off, and with and without surfaces, a warm
    # call allocates less than one job's (P, U) array.  An operation that
    # loses its out= costs a whole (J, P, U) temporary.
    rng = np.random.default_rng(7)
    uav = np.concatenate([rng.uniform(0.0, 500.0, (3, 200, 2)),
                          rng.uniform(100.0, 300.0, (3, 200, 1))], axis=-1)
    irs = rng.uniform(0.0, 500.0, (3, 200, 2))
    users = rng.uniform(0.0, 500.0, (3, 1, 301, 2))
    budget = 200 * 301 * np.dtype(float).itemsize
    for los_model in ("blockage", "sigmoid"):
        for leg in (False, True):
            cfg = make_config(num_users=301, population_size=200, los_model=los_model,
                              irs_uav_leg_enabled=leg)
            for surfaces in (irs, None):
                args = (uav, surfaces, users, cfg, channel.Workspace())
                peak = _warm_peak_bytes(channel.link_gains, *args)
                assert peak < budget, (los_model, leg, surfaces is None, peak)


def _warm_peak_bytes(kernel, *args):
    """Peak bytes traced during a second kernel(*args) call, after a first warms args' workspace."""
    kernel(*args)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        kernel(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
