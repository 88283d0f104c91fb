"""The fitness kernels pinned bit for bit against their plain-expression forms.

``channel.link_gains`` and ``noma.evaluate_batch`` compute in place over
reused buffers and sort with the default (SIMD) argsort, re-sorting stably
only the rows with ties.  The oracles below are the straightforward
expressions they replaced, each temporary its own array and every sort
stable; every array the kernels return must equal theirs exactly.  So must
every array they return when they compute in a ``channel.Workspace`` that an
earlier call of another shape, access mode and surface left behind.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from mirsim import channel, cli, noma, optimizer
from mirsim.scenario import db_to_linear

from testutil import make_config


def oracle_uav_link_pathloss(uav_xyz, users_xy, cfg):
    uav = np.asarray(uav_xyz, dtype=float)
    users = np.asarray(users_xy, dtype=float)
    dx = uav[..., 0, None] - users[..., 0]
    dy = uav[..., 1, None] - users[..., 1]
    d = np.sqrt(dx * dx + dy * dy + uav[..., 2, None] ** 2)
    q = np.hypot(uav[..., 0, None] - users[..., 0], uav[..., 1, None] - users[..., 1])
    p_los = channel.los_probability(q, uav[..., 2, None], cfg)
    los = cfg.los_intercept_db + 10.0 * cfg.los_slope * np.log10(d)
    nlos = cfg.nlos_intercept_db + 10.0 * cfg.nlos_slope * np.log10(d)
    return p_los * los + (1.0 - p_los) * nlos


def oracle_irs_combined_gain(irs_xy, uav_xyz, users_xy, cfg):
    irs_height = cfg.irs_height_m
    irs = np.asarray(irs_xy, dtype=float)
    users = np.asarray(users_xy, dtype=float)
    dx = irs[..., 0, None] - users[..., 0]
    dy = irs[..., 1, None] - users[..., 1]
    d_iu = np.sqrt(dx * dx + dy * dy + irs_height * irs_height)
    per_element = db_to_linear(-(cfg.nlos_intercept_db
                                 + 10.0 * cfg.nlos_slope * np.log10(d_iu)))
    n = cfg.irs_elements_per_user
    gain = cfg.irs_reflection_coeff * (n * n) * per_element
    if cfg.irs_uav_leg_enabled:
        uav = np.asarray(uav_xyz, dtype=float)
        d_ui = np.sqrt((uav[..., 0] - irs[..., 0]) ** 2
                       + (uav[..., 1] - irs[..., 1]) ** 2
                       + (uav[..., 2] - irs_height) ** 2)
        leg = cfg.los_intercept_db + 10.0 * cfg.los_slope * np.log10(d_ui)
        gain = gain * np.asarray(db_to_linear(-leg))[..., None]
    return gain


def oracle_link_gains(uav_xyz, irs_xy, users_xy, cfg):
    uav_gain = db_to_linear(-oracle_uav_link_pathloss(uav_xyz, users_xy, cfg))
    if irs_xy is None:
        return uav_gain, np.zeros_like(uav_gain)
    irs_gain = oracle_irs_combined_gain(irs_xy, uav_xyz, users_xy, cfg)
    return uav_gain, np.broadcast_to(irs_gain, uav_gain.shape).copy()


def oracle_ftpa_allocate(gain_weak, gain_strong, noise_linear, decay, favor_strong=False):
    exponent = decay if favor_strong else -decay
    x_weak = (gain_weak / noise_linear) ** exponent
    x_strong = (gain_strong / noise_linear) ** exponent
    total = x_weak + x_strong
    return x_weak / total, x_strong / total


def oracle_evaluate_batch(uav_gain, irs_gain, cfg, access):
    gu = np.atleast_2d(np.asarray(uav_gain, dtype=float))
    gi = np.atleast_2d(np.asarray(irs_gain, dtype=float))
    batch, n = gu.shape
    rho = db_to_linear(cfg.uav_tx_power_dbm - cfg.noise_power_dbm)
    gamma_th = db_to_linear(cfg.snr_threshold_db)
    heff = gu + gi
    order = np.argsort(heff, axis=1, kind="stable")
    half = n // 2
    rows = np.arange(batch)[:, None]
    weak = order[:, :half]
    strong = order[:, ::-1][:, :half]
    mid = order[:, half] if n % 2 else None

    alpha = np.ones((batch, n), dtype=float)
    if access == "noma":
        sinr_arr = np.empty((batch, n), dtype=float)
        alpha_weak, alpha_strong = oracle_ftpa_allocate(
            heff[rows, weak], heff[rows, strong], db_to_linear(cfg.noise_power_dbm),
            cfg.ftpa_decay, cfg.ftpa_favor_strong)
        sig_weak = alpha_weak * gu[rows, weak] + gi[rows, weak]
        sinr_arr[rows, weak] = sig_weak / (alpha_strong * gu[rows, strong] + 1.0 / rho)
        sinr_arr[rows, strong] = (alpha_strong * gu[rows, strong] + gi[rows, strong]) * rho
        alpha[rows, weak] = alpha_weak
        alpha[rows, strong] = alpha_strong
        if mid is not None:
            sinr_arr[rows[:, 0], mid] = heff[rows[:, 0], mid] * rho
        rate = np.log2(1.0 + sinr_arr)
    else:
        sinr_arr = heff * rho
        rate = 0.5 * np.log2(1.0 + sinr_arr)
    return {
        "sinr": sinr_arr,
        "rate": rate,
        "alpha": alpha,
        "feasible": sinr_arr >= gamma_th,
        "sum_rate": rate.sum(axis=1),
        "deficit": np.maximum(0.0, gamma_th - sinr_arr).sum(axis=1),
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


def _placements(rng, cfg, jobs, size, surface):
    """(uav, irs) as the GA scores them: (J, P, 3) and (J, P, 2), (J, 1, 2) or None."""
    r = cfg.region
    uav = np.stack([rng.uniform(r.x_min, r.x_max, (jobs, size)),
                    rng.uniform(r.y_min, r.y_max, (jobs, size)),
                    rng.uniform(cfg.uav_alt_min_m, cfg.uav_alt_max_m, (jobs, size))], axis=-1)
    if surface == "none":
        return uav, None
    irs = np.stack([rng.uniform(r.x_min, r.x_max, (jobs, 1 if surface == "pinned" else size)),
                    rng.uniform(r.y_min, r.y_max, (jobs, 1 if surface == "pinned" else size))],
                   axis=-1)
    return uav, irs


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
    noma.evaluate_batch(gu.reshape(-1, 11), gi.reshape(-1, 11), cfg, access, ws)
    return ws


def _other(value, choices):
    return choices[(choices.index(value) + 1) % len(choices)]


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), jobs=st.integers(1, 3), size=st.integers(1, 6),
       num_users=st.sampled_from([1, 2, 3, 4, 7, 10]),
       surface=st.sampled_from(["none", "pinned", "moving"]),
       los_model=st.sampled_from(["blockage", "sigmoid"]), uav_leg=st.booleans(),
       access=st.sampled_from(["noma", "oma"]), elements=st.sampled_from([1, 4]))
def test_fitness_kernels_equal_their_oracles_bit_for_bit(seed, jobs, size, num_users, surface,
                                                         los_model, uav_leg, access, elements):
    cfg = make_config(los_model=los_model, irs_uav_leg_enabled=uav_leg,
                      irs_elements_per_user=elements)
    rng = np.random.default_rng(seed)
    uav, irs = _placements(rng, cfg, jobs, size, surface)
    users = rng.uniform(0.0, 60.0, (jobs, 1, num_users, 2))
    if num_users > 1:
        users[..., 1, :] = users[..., 0, :]  # a coincident pair ties in every row

    assert np.array_equal(channel.uav_link_pathloss(uav, users, cfg),
                          oracle_uav_link_pathloss(uav, users, cfg))
    got, want = channel.link_gains(uav, irs, users, cfg), oracle_link_gains(uav, irs, users, cfg)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)
    rows = jobs * size
    gu, gi = (g.reshape(rows, num_users) for g in want)
    assert_same(noma.evaluate_batch(gu, gi, cfg, access),
                oracle_evaluate_batch(gu, gi, cfg, access))

    ws = used_workspace(rng, _other(access, ["noma", "oma"]),
                        _other(surface, ["none", "pinned", "moving"]))
    got = channel.link_gains(uav, irs, users, cfg, ws)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)
    ws_gu, ws_gi = (g.reshape(rows, num_users) for g in got)
    want_ev = oracle_evaluate_batch(gu, gi, cfg, access)
    assert_same(noma.evaluate_batch(ws_gu, ws_gi, cfg, access, ws), want_ev)
    assert_scores_same(ws, ws_gu, ws_gi, cfg, access, want_ev)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 8), num_users=st.integers(1, 12),
       ties=st.booleans(), access=st.sampled_from(["noma", "oma"]),
       decay=st.sampled_from([0.0, 0.28, 1.0]), favor_strong=st.booleans())
def test_evaluate_batch_equals_its_oracle_on_random_gains(seed, batch, num_users, ties, access,
                                                          decay, favor_strong):
    cfg = make_config(ftpa_decay=decay, ftpa_favor_strong=favor_strong)
    rng = np.random.default_rng(seed)
    if ties:  # heff drawn from three values: most rows hold ties
        gu = rng.choice([1e-10, 3e-10, 2e-9], (batch, num_users))
        gi = np.zeros_like(gu) if rng.random() < 0.5 else np.full_like(gu, 1e-11)
    else:
        gu = rng.uniform(1e-12, 1e-8, (batch, num_users))
        gi = rng.uniform(0.0, 1e-9, (batch, num_users))
    assert_same(noma.evaluate_batch(gu, gi, cfg, access),
                oracle_evaluate_batch(gu, gi, cfg, access))

    ws = used_workspace(rng, _other(access, ["noma", "oma"]), "moving")
    want = oracle_evaluate_batch(gu, gi, cfg, access)
    assert_same(noma.evaluate_batch(gu, gi, cfg, access, ws), want)
    assert_scores_same(ws, gu, gi, cfg, access, want)


def test_one_placement_and_one_user_shapes_match_the_oracle(cfg):
    users = np.array([[10.0, 20.0], [30.0, 5.0], [30.0, 5.0]])
    for uav, irs, pts in [((250.0, 250.0, 100.0), (40.0, 40.0), users),
                          ((250.0, 250.0, 100.0), None, users),
                          ((0.0, 0.0, 300.0), (0.0, 0.0), users[:1])]:
        for g, w in zip(channel.link_gains(uav, irs, pts, cfg),
                        oracle_link_gains(uav, irs, pts, cfg)):
            assert g.shape == w.shape and np.array_equal(g, w)
        gu, gi = oracle_link_gains(uav, irs, pts, cfg)
        for access in ("noma", "oma"):
            assert_same(noma.evaluate_batch(gu, gi, cfg, access),
                        oracle_evaluate_batch(gu, gi, cfg, access))


def test_a_warm_workspace_keeps_fitness_calls_from_allocating_cell_arrays():
    # Jobs of 200 candidates and 301 users, alone and as one mixed stack; only
    # an argsort output, one (P, U) array per job, is expected, and each
    # kernel's small temporaries on top.  Copying an access mode's whole final
    # evaluation out of the workspace, not just its winners, breaks the budget.
    cfg = make_config(num_users=301, population_size=200)
    rng = np.random.default_rng(7)
    genomes = (rng.random((3, 200, optimizer.genome_length(cfg))) < 0.5).astype(np.uint8)
    users = rng.uniform(0.0, 500.0, (3, 301, 2))
    names = ["M-IRS-NOMA", "No-IRS-NOMA", "M-IRS-OMA"]
    for stack in [[name] for name in names] + [names]:
        jobs = len(stack)
        budget = 2 * jobs * 200 * 301 * np.dtype(float).itemsize
        for full in (False, True):
            args = (genomes[:jobs], users[:jobs], cfg, [cli.SCENARIOS[n] for n in stack],
                    [None] * jobs, None, channel.Workspace(), full)
            optimizer._fitness(*args)
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                optimizer._fitness(*args)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                if started:
                    tracemalloc.stop()
            assert peak <= budget, (stack, full, peak)
