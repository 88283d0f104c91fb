"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 runs the full benchmark (reference parameters, 20 seeds, four
scenarios) once per session; criteria 1, 2, and 8 are the expensive ones.
"""

import itertools
import math
import time

import numpy as np
import pytest

from mirsim import channel, cli, mobility, noma, optimizer, scenario
from mirsim.scenario import ScenarioConfig

from testutil import make_config

NUM_SEEDS = 20


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> bool:
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    return ok


@pytest.fixture(scope="module")
def benchmark_run():
    cfg = ScenarioConfig()
    seeds = [cfg.master_seed + i for i in range(NUM_SEEDS)]
    start = time.perf_counter()
    report = cli.run_experiment(cfg, list(cli.SCENARIOS), seeds)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_criterion_1_scenario_ordering(benchmark_run):
    report, elapsed = benchmark_run
    m = report.avg_sum_rate["M-IRS-NOMA"]
    s = report.avg_sum_rate["S-IRS-NOMA"]
    no = report.avg_sum_rate["No-IRS-NOMA"]
    ordering = all(a >= b >= c for a, b, c in zip(m, s, no))
    vs_static = report.improvement_pct["M-IRS-NOMA vs S-IRS-NOMA"]["mean"]
    vs_none = report.improvement_pct["M-IRS-NOMA vs No-IRS-NOMA"]["mean"]
    in_band_static = 5.0 <= vs_static <= 25.0
    in_band_none = 10.0 <= vs_none <= 40.0
    in_time = elapsed <= 300.0
    ok = ordering and in_band_static and in_band_none and in_time
    _verdict(1, "scenario ordering and improvement bands", ok,
             f"vs static {vs_static:.1f}% in [5,25], vs none {vs_none:.1f}% in [10,40], "
             f"ordering every slot {ordering}, runtime {elapsed:.0f}s <= 300s")
    assert ordering, f"per-slot ordering violated: M={m} S={s} No={no}"
    assert in_band_static, f"mobile-vs-static improvement {vs_static:.2f}% outside [5, 25]"
    assert in_band_none, f"mobile-vs-none improvement {vs_none:.2f}% outside [10, 40]"
    assert in_time, f"benchmark took {elapsed:.0f}s > 300s"


def test_criterion_2_noma_vs_oma(benchmark_run):
    report, _ = benchmark_run
    m = report.avg_sum_rate["M-IRS-NOMA"]
    oma = report.avg_sum_rate["M-IRS-OMA"]
    wins = sum(a >= b for a, b in zip(m, oma))
    ok = wins >= 4
    _verdict(2, "NOMA beats OMA in >= 4 of 5 slots", ok, f"{wins}/5 slots")
    assert ok, f"NOMA >= OMA in only {wins} of {len(m)} slots"


def test_criterion_3_ga_matches_exhaustive_search():
    cfg = make_config(bits_per_coordinate=2, population_size=32, max_iterations=128,
                      num_users=4)
    users = np.array([[40.0, 60.0], [120.0, 380.0], [410.0, 90.0], [300.0, 300.0]])
    length = optimizer.genome_length(cfg)
    space = np.array(list(itertools.product((0, 1), repeat=length)), dtype=np.uint8)
    assert space.shape[0] == 1024
    optimum = optimizer._fitness_batch(space, users, cfg, cli.SCENARIOS["M-IRS-NOMA"])[0].max()

    start = time.perf_counter()
    hits = 0
    for seed in range(100):
        rng = scenario.stream(seed, scenario.GA_STREAM, 0, 0)
        _, record = optimizer.optimize_slot(users, cfg, rng)
        if record.best_fitness[-1] >= optimum - 1e-9 * max(1.0, abs(optimum)):
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits >= 95 and elapsed <= 30.0
    _verdict(3, "GA attains the exhaustive 1024-genome optimum", ok,
             f"{hits}/100 runs, {elapsed:.1f}s <= 30s")
    assert hits >= 95, f"GA matched the exhaustive optimum in only {hits}/100 runs"
    assert elapsed <= 30.0, f"took {elapsed:.1f}s > 30s"


def test_criterion_4_ftpa_properties():
    rng = np.random.default_rng(7)
    gains = 10.0 ** rng.uniform(-14, -6, size=(10_000, 2))
    lo = np.minimum(gains[:, 0], gains[:, 1])
    hi = np.maximum(gains[:, 0], gains[:, 1])
    noise = 1e-8
    ok = True
    for beta in (0.0, 0.28, 0.5, 1.0):
        for weak, strong in zip(lo, hi):
            aw, a_s = noma.ftpa_allocate(weak, strong, noise, beta)
            if abs(aw + a_s - 1.0) > 1e-12 or aw < a_s:
                ok = False
                break
            if beta == 0.0 and not (aw == 0.5 and a_s == 0.5):
                ok = False
                break
        if not ok:
            break
    _verdict(4, "FTPA sums to 1, favors the weak user, beta=0 splits equally", ok,
             "10000 gain pairs x beta in {0, 0.28, 0.5, 1}")
    assert ok


def test_criterion_5_channel_analytics(cfg):
    los_100 = float(channel.pathloss_los(100.0, cfg))
    nlos_100 = float(channel.pathloss_nlos(100.0, cfg))
    values_ok = (math.isclose(los_100, 101.4, rel_tol=1e-12)
                 and math.isclose(nlos_100, 130.4, rel_tol=1e-12))

    q = np.linspace(0.0, 5000.0, 1000)
    p_los = channel.blockage_prob(q, 100.0, cfg)
    blockage_ok = p_los[0] == 1.0 and bool(np.all(np.diff(p_los) < 0.0))

    rng = np.random.default_rng(11)
    bounded_ok = True
    for _ in range(10):
        uav = np.array([rng.uniform(0, 500), rng.uniform(0, 500), rng.uniform(100, 300)])
        users = rng.uniform(0, 500, size=(1000, 2))
        d = channel.distance_3d(uav, users)
        avg = channel.uav_link_pathloss(uav, users, cfg)
        lo_db = channel.pathloss_los(d, cfg)
        hi_db = channel.pathloss_nlos(d, cfg)
        if not (np.all(avg >= np.minimum(lo_db, hi_db) - 1e-9)
                and np.all(avg <= np.maximum(lo_db, hi_db) + 1e-9)):
            bounded_ok = False
    ok = values_ok and blockage_ok and bounded_ok
    _verdict(5, "pathloss anchors, blockage monotonicity, bounded average", ok,
             f"LoS(100m)={los_100:.6f} dB, NLoS(100m)={nlos_100:.6f} dB")
    assert values_ok, (los_100, nlos_100)
    assert blockage_ok
    assert bounded_ok


def test_criterion_6_coherent_combining_law(cfg):
    import dataclasses
    irs = (120.0, 80.0)
    uav = (150.0, 100.0, 120.0)
    users = np.array([[100.0, 75.0], [300.0, 400.0]])
    base = channel.irs_combined_gain(np.asarray(irs), np.asarray(uav), users, cfg)
    ok = True
    for n in (2, 4, 8, 16):
        params = dataclasses.replace(cfg, irs_elements_per_user=n)
        gain = channel.irs_combined_gain(np.asarray(irs), np.asarray(uav), users, params)
        if not np.all(gain / base == float(n * n)):
            ok = False
    _verdict(6, "combined gain scales exactly as N^2", ok, "N in {2, 4, 8, 16}")
    assert ok


def test_criterion_7_mobility_properties():
    cfg = make_config(num_users=5, speed_min_mps=0.1, speed_max_mps=0.9,
                      pause_duration_s=3.0)
    rng = scenario.stream(5, scenario.MOBILITY_STREAM)
    users = mobility.init_users(cfg, rng)
    dt = 1.0
    s_max = cfg.speed_max_mps
    contained = True
    speed_ok = True
    pause_ok = True
    pause_counts = 0
    pending: dict[int, int] = {}
    prev = users.position.copy()
    for _ in range(10_000):
        arrived_before = (np.all(users.position == users.waypoint, axis=1)
                          & (users.pause_remaining > 0))
        mobility.step(users, dt, cfg.region, cfg, rng)
        for i in range(cfg.num_users):
            position = tuple(users.position[i])
            moved = math.dist(prev[i], position)
            if moved > s_max * dt + 1e-9:
                speed_ok = False
            if not cfg.region.contains(*position):
                contained = False
            if i in pending:
                if moved == 0.0:
                    pending[i] += 1
                else:
                    if pending[i] != math.ceil(cfg.pause_duration_s / dt):
                        pause_ok = False
                    pause_counts += 1
                    del pending[i]
            elif (not arrived_before[i] and position == tuple(users.waypoint[i])
                  and users.pause_remaining[i] > 0):
                pending[i] = 0  # just arrived; count the stationary steps that follow
        prev = users.position.copy()

    zero_cfg = make_config(num_users=3, speed_min_mps=0.0, speed_max_mps=0.0)
    zrng = scenario.stream(6, scenario.MOBILITY_STREAM)
    zero_users = mobility.init_users(zero_cfg, zrng)
    start_pos = zero_users.position.copy()
    for _ in range(100):
        mobility.step(zero_users, dt, zero_cfg.region, zero_cfg, zrng)
    frozen_ok = np.array_equal(zero_users.position, start_pos)

    ok = contained and speed_ok and pause_ok and pause_counts > 0 and frozen_ok
    _verdict(7, "mobility containment, speed bound, pause fidelity, zero-speed", ok,
             f"{pause_counts} pauses verified over 10000 steps x 5 users")
    assert contained and speed_ok and pause_ok and pause_counts > 0 and frozen_ok


def test_criterion_8_byte_identical_rerun(tmp_path):
    cfg = make_config(population_size=12, max_iterations=6, num_users=6,
                      bits_per_coordinate=8)
    seeds = [1, 2]
    names = list(cli.SCENARIOS)
    paths_a = cli.emit_outputs(cli.run_experiment(cfg, names, seeds), tmp_path / "a")
    paths_b = cli.emit_outputs(cli.run_experiment(cfg, names, seeds), tmp_path / "b")
    same = {name: paths_a[name].read_bytes() == paths_b[name].read_bytes()
            for name in paths_a}
    ok = all(same.values())
    _verdict(8, "rerun produces byte-identical outputs", ok,
             ", ".join(sorted(paths_a)))
    assert ok, f"differing files: {[k for k, v in same.items() if not v]}"
