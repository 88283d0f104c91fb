import concurrent.futures
import math
import threading
import time
from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mirsim import channel, cli, mobility, noma, optimizer, scenario
from mirsim.channel import Placement
from mirsim.optimizer import Variant

from testutil import config_yaml, make_config, optimize_trajectory, slot_result, small_config

MOBILE = Variant("mobile", "noma")


def _ga_rng(seed=0, slot=0):
    return scenario.stream(seed, scenario.GA_STREAM, 0, slot)


def decode(genome: np.ndarray, bounds, bits: int) -> Placement:
    """The placement one genome encodes."""
    coords = optimizer.decode_batch(genome, bounds, bits)
    return Placement(uav=(coords[0], coords[1], coords[2]), irs=(coords[3], coords[4]))


def encode(placement: Placement, bounds, bits: int) -> np.ndarray:
    """Genome oracle, the inverse of decode: quantize a placement onto the bit grid.

    Raises if a coordinate is out of bounds.
    """
    values = [*placement.uav, *placement.irs]
    levels = (1 << bits) - 1
    genome = np.zeros(optimizer.NUM_COORDS * bits, dtype=np.uint8)
    for c, (v, (lo, hi)) in enumerate(zip(values, bounds)):
        if not (lo - 1e-9 <= v <= hi + 1e-9):
            raise ValueError(f"coordinate {c} value {v} outside [{lo}, {hi}]")
        code = int(round((v - lo) / (hi - lo) * levels)) if hi > lo else 0
        for j in range(bits):
            genome[c * bits + j] = (code >> (bits - 1 - j)) & 1
    return genome


def _fitness(genomes, users, cfg, prev_placement=None):
    """M-IRS-NOMA fitness of a (P, L) stack of genomes: a one-job optimizer._fitness call."""
    prev = None if prev_placement is None else [prev_placement]
    return optimizer._fitness(np.atleast_2d(genomes)[None], np.asarray(users)[None], cfg,
                              [MOBILE], [None], prev)[0][0]


# -- Per-job GA oracle: one slot search at a time, one job at a time ---------
# optimizer.optimize_jobs must reproduce it exactly, draw for draw.

def oracle_fitness_batch(genomes, users_xy, cfg, variant, fixed_irs=None,
                         prev_placement: Optional[Placement] = None):
    """Oracle: (fitness, uav, irs, evaluation) of a (P, L) population of one job."""
    coords = optimizer.decode_batch(genomes, optimizer.genome_bounds(cfg),
                                    cfg.bits_per_coordinate)
    uav = coords[:, :3]
    irs_moves = variant.surface != "none" and fixed_irs is None
    if irs_moves:
        irs = coords[:, 3:]
    elif variant.surface == "none":
        irs = None
    else:
        irs = np.broadcast_to(np.asarray(fixed_irs, dtype=float), (len(uav), 2))
    gu, gi = channel.link_gains(uav, irs, users_xy, cfg)
    ev = noma.evaluate_batch(gu, gi, cfg, variant.access)
    fit = ev["sum_rate"] - cfg.sinr_penalty_weight * ev["deficit"]
    limit = cfg.max_slot_displacement_m
    if limit is not None and prev_placement is not None:
        px, py, _ = prev_placement.uav
        excess = np.maximum(0.0, np.hypot(uav[:, 0] - px, uav[:, 1] - py) - limit)
        if irs_moves:
            qx, qy = prev_placement.irs
            excess = excess + np.maximum(0.0, np.hypot(irs[:, 0] - qx, irs[:, 1] - qy) - limit)
        fit = fit - cfg.sinr_penalty_weight * excess
    return fit, uav, irs, ev


def tournament_select(population, fitnesses, tournament_size, count, rng):
    """Oracle: count tournaments of tournament_size distinct genomes each.

    Returns the winners, shape (count, L); a winner is the fittest entrant,
    ties going to the lowest index.
    """
    n = len(population)
    if n == 0:
        raise ValueError("empty population")
    keys = rng.random((count, n))
    entrants = np.sort(np.argpartition(keys, tournament_size - 1, axis=1)[:, :tournament_size],
                       axis=1)
    best = np.argmax(fitnesses[entrants], axis=1)
    return population[entrants[np.arange(count), best]]


def crossover(parents_a, parents_b, crossover_prob, rng):
    """Oracle: single-point suffix swap per row pair with the given probability."""
    if parents_a.shape != parents_b.shape:
        raise ValueError("parent genomes must have equal shape")
    pairs, length = parents_a.shape
    coin = rng.random(pairs) < crossover_prob
    cut = rng.integers(1, length, pairs)
    swap = coin[:, None] & (np.arange(length) >= cut[:, None])
    return np.where(swap, parents_b, parents_a), np.where(swap, parents_a, parents_b)


def mutate(genomes, mutation_prob_per_bit, rng):
    """Oracle: flip each bit independently with the given probability."""
    return genomes ^ (rng.random(genomes.shape) < mutation_prob_per_bit).astype(np.uint8)


def oracle_breed(population, fitnesses, cfg, mutation_prob_per_bit, rng):
    """Oracle: the elitism_count fittest genomes, then mutated crossover children."""
    num_children = len(population) - cfg.elitism_count
    pairs = (num_children + 1) // 2
    elites = population[np.argsort(-fitnesses, kind="stable")[:cfg.elitism_count]]
    parents = tournament_select(population, fitnesses, cfg.tournament_size, 2 * pairs, rng)
    child_a, child_b = crossover(parents[0::2], parents[1::2], cfg.crossover_prob, rng)
    children = np.stack([child_a, child_b], axis=1).reshape(2 * pairs, -1)[:num_children]
    return np.concatenate([elites, mutate(children, mutation_prob_per_bit, rng)])


def optimize_slot(users_xy, cfg, rng, variant=MOBILE, *, fixed_irs=None,
                  warm_start_genome=None, prev_placement=None):
    """Oracle: the GA for one slot of one job; its run record."""
    length = optimizer.genome_length(cfg)
    mut_p = cfg.mutation_prob_per_bit if cfg.mutation_prob_per_bit is not None else 1.0 / length
    population = (rng.random((cfg.population_size, length)) < 0.5).astype(np.uint8)
    if warm_start_genome is not None:
        population[0] = warm_start_genome
    best_per_gen, mean_per_gen = [], []
    for generation in range(cfg.max_iterations + 1):
        if generation:
            population = oracle_breed(population, fit, cfg, mut_p, rng)
        fit, uav, irs, ev = oracle_fitness_batch(population, users_xy, cfg, variant, fixed_irs,
                                                 prev_placement)
        best_per_gen.append(float(fit.max()))
        mean_per_gen.append(float(fit.mean()))
    best = int(np.argmax(fit))
    placement = Placement(uav=tuple(uav[best].tolist()),
                          irs=None if irs is None else tuple(irs[best].tolist()))
    return optimizer.GaRunRecord(
        placement=placement, best_fitness=best_per_gen, mean_fitness=mean_per_gen,
        best_genome=population[best].copy(), result=noma.SlotResult.from_batch(ev, best))


def oracle_trajectory(trace, cfg, master_seed, variant=MOBILE):
    """Oracle: one job's slot searches one after another, warm starts chained."""
    records = []
    frozen = None
    if variant.surface == "static" and cfg.s_irs_x is not None:
        frozen = (cfg.s_irs_x, cfg.s_irs_y)
    for slot in range(trace.num_slots):
        rng = scenario.stream(master_seed, scenario.GA_STREAM,
                              {"noma": 0, "oma": 1}[variant.access], slot)
        record = optimize_slot(
            trace.positions[slot], cfg, rng, variant, fixed_irs=frozen,
            warm_start_genome=records[-1].best_genome if cfg.warm_start and records else None,
            prev_placement=records[-1].placement if records else None)
        if variant.surface == "static" and frozen is None:
            frozen = record.placement.irs
        records.append(record)
    return records


def test_encode_bounds_map_to_all_zero_and_all_one():
    cfg = make_config(bits_per_coordinate=8)
    bounds = optimizer.genome_bounds(cfg)
    lows = Placement(uav=(0.0, 0.0, 100.0), irs=(0.0, 0.0))
    highs = Placement(uav=(500.0, 500.0, 300.0), irs=(500.0, 500.0))
    assert np.all(encode(lows, bounds, 8) == 0)
    assert np.all(encode(highs, bounds, 8) == 1)


def test_encode_midpoint_quantizes_to_128():
    cfg = make_config(bits_per_coordinate=8)
    bounds = optimizer.genome_bounds(cfg)
    mid = Placement(uav=(250.0, 250.0, 200.0), irs=(250.0, 250.0))
    genome = encode(mid, bounds, 8)
    for c in range(optimizer.NUM_COORDS):
        code = int("".join(str(b) for b in genome[c * 8:(c + 1) * 8]), 2)
        assert code == 128


def test_decode_extremes():
    cfg = make_config(bits_per_coordinate=6)
    bounds = optimizer.genome_bounds(cfg)
    length = optimizer.genome_length(cfg)
    low = decode(np.zeros(length, dtype=np.uint8), bounds, 6)
    high = decode(np.ones(length, dtype=np.uint8), bounds, 6)
    assert low.uav == (0.0, 0.0, 100.0) and low.irs == (0.0, 0.0)
    assert high.uav == (500.0, 500.0, 300.0) and high.irs == (500.0, 500.0)


def test_widest_genome_decodes_inside_the_constraints():
    bits = 53
    cfg = make_config(bits_per_coordinate=bits)
    bounds = optimizer.genome_bounds(cfg)
    top_bit = np.tile(np.eye(1, bits, dtype=np.uint8)[0], optimizer.NUM_COORDS)
    high = decode(np.ones(optimizer.genome_length(cfg), dtype=np.uint8), bounds, bits)
    middle = decode(top_bit, bounds, bits)
    assert high.uav == (500.0, 500.0, 300.0) and high.irs == (500.0, 500.0)
    for value, expected in zip((*middle.uav, *middle.irs), (250.0, 250.0, 200.0, 250.0, 250.0)):
        assert math.isclose(value, expected, rel_tol=1e-15)
    for placement in (high, middle):
        channel.validate_placement(placement, cfg)


def test_round_trip_error_within_quantization_bound():
    cfg = make_config(bits_per_coordinate=12)
    bounds = optimizer.genome_bounds(cfg)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        placement = Placement(
            uav=(rng.uniform(0, 500), rng.uniform(0, 500), rng.uniform(100, 300)),
            irs=(rng.uniform(0, 500), rng.uniform(0, 500)))
        decoded = decode(encode(placement, bounds, 12), bounds, 12)
        values = [*placement.uav, *placement.irs]
        back = [*decoded.uav, *decoded.irs]
        for v, w, (lo, hi) in zip(values, back, bounds):
            err = abs(v - w) / ((hi - lo) / (2 ** 12 - 1))
            worst = max(worst, err)
    assert worst <= 0.5 + 1e-9


def test_encode_rejects_a_placement_out_of_bounds():
    cfg = make_config(bits_per_coordinate=6)
    bounds = optimizer.genome_bounds(cfg)
    with pytest.raises(ValueError, match="outside"):
        encode(Placement(uav=(0.0, 0.0, 50.0), irs=(0.0, 0.0)), bounds, 6)


def test_fitness_equals_sum_rate_when_feasible():
    cfg = make_config(snr_threshold_db=-200.0, num_users=4, bits_per_coordinate=8)
    bounds = optimizer.genome_bounds(cfg)
    users = np.array([[30.0, 30.0], [60.0, 10.0], [200.0, 300.0], [400.0, 100.0]])
    genome = encode(Placement(uav=(100.0, 100.0, 100.0), irs=(50.0, 50.0)),
                    bounds, 8)
    fit = _fitness(genome, users, cfg)[0]
    result = slot_result(decode(genome, bounds, 8), users, cfg)
    assert fit == result.sum_rate


def test_fitness_boundary_threshold_costs_nothing():
    cfg = make_config(num_users=4, bits_per_coordinate=8)
    bounds = optimizer.genome_bounds(cfg)
    users = np.array([[30.0, 30.0], [60.0, 10.0], [200.0, 300.0], [400.0, 100.0]])
    genome = encode(Placement(uav=(100.0, 100.0, 100.0), irs=(50.0, 50.0)),
                    bounds, 8)
    result = slot_result(decode(genome, bounds, 8), users, cfg)
    at_boundary = make_config(
        num_users=4, bits_per_coordinate=8,
        snr_threshold_db=float(scenario.linear_to_db(result.sinr.min())))
    fit = _fitness(genome, users, at_boundary)[0]
    assert math.isclose(fit, result.sum_rate, abs_tol=1e-9)


def test_fitness_respects_sinr_dominance():
    cfg = make_config(num_users=1, bits_per_coordinate=10)
    bounds = optimizer.genome_bounds(cfg)
    users = np.array([[250.0, 250.0]])
    near = encode(Placement(uav=(250.0, 250.0, 100.0), irs=(250.0, 250.0)),
                  bounds, 10)
    far = encode(Placement(uav=(0.0, 0.0, 300.0), irs=(0.0, 0.0)),
                 bounds, 10)
    fit_near, fit_far = _fitness(np.stack([near, far]), users, cfg)
    assert fit_near >= fit_far


def test_no_surface_jobs_are_scored_without_reflected_work(monkeypatch):
    # A stack with a surface job makes one link_gains call with every job's
    # surface and zeroes the reflected rows of the jobs without one, wherever
    # they sit; a stack without surfaces gets no reflected array at all, which
    # evaluate_batch takes as None.
    calls = []
    link_gains, evaluate_batch = channel.link_gains, noma.evaluate_batch

    def recording_link_gains(uav, irs, users, cfg, ws):
        calls.append(("link_gains", len(uav), None if irs is None else len(irs)))
        return link_gains(uav, irs, users, cfg, ws)

    def recording_evaluate_batch(gu, gi, cfg, access, ws, full):
        calls.append(("evaluate_batch", access, len(gu), gi is None))
        return evaluate_batch(gu, gi, cfg, access, ws, full)

    monkeypatch.setattr(channel, "link_gains", recording_link_gains)
    monkeypatch.setattr(noma, "evaluate_batch", recording_evaluate_batch)
    cfg = small_config()
    rng = np.random.default_rng(2)
    genomes = (rng.random((4, 10, optimizer.genome_length(cfg))) < 0.5).astype(np.uint8)
    users = rng.uniform(0.0, 500.0, (4, cfg.num_users, 2))
    variants = [cli.SCENARIOS[name] for name in ["M-IRS-OMA", "M-IRS-NOMA", "No-IRS-NOMA"]]
    variants.append(Variant("none", "oma"))
    fit, _ = optimizer._fitness(genomes, users, cfg, variants, [None] * 4, None)
    assert calls == [("link_gains", 4, 4), ("evaluate_batch", "oma", 10, False),
                     ("evaluate_batch", "noma", 20, False), ("evaluate_batch", "oma", 10, False)]
    calls.clear()
    alone = optimizer._fitness(genomes[2:3], users[2:3], cfg, variants[2:3], [None], None)[0]
    assert calls == [("link_gains", 1, None), ("evaluate_batch", "noma", 10, True)]
    assert np.array_equal(alone[0], fit[2])  # a zero reflected row gives the same bits
    # A no-surface job between surface jobs, one of them pinned, still reflects nothing.
    static, point = cli.SCENARIOS["S-IRS-NOMA"], (420.0, 35.0)
    pinned = optimizer._fitness(genomes[3:], users[3:], cfg, [static], [point], None)[0]
    mixed = optimizer._fitness(genomes[[1, 2, 0, 3]], users[[1, 2, 0, 3]], cfg,
                               [variants[1], variants[2], variants[0], static],
                               [None, None, None, point], None)[0]
    assert np.array_equal(mixed, np.concatenate([fit[[1, 2, 0]], pinned]))


def test_full_tournament_returns_global_best():
    rng = _ga_rng(0)
    population = np.eye(4, dtype=np.uint8)
    fitnesses = np.array([0.3, 2.0, 1.0, -1.0])
    winners = tournament_select(population, fitnesses, 4, 20, rng)
    assert winners.shape == (20, 4)
    assert np.all(winners == population[1])


def test_two_candidate_tournament_always_picks_the_fitter():
    rng = _ga_rng(1)
    population = np.array([[0, 0], [1, 1]], dtype=np.uint8)
    fitnesses = np.array([1.0, 2.0])
    winners = tournament_select(population, fitnesses, 2, 50, rng)
    assert np.all(winners == population[1])


def test_tournament_ties_break_to_lowest_index():
    rng = _ga_rng(2)
    population = np.array([[0, 0], [0, 1], [1, 1]], dtype=np.uint8)
    fitnesses = np.array([5.0, 5.0, 5.0])
    winners = tournament_select(population, fitnesses, 3, 20, rng)
    assert np.all(winners == population[0])


def test_tournament_entrants_are_distinct():
    # With fitness equal to the index, a tournament of k distinct entrants
    # can never be won by one of the k - 1 least fit genomes.
    rng = _ga_rng(10)
    n, k = 6, 4
    population = np.arange(n, dtype=np.uint8)[:, None]
    winners = tournament_select(population, np.arange(n, dtype=float), k,
                                          5_000, rng)[:, 0]
    assert winners.min() == k - 1
    assert set(winners.tolist()) == set(range(k - 1, n))


def test_tournament_rejects_empty_population():
    with pytest.raises(ValueError):
        tournament_select(np.empty((0, 4)), np.empty(0), 1, 2, _ga_rng())


def test_size_one_tournament_returns_a_member():
    rng = _ga_rng(3)
    population = np.array([[0, 0], [1, 1]], dtype=np.uint8)
    fitnesses = np.array([1.0, 2.0])
    winners = tournament_select(population, fitnesses, 1, 10, rng)
    assert all(any(np.array_equal(w, row) for row in population) for w in winners)


class _ScriptedRng:
    """Deterministic stand-in driving crossover to chosen cut points."""

    def __init__(self, cuts):
        self.cuts = np.asarray(cuts)

    def random(self, size):
        return np.zeros(size)

    def integers(self, low, high, size):
        return self.cuts[:size]


def test_crossover_swaps_suffixes_at_the_cut():
    a = np.zeros((2, 4), dtype=np.uint8)
    b = np.ones((2, 4), dtype=np.uint8)
    child_a, child_b = crossover(a, b, 1.0, _ScriptedRng([2, 1]))
    assert child_a.tolist() == [[0, 0, 1, 1], [0, 1, 1, 1]]
    assert child_b.tolist() == [[1, 1, 0, 0], [1, 0, 0, 0]]


def test_crossover_identity_cases():
    rng = _ga_rng(4)
    a = np.array([[0, 1, 0, 1]] * 3, dtype=np.uint8)
    child_a, child_b = crossover(a, a.copy(), 1.0, rng)
    assert np.array_equal(child_a, a) and np.array_equal(child_b, a)
    c = np.array([[1, 1, 0, 0]] * 3, dtype=np.uint8)
    child_a, child_b = crossover(a, c, 0.0, rng)
    assert np.array_equal(child_a, a) and np.array_equal(child_b, c)
    with pytest.raises(ValueError):
        crossover(a, np.zeros((3, 5), dtype=np.uint8), 1.0, rng)


def test_mutation_extremes():
    rng = _ga_rng(5)
    genomes = np.array([[0, 1, 1, 0, 1], [1, 1, 0, 0, 0]], dtype=np.uint8)
    assert np.array_equal(mutate(genomes, 0.0, rng), genomes)
    assert np.array_equal(mutate(genomes, 1.0, rng), 1 - genomes)


def test_mutation_flip_rate_statistics():
    rng = _ga_rng(6)
    genomes = np.zeros((10_000, 200), dtype=np.uint8)
    mean = mutate(genomes, 0.01, rng).sum() / 10_000
    sigma = math.sqrt(200 * 0.01 * 0.99 / 10_000)
    assert abs(mean - 2.0) <= 3.0 * sigma


def test_closed_population_never_returns_worse_than_the_seed_genome():
    # Without crossover and mutation no genome outside the initial population appears.
    cfg = small_config(crossover_prob=0.0, mutation_prob_per_bit=0.0, population_size=6,
                       max_iterations=4)
    users = np.array([[10.0, 10.0], [40.0, 30.0], [90.0, 60.0], [250.0, 250.0]])
    bounds = optimizer.genome_bounds(cfg)
    genome = encode(Placement(uav=(120.0, 80.0, 150.0), irs=(100.0, 100.0)),
                    bounds, cfg.bits_per_coordinate)
    initial = (_ga_rng(7).random((cfg.population_size, optimizer.genome_length(cfg)))
               < 0.5).astype(np.uint8)
    initial[0] = genome
    fit = _fitness(initial, users, cfg)
    record = optimize_slot(users, cfg, _ga_rng(7), warm_start_genome=genome)
    assert record.best_fitness == [fit.max()] * (cfg.max_iterations + 1)
    assert record.best_fitness[-1] >= fit[0]
    assert np.array_equal(record.best_genome, initial[np.argmax(fit)])
    assert record.placement == decode(record.best_genome, bounds, cfg.bits_per_coordinate)


def test_optimize_slot_is_deterministic():
    cfg = small_config()
    users = np.array([[10.0, 10.0], [40.0, 30.0], [90.0, 60.0], [250.0, 250.0]])
    a = optimize_slot(users, cfg, _ga_rng(8))
    b = optimize_slot(users, cfg, _ga_rng(8))
    assert a.placement == b.placement
    assert a.best_fitness == b.best_fitness
    assert np.array_equal(a.best_genome, b.best_genome)


def test_elitism_keeps_best_fitness_monotone():
    cfg = small_config(max_iterations=12)
    users = np.array([[10.0, 10.0], [40.0, 30.0], [90.0, 60.0], [250.0, 250.0]])
    _, (record,) = optimize_trajectory(_one_slot(users), cfg, 9)
    best = record.best_fitness
    assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))
    assert best[-1] >= best[0]


def _one_slot(users) -> mobility.MobilityTrace:
    return mobility.MobilityTrace(np.asarray(users, dtype=float)[None])


def _breed_alone(population, fit, cfg, mutation_prob_per_bit, rng):
    """optimizer._breed on a one-job stack whose family draws from rng."""
    return optimizer._breed(population[None], fit[None], cfg, mutation_prob_per_bit, [rng],
                            np.zeros(1, np.intp), channel.Workspace())[0]


def _random_generation(cfg, rng):
    users = np.array([[10.0, 10.0], [40.0, 30.0], [90.0, 60.0], [250.0, 250.0]])
    population = (rng.random((cfg.population_size, optimizer.genome_length(cfg))) < 0.5
                  ).astype(np.uint8)
    return population, _fitness(population, users, cfg)


def test_elites_are_carried_over_bit_for_bit():
    cfg = small_config(population_size=9, elitism_count=3, mutation_prob_per_bit=0.5)
    rng = _ga_rng(11)
    population, fit = _random_generation(cfg, rng)
    nxt = _breed_alone(population, fit, cfg, 0.5, rng)
    assert nxt.shape == population.shape and nxt.dtype == np.uint8
    assert np.array_equal(nxt[:3], population[np.argsort(-fit, kind="stable")[:3]])


def test_elite_ties_go_to_the_lowest_index():
    # No-surface genomes that share their UAV bits differ only in the unused
    # vehicle bits, so they tie on fitness; the elites are the first of them.
    cfg = small_config(population_size=64, elitism_count=4)
    rng = _ga_rng(13)
    length, uav_bits = optimizer.genome_length(cfg), 3 * cfg.bits_per_coordinate
    population = (rng.random((cfg.population_size, length)) < 0.5).astype(np.uint8)
    population[:, :uav_bits] = population[rng.integers(0, 2, cfg.population_size), :uav_bits]
    users = np.array([[10.0, 10.0], [40.0, 30.0], [90.0, 60.0], [250.0, 250.0]])
    fit = optimizer._fitness(population[None], users[None], cfg, [Variant("none", "noma")],
                             [None], None)[0][0]
    tied = np.flatnonzero(fit == fit.max())
    assert len(tied) > cfg.elitism_count
    nxt = _breed_alone(population, fit, cfg, 0.1, rng)
    assert np.array_equal(nxt[:cfg.elitism_count], population[tied[:cfg.elitism_count]])


@pytest.mark.parametrize("elitism_count", [0, 2])
@pytest.mark.parametrize("tournament_size", [1, 2, 3, 8, 9])  # up to P - 1 and P
def test_breeding_picks_the_winners_of_argpartition_tournaments(tournament_size, elitism_count):
    # A stack of three jobs in two families, [0, 0, 1], with many tied fitness
    # values: every job's next generation is oracle_breed's, which takes a
    # row's entrants with argpartition and its winner with argmax.  P = 9
    # leaves an odd child count either way.
    cfg = small_config(population_size=9, tournament_size=tournament_size,
                       elitism_count=elitism_count)
    rng = np.random.default_rng(tournament_size)
    population = (rng.random((3, 9, optimizer.genome_length(cfg))) < 0.5).astype(np.uint8)
    fit = rng.integers(0, 4, (3, 9)).astype(float)
    family = np.array([0, 0, 1])
    bred = optimizer._breed(population, fit, cfg, 0.1, [_ga_rng(5), _ga_rng(6)], family,
                            channel.Workspace())
    for j, seed in enumerate([5, 5, 6]):
        assert np.array_equal(bred[j], oracle_breed(population[j], fit[j], cfg, 0.1,
                                                    _ga_rng(seed))), j


class _TiedKeys:
    """A family's generator whose tournament keys are `keys` in every row; its
    other uniforms are 0.5 and its cuts 1."""

    def __init__(self, keys):
        self.keys, self.calls = np.asarray(keys, dtype=float), 0

    def random(self, out):
        out[...] = self.keys if self.calls % 3 == 0 else 0.5  # keys, coins, flip uniforms
        self.calls += 1
        return out

    def integers(self, low, high, size):
        return np.full(size, low)


@pytest.mark.parametrize("k, keys, winner", [(2, [0.5, 0.1, 0.5, 0.9], 1),
                                             (3, [0.5, 0.1, 0.5, 0.5], 2)])
def test_an_exact_tie_at_the_kth_key_lets_the_lower_index_enter(k, keys, winner):
    # Fitness rises with the index, so a tied genome that entered in place of
    # the lower one would win.  No crossover and no mutation: every child is
    # its tournament's winner.
    cfg = small_config(population_size=4, tournament_size=k, elitism_count=0,
                       crossover_prob=0.0)
    population = np.eye(4, optimizer.genome_length(cfg), dtype=np.uint8)
    nxt = _breed_alone(population, np.arange(4.0), cfg, 0.0, _TiedKeys(keys))
    assert np.array_equal(nxt, population[[winner] * 4])


def test_odd_population_without_elitism_keeps_its_size():
    cfg = small_config(population_size=7, elitism_count=0)
    rng = _ga_rng(12)
    population, fit = _random_generation(cfg, rng)
    nxt = _breed_alone(population, fit, cfg, 0.1, rng)
    assert nxt.shape == (7, optimizer.genome_length(cfg))
    users = np.array([[10.0, 10.0], [250.0, 250.0]])
    _, (record,) = optimize_trajectory(_one_slot(users), cfg, 12)
    assert len(record.best_fitness) == cfg.max_iterations + 1


def test_optimized_placements_respect_bounds():
    cfg = small_config()
    users = np.array([[10.0, 10.0], [40.0, 30.0], [90.0, 60.0], [250.0, 250.0]])
    for seed in range(3):
        (placement,), _ = optimize_trajectory(_one_slot(users), cfg, seed)
        channel.validate_placement(placement, cfg)


def test_trajectory_lengths_follow_the_trace():
    cfg = small_config(num_slots=1)
    trace = mobility.generate_trace(cfg, scenario.stream(1, scenario.MOBILITY_STREAM))
    placements, records = optimize_trajectory(trace, cfg, 1)
    assert len(placements) == len(records) == 1

    cfg5 = small_config(num_slots=5)
    trace5 = mobility.generate_trace(cfg5, scenario.stream(1, scenario.MOBILITY_STREAM))
    placements, _ = optimize_trajectory(trace5, cfg5, 1)
    assert len(placements) == 5
    for p in placements:
        channel.validate_placement(p, cfg5)


def test_static_mode_freezes_the_surface():
    cfg = small_config(num_slots=4)
    trace = mobility.generate_trace(cfg, scenario.stream(2, scenario.MOBILITY_STREAM))
    placements, _ = optimize_trajectory(trace, cfg, 2, Variant("static", "noma"))
    first = placements[0].irs
    assert all(p.irs == first for p in placements)

    pinned = small_config(num_slots=3, s_irs_x=222.0, s_irs_y=111.0)
    trace = mobility.generate_trace(pinned, scenario.stream(2, scenario.MOBILITY_STREAM))
    placements, _ = optimize_trajectory(trace, pinned, 2, Variant("static", "noma"))
    assert all(p.irs == (222.0, 111.0) for p in placements)


def test_static_first_slot_equals_joint_first_slot():
    cfg = small_config(num_slots=2)
    trace = mobility.generate_trace(cfg, scenario.stream(3, scenario.MOBILITY_STREAM))
    mobile, _ = optimize_trajectory(trace, cfg, 3, MOBILE)
    static, _ = optimize_trajectory(trace, cfg, 3, Variant("static", "noma"))
    assert mobile[0] == static[0]


def test_no_surface_equals_dead_reflection():
    cfg = small_config(num_slots=3)
    dead = small_config(num_slots=3, irs_reflection_coeff=0.0)
    trace = mobility.generate_trace(cfg, scenario.stream(4, scenario.MOBILITY_STREAM))
    none_run, none_records = optimize_trajectory(trace, cfg, 4, Variant("none", "noma"))
    dead_run, dead_records = optimize_trajectory(trace, dead, 4, MOBILE)
    for a, b in zip(none_run, dead_run):
        assert a.irs is None
        assert a.uav == b.uav
    for ra, rb in zip(none_records, dead_records):
        assert ra.best_fitness == rb.best_fitness


def test_displacement_limit_penalizes_long_hops():
    users = np.array([[250.0, 250.0]])
    cfg = small_config(num_users=1, max_slot_displacement_m=50.0)
    prev = Placement(uav=(0.0, 0.0, 100.0), irs=(0.0, 0.0))
    bounds = optimizer.genome_bounds(cfg)
    bits = cfg.bits_per_coordinate
    genome = encode(Placement(uav=(250.0, 250.0, 100.0), irs=(250.0, 250.0)),
                    bounds, bits)
    unconstrained = _fitness(genome, users, cfg)
    constrained = _fitness(genome, users, cfg, prev_placement=prev)
    assert constrained[0] < unconstrained[0]


_VARIANTS = [Variant(surface, access) for access in ("noma", "oma")
             for surface in ("mobile", "static", "none")]


def _assert_same_records(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.placement == b.placement
        assert a.best_fitness == b.best_fitness and a.mean_fitness == b.mean_fitness
        assert np.array_equal(a.best_genome, b.best_genome)
        for key, value in vars(b.result).items():
            assert np.array_equal(getattr(a.result, key), value), key


@settings(max_examples=60, deadline=None)
@example(num_users=3, population_size=6, elitism_count=1, tournament_size=2, pinned=False,
         limit=None, warm_start=True,  # an OMA job listed before NOMA jobs
         variants=[Variant("mobile", "oma"), MOBILE, Variant("static", "noma")], seeds=[3, 8],
         stack_numbers=2**19)
@example(num_users=4, population_size=5, elitism_count=2, tournament_size=3, pinned=False,
         limit=30.0, warm_start=False,  # the same (seed, variant) in one stack, four times
         variants=[MOBILE, Variant("none", "oma"), MOBILE], seeds=[6, 6], stack_numbers=2**19)
@example(num_users=5, population_size=7, elitism_count=1, tournament_size=2, pinned=True,
         limit=30.0, warm_start=True,  # mobile, static and no-surface jobs scored together
         variants=[Variant("none", "oma"), Variant("static", "noma"), MOBILE,
                   Variant("none", "noma")], seeds=[2, 9], stack_numbers=2**19)
@given(num_users=st.sampled_from([1, 2, 3, 4, 5]),
       population_size=st.integers(2, 9), elitism_count=st.integers(0, 3),
       tournament_size=st.integers(1, 4), pinned=st.booleans(),
       limit=st.sampled_from([None, 30.0]), warm_start=st.booleans(),
       variants=st.lists(st.sampled_from(_VARIANTS), min_size=1, max_size=4),
       seeds=st.lists(st.integers(0, 50), min_size=1, max_size=3),
       stack_numbers=st.sampled_from([1, 600, 2**19]))
def test_stacked_ga_equals_the_per_job_oracle(num_users, population_size, elitism_count,
                                              tournament_size, pinned, limit, warm_start,
                                              variants, seeds, stack_numbers):
    cfg = small_config(num_users=num_users, num_slots=3, population_size=population_size,
                       max_iterations=3, bits_per_coordinate=4,
                       elitism_count=min(elitism_count, population_size - 1),
                       tournament_size=min(tournament_size, population_size),
                       max_slot_displacement_m=limit, warm_start=warm_start,
                       **(dict(s_irs_x=420.0, s_irs_y=35.0) if pinned else {}))
    jobs = [(mobility.generate_trace(cfg, scenario.stream(seed, scenario.MOBILITY_STREAM)),
             seed, variant) for seed in seeds for variant in variants]
    with pytest.MonkeyPatch.context() as patch:
        # a small bound splits the jobs into smaller stacks, down to one job
        # each; the generator reads it when consumed, so it is consumed here
        patch.setattr(optimizer, "_STACK_NUMBERS", stack_numbers)
        stacked = list(optimizer.optimize_jobs(jobs, cfg))
    for records, job in zip(stacked, jobs, strict=True):
        _assert_same_records(records, oracle_trajectory(job[0], cfg, job[1], job[2]))


class _CountingRng:
    """Passes a generator's random and integers calls through and counts them."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def random(self, *args, **kwargs):
        self.calls += 1
        return self.rng.random(*args, **kwargs)

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)


def test_each_family_draws_once_per_generation(monkeypatch):
    # Two seeds of all four scenarios make one stack of eight jobs, but four
    # families: each seed's three NOMA jobs share a stream, and its OMA job
    # has its own.  A family's generator makes one initial call, then four
    # calls per generation (keys, coins, cuts, flips), whatever its size.
    cfg = small_config(num_slots=3, max_iterations=4)
    stream, made = scenario.stream, []

    def counting(seed, *key):
        rng = stream(seed, *key)
        if key[0] != scenario.GA_STREAM:
            return rng
        made.append(((seed, *key), _CountingRng(rng)))
        return made[-1][1]

    monkeypatch.setattr(scenario, "stream", counting)
    monkeypatch.setattr(optimizer, "_WORKERS", 1)
    cli.run_experiment(cfg, list(cli.SCENARIOS), [1, 2])
    for slot in range(cfg.num_slots):
        keys = sorted(key for key, _ in made if key[3] == slot)
        assert keys == [(seed, scenario.GA_STREAM, kind, slot)
                        for seed in (1, 2) for kind in (0, 1)]
    assert len(made) == 4 * cfg.num_slots
    assert [rng.calls for _, rng in made] == [1 + 4 * cfg.max_iterations] * len(made)


def test_optimize_jobs_pulls_one_stack_of_jobs_at_a_time(monkeypatch):
    cfg = small_config(num_slots=1, population_size=4, max_iterations=1)
    trace = mobility.generate_trace(cfg, scenario.stream(1, scenario.MOBILITY_STREAM))
    # two jobs per stack: 4 x 30 genome bits + (2 + 8 x 4) record numbers
    # + 8 x 4 x 4 workspace cells = 282 numbers each
    monkeypatch.setattr(optimizer, "_STACK_NUMBERS", 2 * 282)
    pulled = []

    def jobs():
        for seed in range(5):
            pulled.append(seed)
            yield trace, seed, MOBILE

    monkeypatch.setattr(optimizer, "_WORKERS", 1)
    outcomes = optimizer.optimize_jobs(jobs(), cfg)
    assert pulled == []
    first = next(outcomes)
    assert pulled == [0, 1]
    assert [r.placement for r in first] == optimize_trajectory(trace, cfg, 0)[0]
    assert len([first, *outcomes]) == 5 and pulled == [0, 1, 2, 3, 4]

    # two workers: a wave of two stacks is pulled before the first yield
    monkeypatch.setattr(optimizer, "_WORKERS", 2)
    pulled.clear()
    outcomes = optimizer.optimize_jobs(jobs(), cfg)
    first = next(outcomes)
    assert pulled == [0, 1, 2, 3]
    assert [r.placement for r in first] == optimize_trajectory(trace, cfg, 0)[0]
    assert len([first, *outcomes]) == 5 and pulled == [0, 1, 2, 3, 4]


# The config values are copied from the benchmark workloads and CI so that any
# change to stack sizing shows up here, in review.  A --trace file's slot
# count stands in for num_slots, so the last case's 1,000-slot trace sizes
# its stacks, not the config's 5 slots.
@pytest.mark.parametrize("overrides, seeds, stacks, slots", [
    (dict(num_users=10, num_slots=5, population_size=50, max_iterations=50), 2, [8], None),
    (dict(num_users=301, num_slots=5, population_size=200, max_iterations=6), 1, [1] * 4, None),
    (dict(num_users=200, num_slots=30, population_size=8, max_iterations=4), 1, [4], None),
    (dict(num_users=301, num_slots=2, population_size=200, max_iterations=2), 1, [1] * 4, None),
    ({}, 20, [66, 14], None),
    ({}, 16, [64], None),  # README: up to 16 seeds of all four scenarios in one stack
    ({}, 16, [2] * 32, 1000),
], ids=["paper-default", "dense-crowd", "long-horizon", "ci-301-users", "default-20-seeds",
        "default-16-seeds", "trace-of-1000-slots"])
def test_stack_shapes(overrides, seeds, stacks, slots):
    cfg = scenario.config_from_dict(overrides)
    trace = mobility.MobilityTrace(np.zeros((slots or cfg.num_slots, cfg.num_users, 2)))
    jobs = [(trace, seed, variant) for seed in range(seeds) for variant in cli.SCENARIOS.values()]
    assert [len(stack) for stack in optimizer._stacks(jobs, cfg)] == stacks


@pytest.mark.parametrize("overrides", [
    dict(num_users=10, num_slots=5, population_size=50, max_iterations=50),
    dict(num_users=301, num_slots=5, population_size=200, max_iterations=6),
    dict(num_users=200, num_slots=30, population_size=8, max_iterations=4),
    dict(num_users=3, num_slots=1, population_size=4, max_iterations=1, bits_per_coordinate=53),
], ids=["paper-default", "dense-crowd", "long-horizon", "wide-genomes"])
def test_stacks_charge_each_job_the_module_docstring_s_count(monkeypatch, overrides):
    # A job holds P L + S (2 G + 8 U) + 8 P U numbers: a bound of twice that
    # fits two jobs a stack, and one number less fits one.
    cfg = scenario.config_from_dict(overrides)
    held = (cfg.population_size * optimizer.genome_length(cfg)
            + cfg.num_slots * (2 * cfg.max_iterations + 8 * cfg.num_users)
            + 8 * cfg.population_size * cfg.num_users)
    trace = mobility.MobilityTrace(np.zeros((cfg.num_slots, cfg.num_users, 2)))
    for bound, size in ((2 * held, 2), (2 * held - 1, 1)):
        monkeypatch.setattr(optimizer, "_STACK_NUMBERS", bound)
        stacks = optimizer._stacks([(trace, seed, MOBILE) for seed in range(4)], cfg)
        assert [len(stack) for stack in stacks] == [size] * (4 // size)


def test_a_lone_stack_starts_no_thread(monkeypatch):
    cfg = small_config(num_slots=1, max_iterations=1)
    trace = mobility.generate_trace(cfg, scenario.stream(1, scenario.MOBILITY_STREAM))
    monkeypatch.setattr(optimizer, "_WORKERS", 4)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", None)  # calling it would raise
    jobs = [(trace, seed, MOBILE) for seed in range(3)]
    assert len(list(optimizer.optimize_jobs(jobs, cfg))) == 3


class _BrokenTrace:
    """A trace whose last slot raises when a stack reads it."""

    def __init__(self, trace):
        self.num_slots, self.num_users = trace.num_slots, trace.num_users
        self.positions = self
        self._positions = trace.positions

    def __getitem__(self, slot):
        if slot == self.num_slots - 1:
            raise RuntimeError("broken trace")
        return self._positions[slot]


def _slow_job(monkeypatch, seed, seconds):
    """Make each fitness call of the stack holding job `seed` take `seconds` longer."""
    fitness, optimize_stack, local = optimizer._fitness, optimizer._optimize_stack, threading.local()

    def stack(jobs, *args):
        local.slow = any(job[1] == seed for job in jobs)
        return optimize_stack(jobs, *args)

    def slow(*args):
        if local.slow:
            time.sleep(seconds)
        return fitness(*args)

    monkeypatch.setattr(optimizer, "_optimize_stack", stack)
    monkeypatch.setattr(optimizer, "_fitness", slow)


def _finishes_within(seconds, fn):
    """fn() run on a thread that must finish within `seconds`; its result or error."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # handed to the caller below
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


def _pool_threads():
    return [t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")]


# Waves of two one-job stacks: [0, 1], then [2, 3]; this thread searches 0 and 2.
@pytest.mark.parametrize("broken, slow", [(2, 3), (3, None)])
def test_an_error_in_a_later_stack_propagates_promptly(monkeypatch, broken, slow):
    cfg = small_config(num_slots=2, population_size=4, max_iterations=100)
    trace = mobility.generate_trace(cfg, scenario.stream(1, scenario.MOBILITY_STREAM))
    monkeypatch.setattr(optimizer, "_STACK_NUMBERS", 1)  # one job per stack
    monkeypatch.setattr(optimizer, "_WORKERS", 2)
    # the slow stack would take 10 s; stopping it takes one generation
    _slow_job(monkeypatch, slow, 0.05)
    jobs = [(_BrokenTrace(trace) if j == broken else trace, j, MOBILE) for j in range(4)]
    done = []

    def consume():
        for outcome in optimizer.optimize_jobs(jobs, cfg):
            done.append(outcome)

    with pytest.raises(RuntimeError, match="broken trace"):
        _finishes_within(2.5, consume)
    assert len(done) == broken  # every job before it was yielded
    assert not _pool_threads()


def test_an_error_in_a_later_stack_propagates_out_of_cli_main(monkeypatch, tmp_path):
    cfg = small_config(num_slots=1, population_size=4, max_iterations=2)
    generate, made = mobility.generate_trace, []

    def fourth_seed_broken(*args):
        made.append(generate(*args))
        return _BrokenTrace(made[-1]) if len(made) == 4 else made[-1]

    monkeypatch.setattr(mobility, "generate_trace", fourth_seed_broken)
    monkeypatch.setattr(optimizer, "_STACK_NUMBERS", 1)  # one job per stack
    monkeypatch.setattr(optimizer, "_WORKERS", 2)
    path = tmp_path / "cfg.yaml"
    path.write_text(config_yaml(cfg))
    argv = ["run", "--config", str(path), "--seeds", "4", "--scenarios", "No-IRS-NOMA",
            "--out", str(tmp_path / "out")]
    with pytest.raises(RuntimeError, match="broken trace"):
        _finishes_within(30, lambda: cli.main(argv))
    assert not _pool_threads()


def test_closing_optimize_jobs_early_returns_promptly(monkeypatch):
    cfg = small_config(num_slots=1, population_size=4, max_iterations=100)
    trace = mobility.generate_trace(cfg, scenario.stream(1, scenario.MOBILITY_STREAM))
    monkeypatch.setattr(optimizer, "_STACK_NUMBERS", 1)  # one job per stack
    monkeypatch.setattr(optimizer, "_WORKERS", 2)
    _slow_job(monkeypatch, 1, 0.05)  # the worker's stack would take 5 s
    jobs = [(trace, seed, MOBILE) for seed in range(4)]

    def first_then_close():
        outcomes = optimizer.optimize_jobs(jobs, cfg)
        first = next(outcomes)
        outcomes.close()
        return first

    first = _finishes_within(2.5, first_then_close)
    assert [r.placement for r in first] == optimize_trajectory(trace, cfg, 0)[0]
    assert not _pool_threads()
