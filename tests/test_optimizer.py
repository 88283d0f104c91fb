import math

import numpy as np
import pytest

from mirsim import channel, mobility, optimizer, scenario
from mirsim.channel import Placement
from mirsim.optimizer import Variant

from testutil import make_config, slot_result, small_config

MOBILE = Variant("mobile", "noma")


def _ga_rng(seed=0, slot=0):
    return scenario.stream(seed, scenario.GA_STREAM, 0, slot)


def decode(genome: np.ndarray, bounds, bits: int) -> Placement:
    """The placement one genome encodes."""
    coords = optimizer.decode_batch(genome, bounds, bits)[0]
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


def _fitness(genomes, users, cfg, **kwargs):
    """M-IRS-NOMA fitness of a (P, L) stack of genomes."""
    return optimizer._fitness_batch(np.atleast_2d(genomes), users, cfg, MOBILE, **kwargs)[0]


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


def test_encode_and_decode_reject_bad_input():
    cfg = make_config(bits_per_coordinate=6)
    bounds = optimizer.genome_bounds(cfg)
    with pytest.raises(ValueError, match="outside"):
        encode(Placement(uav=(0.0, 0.0, 50.0), irs=(0.0, 0.0)), bounds, 6)
    with pytest.raises(ValueError, match="length"):
        decode(np.zeros(7, dtype=np.uint8), bounds, 6)


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


def test_full_tournament_returns_global_best():
    rng = _ga_rng(0)
    population = np.eye(4, dtype=np.uint8)
    fitnesses = np.array([0.3, 2.0, 1.0, -1.0])
    winners = optimizer.tournament_select(population, fitnesses, 4, 20, rng)
    assert winners.shape == (20, 4)
    assert np.all(winners == population[1])


def test_two_candidate_tournament_always_picks_the_fitter():
    rng = _ga_rng(1)
    population = np.array([[0, 0], [1, 1]], dtype=np.uint8)
    fitnesses = np.array([1.0, 2.0])
    winners = optimizer.tournament_select(population, fitnesses, 2, 50, rng)
    assert np.all(winners == population[1])


def test_tournament_ties_break_to_lowest_index():
    rng = _ga_rng(2)
    population = np.array([[0, 0], [0, 1], [1, 1]], dtype=np.uint8)
    fitnesses = np.array([5.0, 5.0, 5.0])
    winners = optimizer.tournament_select(population, fitnesses, 3, 20, rng)
    assert np.all(winners == population[0])


def test_tournament_entrants_are_distinct():
    # With fitness equal to the index, a tournament of k distinct entrants
    # can never be won by one of the k - 1 least fit genomes.
    rng = _ga_rng(10)
    n, k = 6, 4
    population = np.arange(n, dtype=np.uint8)[:, None]
    winners = optimizer.tournament_select(population, np.arange(n, dtype=float), k,
                                          5_000, rng)[:, 0]
    assert winners.min() == k - 1
    assert set(winners.tolist()) == set(range(k - 1, n))


def test_tournament_rejects_empty_population():
    with pytest.raises(ValueError):
        optimizer.tournament_select(np.empty((0, 4)), np.empty(0), 1, 2, _ga_rng())


def test_size_one_tournament_returns_a_member():
    rng = _ga_rng(3)
    population = np.array([[0, 0], [1, 1]], dtype=np.uint8)
    fitnesses = np.array([1.0, 2.0])
    winners = optimizer.tournament_select(population, fitnesses, 1, 10, rng)
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
    child_a, child_b = optimizer.crossover(a, b, 1.0, _ScriptedRng([2, 1]))
    assert child_a.tolist() == [[0, 0, 1, 1], [0, 1, 1, 1]]
    assert child_b.tolist() == [[1, 1, 0, 0], [1, 0, 0, 0]]


def test_crossover_identity_cases():
    rng = _ga_rng(4)
    a = np.array([[0, 1, 0, 1]] * 3, dtype=np.uint8)
    child_a, child_b = optimizer.crossover(a, a.copy(), 1.0, rng)
    assert np.array_equal(child_a, a) and np.array_equal(child_b, a)
    c = np.array([[1, 1, 0, 0]] * 3, dtype=np.uint8)
    child_a, child_b = optimizer.crossover(a, c, 0.0, rng)
    assert np.array_equal(child_a, a) and np.array_equal(child_b, c)
    with pytest.raises(ValueError):
        optimizer.crossover(a, np.zeros((3, 5), dtype=np.uint8), 1.0, rng)


def test_mutation_extremes():
    rng = _ga_rng(5)
    genomes = np.array([[0, 1, 1, 0, 1], [1, 1, 0, 0, 0]], dtype=np.uint8)
    assert np.array_equal(optimizer.mutate(genomes, 0.0, rng), genomes)
    assert np.array_equal(optimizer.mutate(genomes, 1.0, rng), 1 - genomes)


def test_mutation_flip_rate_statistics():
    rng = _ga_rng(6)
    genomes = np.zeros((10_000, 200), dtype=np.uint8)
    mean = optimizer.mutate(genomes, 0.01, rng).sum() / 10_000
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
    placement, record = optimizer.optimize_slot(users, cfg, _ga_rng(7), warm_start_genome=genome)
    assert record.best_fitness == [fit.max()] * (cfg.max_iterations + 1)
    assert record.best_fitness[-1] >= fit[0]
    assert np.array_equal(record.best_genome, initial[np.argmax(fit)])
    assert placement == decode(record.best_genome, bounds, cfg.bits_per_coordinate)


def test_optimize_slot_is_deterministic():
    cfg = small_config()
    users = np.array([[10.0, 10.0], [40.0, 30.0], [90.0, 60.0], [250.0, 250.0]])
    a = optimizer.optimize_slot(users, cfg, _ga_rng(8))
    b = optimizer.optimize_slot(users, cfg, _ga_rng(8))
    assert a[0] == b[0]
    assert a[1].best_fitness == b[1].best_fitness
    assert np.array_equal(a[1].best_genome, b[1].best_genome)


def test_elitism_keeps_best_fitness_monotone():
    cfg = small_config(max_iterations=12)
    users = np.array([[10.0, 10.0], [40.0, 30.0], [90.0, 60.0], [250.0, 250.0]])
    _, record = optimizer.optimize_slot(users, cfg, _ga_rng(9))
    best = record.best_fitness
    assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))
    assert best[-1] >= best[0]
    assert record.evaluations == cfg.population_size * (cfg.max_iterations + 1)


def _random_generation(cfg, rng):
    users = np.array([[10.0, 10.0], [40.0, 30.0], [90.0, 60.0], [250.0, 250.0]])
    population = (rng.random((cfg.population_size, optimizer.genome_length(cfg))) < 0.5
                  ).astype(np.uint8)
    return population, _fitness(population, users, cfg)


def test_elites_are_carried_over_bit_for_bit():
    cfg = small_config(population_size=9, elitism_count=3, mutation_prob_per_bit=0.5)
    rng = _ga_rng(11)
    population, fit = _random_generation(cfg, rng)
    nxt = optimizer._breed(population, fit, cfg, 0.5, rng)
    assert nxt.shape == population.shape and nxt.dtype == np.uint8
    assert np.array_equal(nxt[:3], population[np.argsort(-fit, kind="stable")[:3]])


def test_odd_population_without_elitism_keeps_its_size():
    cfg = small_config(population_size=7, elitism_count=0)
    rng = _ga_rng(12)
    population, fit = _random_generation(cfg, rng)
    nxt = optimizer._breed(population, fit, cfg, 0.1, rng)
    assert nxt.shape == (7, optimizer.genome_length(cfg))
    users = np.array([[10.0, 10.0], [250.0, 250.0]])
    _, record = optimizer.optimize_slot(users, cfg, rng)
    assert len(record.best_fitness) == cfg.max_iterations + 1
    assert record.evaluations == 7 * (cfg.max_iterations + 1)


def test_optimized_placements_respect_bounds():
    cfg = small_config()
    users = np.array([[10.0, 10.0], [40.0, 30.0], [90.0, 60.0], [250.0, 250.0]])
    for seed in range(3):
        placement, _ = optimizer.optimize_slot(users, cfg, _ga_rng(seed))
        channel.validate_placement(placement, cfg)


def test_trajectory_lengths_follow_the_trace():
    cfg = small_config(num_slots=1)
    trace = mobility.generate_trace(cfg, scenario.stream(1, scenario.MOBILITY_STREAM))
    placements, records = optimizer.optimize_trajectory(trace, cfg, 1)
    assert len(placements) == len(records) == 1

    cfg5 = small_config(num_slots=5)
    trace5 = mobility.generate_trace(cfg5, scenario.stream(1, scenario.MOBILITY_STREAM))
    placements, _ = optimizer.optimize_trajectory(trace5, cfg5, 1)
    assert len(placements) == 5
    for p in placements:
        channel.validate_placement(p, cfg5)


def test_static_mode_freezes_the_surface():
    cfg = small_config(num_slots=4)
    trace = mobility.generate_trace(cfg, scenario.stream(2, scenario.MOBILITY_STREAM))
    placements, _ = optimizer.optimize_trajectory(trace, cfg, 2, Variant("static", "noma"))
    first = placements[0].irs
    assert all(p.irs == first for p in placements)

    pinned = small_config(num_slots=3, s_irs_x=222.0, s_irs_y=111.0)
    trace = mobility.generate_trace(pinned, scenario.stream(2, scenario.MOBILITY_STREAM))
    placements, _ = optimizer.optimize_trajectory(trace, pinned, 2,
                                                Variant("static", "noma"))
    assert all(p.irs == (222.0, 111.0) for p in placements)


def test_static_first_slot_equals_joint_first_slot():
    cfg = small_config(num_slots=2)
    trace = mobility.generate_trace(cfg, scenario.stream(3, scenario.MOBILITY_STREAM))
    mobile, _ = optimizer.optimize_trajectory(trace, cfg, 3, MOBILE)
    static, _ = optimizer.optimize_trajectory(trace, cfg, 3, Variant("static", "noma"))
    assert mobile[0] == static[0]


def test_no_surface_equals_dead_reflection():
    cfg = small_config(num_slots=3)
    dead = small_config(num_slots=3, irs_reflection_coeff=0.0)
    trace = mobility.generate_trace(cfg, scenario.stream(4, scenario.MOBILITY_STREAM))
    none_run, none_records = optimizer.optimize_trajectory(trace, cfg, 4,
                                                           Variant("none", "noma"))
    dead_run, dead_records = optimizer.optimize_trajectory(trace, dead, 4, MOBILE)
    for a, b in zip(none_run, dead_run):
        assert a.irs is None
        assert a.uav == b.uav
    for ra, rb in zip(none_records, dead_records):
        assert ra.best_fitness == rb.best_fitness


def test_unknown_surface_mode_rejected():
    cfg = small_config()
    trace = mobility.generate_trace(cfg, scenario.stream(1, scenario.MOBILITY_STREAM))
    with pytest.raises(ValueError, match="surface mode"):
        optimizer.optimize_trajectory(trace, cfg, 1, Variant("hovering", "noma"))
    with pytest.raises(ValueError, match="access mode"):
        optimizer.optimize_trajectory(trace, cfg, 1, Variant("mobile", "tdma"))


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
