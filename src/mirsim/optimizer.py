"""Per-slot placement search with a genetic algorithm.

A scenario is a Variant: where the reflecting surface is ("mobile",
re-optimized every slot; "static", frozen after the first slot; "none")
and how users share the band ("noma" or "oma").  The same GA serves all
of them; the variant only decides which surface position the fitness sees.

One genome is a bitstring of 5 * bits_per_coordinate bits encoding
(uav_x, uav_y, uav_z, vehicle_x, vehicle_y) as fixed-point fractions of
their bounds, so every decoded placement satisfies the region and altitude
constraints by construction.  Fitness is the slot sum rate minus a penalty
proportional to the total SINR shortfall below the threshold.  Selection is
tournament, crossover single-point, mutation independent bit flips, and the
top elitism_count genomes carry over unchanged, which makes the
per-generation best fitness non-decreasing.

Randomness is consumed in a fixed order, so a run is reproducible from its
generator.  With P the population size, E the elitism count, L the genome
length and pairs = ceil((P - E) / 2), a search draws the initial population
bits, then per generation, each step one array operation over the whole
generation:

1. tournaments: one uniform key per (tournament, genome), shape
   (2 * pairs, P); the tournament_size smallest keys of a row pick its
   distinct entrants;
2. crossover coins: one uniform draw per pair;
3. cuts: one integer in [1, L) per pair, drawn whatever the coin says;
4. mutation: one uniform draw per bit of the P - E children, shape
   (P - E, L), after a trailing odd child is dropped.

Fitness evaluation draws no randomness and is batched over the whole
population.  The final generation's evaluation is the slot's result: the
winner's row becomes its run record's noma.SlotResult, so a slot is scored
once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import channel, noma, scenario
from .channel import Placement
from .scenario import ScenarioConfig

NUM_COORDS = 5

# Spawn-key "kind" component of per-slot GA streams.  All surface variants
# of one access mode share streams (common random numbers), so scenario
# differences come from the model, never from different draws; in
# particular the static variant's first slot and a no-surface run with a
# zero reflection coefficient reproduce the joint run exactly.
_GA_KINDS = {"noma": 0, "oma": 1}


@dataclass(frozen=True)
class Variant:
    """One scenario: surface placement policy and multiple-access scheme.

    surface "mobile" re-optimizes the vehicle every slot, "static" freezes
    it at the first slot's joint optimum (or the configured point), "none"
    drops the reflected link.  access "noma" pairs users on shared
    sub-bands, "oma" gives each user half the resource.
    """

    surface: str
    access: str

    def __post_init__(self):
        if self.surface not in ("mobile", "static", "none"):
            raise ValueError(f"unknown surface mode {self.surface!r}")
        if self.access not in ("noma", "oma"):
            raise ValueError(f"unknown access mode {self.access!r}")


@dataclass
class GaRunRecord:
    """Per-generation best/mean fitness, the winning genome, eval count, and
    the winner's evaluation from the final generation."""

    best_fitness: list[float]
    mean_fitness: list[float]
    best_genome: np.ndarray
    evaluations: int
    result: noma.SlotResult


def genome_bounds(cfg: ScenarioConfig) -> list[tuple[float, float]]:
    """(lo, hi) per encoded coordinate, in genome order."""
    r = cfg.region
    return [
        (r.x_min, r.x_max),
        (r.y_min, r.y_max),
        (cfg.uav_alt_min_m, cfg.uav_alt_max_m),
        (r.x_min, r.x_max),
        (r.y_min, r.y_max),
    ]


def genome_length(cfg: ScenarioConfig) -> int:
    return NUM_COORDS * cfg.bits_per_coordinate


def decode_batch(genomes: np.ndarray, bounds, bits: int) -> np.ndarray:
    """Decode (P, L) bit arrays to (P, 5) coordinates."""
    genomes = np.atleast_2d(genomes)
    if genomes.shape[1] != NUM_COORDS * bits:
        raise ValueError(f"genome length {genomes.shape[1]} != {NUM_COORDS * bits}")
    weights = (1 << np.arange(bits - 1, -1, -1)).astype(np.int64)
    codes = genomes.reshape(genomes.shape[0], NUM_COORDS, bits).astype(np.int64) @ weights
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    return lo + codes / ((1 << bits) - 1) * (hi - lo)


def _fitness_batch(genomes: np.ndarray, users_xy, cfg: ScenarioConfig, variant: Variant,
                   fixed_irs=None, prev_placement: Optional[Placement] = None):
    """Score every genome in one vectorized pass.

    Returns (fitness, uav, irs, evaluation): the penalized fitness (P,), the
    scored UAV (P, 3) and vehicle (P, 2) positions, and the
    noma.evaluate_batch result.  The encoded vehicle position is ignored
    when the variant has no surface (irs None) or fixed_irs pins it.
    """
    bounds = genome_bounds(cfg)
    coords = decode_batch(genomes, bounds, cfg.bits_per_coordinate)
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
        uav_move = np.hypot(uav[:, 0] - px, uav[:, 1] - py)
        excess = np.maximum(0.0, uav_move - limit)
        if irs_moves:
            qx, qy = prev_placement.irs
            excess = excess + np.maximum(0.0, np.hypot(irs[:, 0] - qx, irs[:, 1] - qy) - limit)
        fit = fit - cfg.sinr_penalty_weight * excess
    return fit, uav, irs, ev


def tournament_select(population: np.ndarray, fitnesses: np.ndarray,
                      tournament_size: int, count: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Run count tournaments of tournament_size distinct genomes each.

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


def crossover(parents_a: np.ndarray, parents_b: np.ndarray, crossover_prob: float,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Single-point suffix swap per row pair with the given probability, else copies."""
    if parents_a.shape != parents_b.shape:
        raise ValueError("parent genomes must have equal shape")
    pairs, length = parents_a.shape
    coin = rng.random(pairs) < crossover_prob
    cut = rng.integers(1, length, pairs)
    swap = coin[:, None] & (np.arange(length) >= cut[:, None])
    return np.where(swap, parents_b, parents_a), np.where(swap, parents_a, parents_b)


def mutate(genomes: np.ndarray, mutation_prob_per_bit: float,
           rng: np.random.Generator) -> np.ndarray:
    """Flip each bit independently with the given probability."""
    flips = (rng.random(genomes.shape) < mutation_prob_per_bit).astype(np.uint8)
    return genomes ^ flips


def _breed(population: np.ndarray, fitnesses: np.ndarray, cfg: ScenarioConfig,
           mutation_prob_per_bit: float, rng: np.random.Generator) -> np.ndarray:
    """Next generation: the elitism_count fittest genomes, then mutated children.

    Children come in crossover pairs of tournament winners; a trailing odd
    child is dropped so the generation keeps population_size genomes.
    """
    num_children = len(population) - cfg.elitism_count
    pairs = (num_children + 1) // 2
    elites = population[np.argsort(-fitnesses, kind="stable")[:cfg.elitism_count]]
    parents = tournament_select(population, fitnesses, cfg.tournament_size, 2 * pairs, rng)
    child_a, child_b = crossover(parents[0::2], parents[1::2], cfg.crossover_prob, rng)
    children = np.stack([child_a, child_b], axis=1).reshape(2 * pairs, -1)[:num_children]
    return np.concatenate([elites, mutate(children, mutation_prob_per_bit, rng)])


def optimize_slot(users_xy, cfg: ScenarioConfig, rng: np.random.Generator,
                  variant: Variant = Variant("mobile", "noma"), *, fixed_irs=None,
                  warm_start_genome: Optional[np.ndarray] = None,
                  prev_placement: Optional[Placement] = None
                  ) -> tuple[Placement, GaRunRecord]:
    """Run the GA for one slot; returns the best placement and its run record.

    fixed_irs pins the vehicle (a frozen static surface); the returned
    placement carries it, or irs None when the variant has no surface.
    """
    length = genome_length(cfg)
    mut_p = cfg.mutation_prob_per_bit if cfg.mutation_prob_per_bit is not None else 1.0 / length

    population = (rng.random((cfg.population_size, length)) < 0.5).astype(np.uint8)
    if warm_start_genome is not None:
        population[0] = warm_start_genome

    best_per_gen: list[float] = []
    mean_per_gen: list[float] = []
    for generation in range(cfg.max_iterations + 1):
        if generation:
            population = _breed(population, fit, cfg, mut_p, rng)
            ev = None  # release the previous generation's evaluation before scoring this one
        fit, uav, irs, ev = _fitness_batch(population, users_xy, cfg, variant, fixed_irs,
                                           prev_placement)
        best_per_gen.append(float(fit.max()))
        mean_per_gen.append(float(fit.mean()))

    best = int(np.argmax(fit))
    placement = Placement(uav=tuple(uav[best].tolist()),
                          irs=None if irs is None else tuple(irs[best].tolist()))
    record = GaRunRecord(best_fitness=best_per_gen, mean_fitness=mean_per_gen,
                         best_genome=population[best].copy(),
                         evaluations=cfg.population_size * len(best_per_gen),
                         result=noma.SlotResult.from_batch(ev, best))
    return placement, record


def optimize_trajectory(trace, cfg: ScenarioConfig, master_seed: int,
                        variant: Variant = Variant("mobile", "noma")
                        ) -> tuple[list[Placement], list[GaRunRecord]]:
    """Optimize every slot of a trace independently.

    A static surface is optimized jointly on the first slot and frozen
    there (or at the configured point from the start).  Each slot draws its
    own generator from the master seed, so the static variant's first slot
    reproduces the mobile variant's first slot exactly.
    """
    placements: list[Placement] = []
    records: list[GaRunRecord] = []
    frozen = None
    if variant.surface == "static" and cfg.s_irs_x is not None:
        frozen = (cfg.s_irs_x, cfg.s_irs_y)
    warm: Optional[np.ndarray] = None
    prev: Optional[Placement] = None
    for slot in range(trace.num_slots):
        rng = scenario.stream(master_seed, scenario.GA_STREAM, _GA_KINDS[variant.access], slot)
        placement, record = optimize_slot(
            trace.positions[slot], cfg, rng, variant, fixed_irs=frozen,
            warm_start_genome=warm if cfg.warm_start else None, prev_placement=prev)
        if variant.surface == "static" and frozen is None:
            frozen = placement.irs
        placements.append(placement)
        records.append(record)
        warm = record.best_genome
        prev = placement
    return placements, records
