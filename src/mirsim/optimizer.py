"""Per-slot placement search with a genetic algorithm, all jobs in lockstep.

A scenario is a Variant(surface, access).  The same GA serves all of them;
the variant only decides which surface position the fitness sees.

One genome is a bitstring of 5 * bits_per_coordinate bits encoding
(uav_x, uav_y, uav_z, vehicle_x, vehicle_y) as fixed-point fractions of
their bounds, so every decoded placement satisfies the region and altitude
constraints by construction.  Fitness is the slot sum rate minus a penalty
proportional to the total SINR shortfall below the threshold.  Selection is
tournament, crossover single-point, mutation independent bit flips, and the
top elitism_count genomes carry over unchanged, which makes the
per-generation best fitness non-decreasing.

``optimize_jobs`` pulls its jobs, one (trace, seed, variant) each, a stack
at a time and runs a stack in lockstep slot by slot (warm starts and a
static surface's freeze point chain along slots, so jobs stack and slots do
not) as a (J, P, L) array: J jobs, P genomes of L bits each.  A job draws
from its (1, access, slot) stream, and the jobs that share one, a family,
share its draws, made once per stack in an order no other family affects:
the initial bits, shape (P, L), then per generation, with E the elitism
count and pairs = ceil((P - E) / 2):

1. tournaments: one uniform key per (tournament, genome), shape
   (2 * pairs, P); the tournament_size smallest keys of a row pick its
   distinct entrants;
2. crossover coins: one uniform draw per pair;
3. cuts: one integer in [1, L) per pair, drawn whatever the coin says;
4. mutation: one uniform draw per bit of the P - E children, shape
   (P - E, L), after a trailing odd child is dropped.

Fitness draws nothing and no draw depends on it, so a generation makes each
family's draws, one family at a time, breeds the whole stack with array
operations and scores it in one pass: one decode, one channel.link_gains
call (with no surface at all if no job has one, and else with zero
reflected gains for the jobs without one), one displacement penalty and one
noma.evaluate_batch call per access mode, each asking for sum rate and
deficit alone.  After the last generation one more such pass, in full,
scores each job's winning genome alone, a (J, 1, L) stack; a row's
evaluation does not depend on the rows batched with it, and the next
slot's warm start takes these champions.  Memory is bounded by one count:
a job holds about P * L + S * (2G + 8U) + 8 * P * U numbers for S slots, G
generations and U users (genomes, slot records until the caller takes
them, and its P * U cells in the stack's channel.Workspace, kept across
slots: five float arrays and an integer one, two fewer than the count
charges), and a stack takes as many jobs as fit in 2^19 numbers, at least
one.  Breeding adds, per generation, one family's draws, about P^2 + P * L
numbers, and each family's mutation mask.  A warm fitness call allocates
well under one P * U array per job.  Kernel results are views into the
workspace, so an access mode's winners (placement and noma.SlotResult row)
are copied out before the next mode's call.

Stacks are searched in waves of up to W = _WORKERS at once, W being the
number of CPUs this process may run on (its affinity mask): the calling
thread searches a wave's first stack and a pool of W - 1 threads the rest,
while numpy's kernels release the interpreter lock.  So at most W stacks
are held at once.  A run of one stack, or W = 1, starts no thread.  Stacks
share no state and a family's draws do not depend on its stack, so the
outputs do not depend on W.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections.abc import Iterator
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

# A stack's bound on numbers held (one job at least); _stacks counts them.
_STACK_NUMBERS = 2**19

# Stacks searched at once, one thread each: the CPUs this process may run on.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


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


@dataclass
class GaRunRecord:
    """One slot search: the winning placement, per-generation best/mean
    fitness, and the winner's full evaluation."""

    placement: Placement
    best_fitness: list[float]
    mean_fitness: list[float]
    result: noma.SlotResult


def genome_bounds(cfg: ScenarioConfig) -> list[tuple[float, float]]:
    """(lo, hi) per encoded coordinate, in genome order."""
    r = cfg.region
    ground = [(r.x_min, r.x_max), (r.y_min, r.y_max)]  # the UAV's and the vehicle's
    return [*ground, (cfg.uav_alt_min_m, cfg.uav_alt_max_m), *ground]


def genome_length(cfg: ScenarioConfig) -> int:
    return NUM_COORDS * cfg.bits_per_coordinate


def decode_batch(genomes: np.ndarray, bounds, bits: int) -> np.ndarray:
    """Decode (..., L) bit arrays, L = 5 * bits, to (..., 5) coordinates."""
    weights = (1 << np.arange(bits - 1, -1, -1)).astype(np.int64)
    codes = genomes.reshape(*genomes.shape[:-1], NUM_COORDS, bits).astype(np.int64) @ weights
    lo, hi = np.array(bounds, dtype=float).T
    return lo + codes / ((1 << bits) - 1) * (hi - lo)


def _fitness(genomes: np.ndarray, users, cfg: ScenarioConfig, variants, pinned, prev,
             ws: Optional[channel.Workspace] = None, full: bool = True):
    """Score a (J, P, L) stack: the penalized fitness (J, P) and, if full,
    each job's winner (genome index, Placement, noma.SlotResult), else None.

    users is (J, U, 2); variants[j] is job j's Variant; pinned[j] is job
    j's fixed vehicle point (None: the encoded one moves); prev[j] is job
    j's previous placement (prev None: no displacement penalty).  One
    channel.link_gains call, and one noma.evaluate_batch call per run of
    one access mode, full or (full=False) score-only, in ws.
    """
    jobs, size = genomes.shape[:2]
    coords = decode_batch(genomes, genome_bounds(cfg), cfg.bits_per_coordinate)
    uav, irs = coords[..., :3], coords[..., 3:]
    surface = np.array([v.surface != "none" for v in variants])
    fixed = np.array([p is not None for p in pinned])
    moves = surface & ~fixed
    if fixed.any():  # coords is fresh, so the pinned points go straight in
        irs[fixed] = np.array([p for p in pinned if p is not None], dtype=float)[:, None]
    limit, penalty = cfg.max_slot_displacement_m, None
    if limit is not None and prev is not None:
        px, py = np.array([p.uav[:2] for p in prev]).T[:, :, None]
        excess = np.maximum(0.0, np.hypot(uav[..., 0] - px, uav[..., 1] - py) - limit)
        if moves.any():
            qx, qy = np.array([p.irs for p, m in zip(prev, moves) if m]).T[:, :, None]
            excess[moves] += np.maximum(
                0.0, np.hypot(irs[moves, :, 0] - qx, irs[moves, :, 1] - qy) - limit)
        penalty = cfg.sinr_penalty_weight * excess
    gu, gi = channel.link_gains(uav, irs if surface.any() else None, users[:, None], cfg, ws)
    if gi is not None:
        gi[~surface] = 0.0
    fit, winners = np.empty((jobs, size)), [] if full else None
    for access, run in itertools.groupby(range(jobs), lambda j: variants[j].access):
        run = list(run)
        block = slice(run[0], run[-1] + 1)
        ev = noma.evaluate_batch(*(None if g is None else g[block].reshape(-1, g.shape[-1])
                                   for g in (gu, gi)), cfg, access, ws, full)
        fit[block] = (ev["sum_rate"] - cfg.sinr_penalty_weight * ev["deficit"]).reshape(-1, size)
        if penalty is not None:
            fit[block] -= penalty[block]
        for row, j in enumerate(run if full else ()):  # before the next call overwrites ev
            best = int(np.argmax(fit[j]))
            winners.append((best, Placement(tuple(uav[j, best].tolist()),
                                            tuple(irs[j, best].tolist()) if surface[j] else None),
                            noma.SlotResult.from_batch(ev, row * size + best)))
    return fit, winners


def _breed(population: np.ndarray, fit: np.ndarray, cfg: ScenarioConfig,
           mutation_prob_per_bit: float, rngs, family: np.ndarray) -> np.ndarray:
    """Next generation of a (J, P, L) stack: each job's elitism_count fittest
    genomes, then its mutated children.

    Children come in crossover pairs of tournament winners; a trailing odd
    child is dropped so a job keeps population_size genomes.  Job j takes
    the draws of rngs[family[j]], each generator drawn once in the order the
    module docstring gives; family f's crossover coins, cuts and mutation
    mask are row f of coins, cut and flips.

    A tournament's k = tournament_size smallest keys enter, an exact tie at
    the k-th going to the lower genome index, and the fittest entrant wins,
    ties going to the lowest index: the entrant first in its job's order
    (fittest first).  One np.partition per family finds each row's k-th key.
    """
    jobs, size, length = population.shape
    num_children = size - cfg.elitism_count
    pairs, k = (num_children + 1) // 2, cfg.tournament_size
    rows = np.arange(jobs)[:, None]
    order = np.argsort(-fit, axis=1, kind="stable")  # fittest first, ties to the lowest index
    keys, coins = np.empty((2 * pairs, size)), np.empty((len(rngs), pairs))
    uniforms = np.empty((num_children, length))
    flips = np.empty((len(rngs), num_children, length), bool)
    cut = np.empty((len(rngs), pairs), np.intp)
    best = np.empty((jobs, 2 * pairs), np.intp)  # each winner's place in its job's order
    for f, rng in enumerate(rngs):
        rng.random(out=keys)
        rng.random(out=coins[f])
        cut[f] = rng.integers(1, length, pairs)
        np.less(rng.random(out=uniforms), mutation_prob_per_bit, out=flips[f])
        enters = keys <= np.partition(keys, k - 1, axis=1)[:, k - 1, None]
        if np.count_nonzero(enters) > k * len(keys):  # an exact tie at some row's k-th key
            for row in np.flatnonzero(np.count_nonzero(enters, axis=1) > k):
                enters[row] = False
                enters[row, np.argsort(keys[row], kind="stable")[:k]] = True
        members = family == f
        best[members] = np.argmax(enters[:, order[members]], axis=2).T
    parents = population[rows, order[rows, best]]
    parents_a, parents_b = parents[:, 0::2], parents[:, 1::2]
    # The bits a pair swaps: where its parents differ, from the cut on if its coin says so.
    swap = parents_a ^ parents_b
    swap &= np.arange(length) >= np.where(coins < cfg.crossover_prob, cut, length)[family, :, None]
    parents_a ^= swap  # parents now holds the children, pair by pair
    parents_b ^= swap
    offspring = np.empty_like(population)
    offspring[:, :cfg.elitism_count] = population[rows, order[:, :cfg.elitism_count]]
    np.bitwise_xor(parents[:, :num_children], flips[family], out=offspring[:, cfg.elitism_count:])
    return offspring


def optimize_jobs(jobs, cfg: ScenarioConfig) -> Iterator[list[GaRunRecord]]:
    """Optimize every slot of every (trace, master_seed, variant) job in lockstep.

    jobs is any iterable, pulled in this thread a stack at a time and at
    most _WORKERS stacks ahead; every trace has the same slot and user
    counts.  Yields each job's records, one per slot, in job order, as if
    the job ran alone.  A static surface is optimized jointly on the first
    slot and frozen there (or at the configured point from the start); it
    shares the mobile variant's streams, so its first slot reproduces the
    mobile one exactly.
    """
    stacks = _stacks(jobs, cfg)
    stop, pool = threading.Event(), None
    try:
        # A wave of up to _WORKERS stacks: this thread searches the first, the pool the rest.
        while wave := list(itertools.islice(stacks, _WORKERS)):
            if pool is None and len(wave) > 1:
                # Imported here: a run of one stack needs no pool, nor the ~6 ms import.
                from concurrent.futures import ThreadPoolExecutor
                pool = ThreadPoolExecutor(_WORKERS - 1)
            others = [pool.submit(_optimize_stack, stack, cfg, stop) for stack in wave[1:]]
            yield from _optimize_stack(wave[0], cfg, stop)
            for future in others:
                yield from future.result()
    finally:  # also on an error or an early close: stacks in flight stop at their next generation
        stop.set()
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _stacks(jobs, cfg: ScenarioConfig):
    """jobs as lists, one stack each, sized from the stack's first trace."""
    jobs = iter(jobs)
    for first in jobs:
        size, slots, users = cfg.population_size, first[0].num_slots, first[0].num_users
        held = (size * genome_length(cfg) + slots * (2 * cfg.max_iterations + 8 * users)
                + 8 * size * users)  # the module docstring's count
        yield [first, *itertools.islice(jobs, max(1, _STACK_NUMBERS // held) - 1)]


def _optimize_stack(jobs, cfg: ScenarioConfig,
                    stop: threading.Event) -> Optional[list[list[GaRunRecord]]]:
    """optimize_jobs on one stack, held with each access mode's jobs contiguous
    and returned in job order.

    Gives up, returning None, at the first generation that finds stop set.
    """
    order = sorted(range(len(jobs)), key=lambda j: jobs[j][2].access)
    jobs = [jobs[j] for j in order]
    size, length = cfg.population_size, genome_length(cfg)
    mut_p = cfg.mutation_prob_per_bit if cfg.mutation_prob_per_bit is not None else 1.0 / length
    variants = [variant for _, _, variant in jobs]
    pinned = [(cfg.s_irs_x, cfg.s_irs_y) if v.surface == "static" and cfg.s_irs_x is not None
              else None for v in variants]
    families = list(dict.fromkeys((seed, v.access) for _, seed, v in jobs))
    family = np.array([families.index((seed, v.access)) for _, seed, v in jobs])
    results = [[] for _ in jobs]
    ws = channel.Workspace()

    for slot in range(jobs[0][0].num_slots):
        rngs = [scenario.stream(seed, scenario.GA_STREAM, _GA_KINDS[access], slot)
                for seed, access in families]
        population = np.stack([(rng.random((size, length)) < 0.5).astype(np.uint8)
                               for rng in rngs])[family]
        if cfg.warm_start and slot:
            population[:, 0] = champions[:, 0]  # the previous slot's
        users = np.stack([trace.positions[slot] for trace, _, _ in jobs])
        prev = [records[-1].placement for records in results] if slot else None
        history = []
        for generation in range(cfg.max_iterations + 1):
            if stop.is_set():
                return None
            if generation:
                population = _breed(population, fit, cfg, mut_p, rngs, family)
            fit = _fitness(population, users, cfg, variants, pinned, prev, ws, False)[0]
            history.append((fit.max(axis=1), fit.mean(axis=1)))

        best_per_gen, mean_per_gen = np.array(history).transpose(1, 2, 0).tolist()
        champions = population[np.arange(len(jobs)), fit.argmax(axis=1), None]
        winners = _fitness(champions, users, cfg, variants, pinned, prev, ws)[1]
        for j, (_, placement, result) in enumerate(winners):
            if variants[j].surface == "static" and pinned[j] is None:
                pinned[j] = placement.irs
            results[j].append(GaRunRecord(
                placement=placement, best_fitness=best_per_gen[j],
                mean_fitness=mean_per_gen[j], result=result))
    return [results[i] for i in np.argsort(order)]
