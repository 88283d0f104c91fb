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
from its own (1, access, slot) stream, in an order no other job affects:
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
job's draws, then breeds the whole stack with array operations.  Memory
is bounded here alone: a job holds about P * L + S * (2G + 8U) numbers for
S slots, G generations and U users (genomes, and slot records until the
caller takes them), and a stack takes as many jobs as fit in 2^18 numbers
and 2^16 candidate x user cells, at least one.  A fitness call scores a
stack's jobs of one access mode and surface presence; a job's tournament
keys shrink to entrants as drawn; only the final generation's evaluation is
kept, as each job's winner row (the slot's noma.SlotResult).

Stacks are searched in waves of up to W = _WORKERS at once, W being the
number of CPUs this process may run on (its affinity mask): the calling
thread searches a wave's first stack and a pool of W - 1 threads the rest,
while numpy's kernels release the interpreter lock.  So at most W stacks
are held at once.  A run of one stack, or W = 1, starts no thread.  Stacks
share no state and each job keeps its own streams, so the outputs do not
depend on W.
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

# A stack's bounds: numbers held, and candidate x user cells (one job at least).
_STACK_NUMBERS = 2**18
_CALL_CELLS = 2**16

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

    def __post_init__(self):
        if self.surface not in ("mobile", "static", "none"):
            raise ValueError(f"unknown surface mode {self.surface!r}")
        if self.access not in ("noma", "oma"):
            raise ValueError(f"unknown access mode {self.access!r}")


@dataclass
class GaRunRecord:
    """One slot search: the winning placement and genome, per-generation
    best/mean fitness, and the winner's evaluation from the final generation."""

    placement: Placement
    best_fitness: list[float]
    mean_fitness: list[float]
    best_genome: np.ndarray
    result: noma.SlotResult


def genome_bounds(cfg: ScenarioConfig) -> list[tuple[float, float]]:
    """(lo, hi) per encoded coordinate, in genome order."""
    r = cfg.region
    ground = [(r.x_min, r.x_max), (r.y_min, r.y_max)]  # the UAV's and the vehicle's
    return [*ground, (cfg.uav_alt_min_m, cfg.uav_alt_max_m), *ground]


def genome_length(cfg: ScenarioConfig) -> int:
    return NUM_COORDS * cfg.bits_per_coordinate


def decode_batch(genomes: np.ndarray, bounds, bits: int) -> np.ndarray:
    """Decode (..., L) bit arrays to (..., 5) coordinates."""
    genomes = np.atleast_2d(genomes)
    if genomes.shape[-1] != NUM_COORDS * bits:
        raise ValueError(f"genome length {genomes.shape[-1]} != {NUM_COORDS * bits}")
    weights = (1 << np.arange(bits - 1, -1, -1)).astype(np.int64)
    codes = genomes.reshape(*genomes.shape[:-1], NUM_COORDS, bits).astype(np.int64) @ weights
    lo, hi = np.array(bounds, dtype=float).T
    return lo + codes / ((1 << bits) - 1) * (hi - lo)


def _fitness(genomes: np.ndarray, users, cfg: ScenarioConfig, variant: Variant, pinned, prev):
    """Score a (J, P, L) stack of jobs of one access mode and surface presence.

    users is (J, U, 2); pinned[j] is job j's fixed vehicle point (None: the
    encoded one moves); prev[j] is job j's previous placement (prev None: no
    displacement penalty).  Returns the penalized fitness (J, P), the scored
    UAV (J, P, 3) and vehicle (J, P, 2, or None) positions, and the
    noma.evaluate_batch result over the J * P rows.
    """
    jobs, size = genomes.shape[:2]
    coords = decode_batch(genomes, genome_bounds(cfg), cfg.bits_per_coordinate)
    uav, irs = coords[..., :3], coords[..., 3:]
    moves = np.array([variant.surface != "none" and p is None for p in pinned])
    if variant.surface == "none":
        irs = None
    elif not moves.all():
        irs = irs.copy()
        irs[~moves] = np.array([p for p in pinned if p is not None], dtype=float)[:, None]
    gu, gi = channel.link_gains(uav, irs, users[:, None], cfg)
    ev = noma.evaluate_batch(gu.reshape(jobs * size, -1), gi.reshape(jobs * size, -1), cfg,
                             variant.access)
    fit = (ev["sum_rate"] - cfg.sinr_penalty_weight * ev["deficit"]).reshape(jobs, size)
    limit = cfg.max_slot_displacement_m
    if limit is not None and prev is not None:
        px, py = np.array([p.uav[:2] for p in prev]).T[:, :, None]
        excess = np.maximum(0.0, np.hypot(uav[..., 0] - px, uav[..., 1] - py) - limit)
        if moves.any():
            qx, qy = np.array([p.irs for p, m in zip(prev, moves) if m]).T[:, :, None]
            excess[moves] += np.maximum(
                0.0, np.hypot(irs[moves, :, 0] - qx, irs[moves, :, 1] - qy) - limit)
        fit = fit - cfg.sinr_penalty_weight * excess
    return fit, uav, irs, ev


def _breed(population: np.ndarray, fit: np.ndarray, cfg: ScenarioConfig,
           mutation_prob_per_bit: float, rngs) -> np.ndarray:
    """Next generation of a (J, P, L) stack: each job's elitism_count fittest
    genomes, then its mutated children.

    Children come in crossover pairs of tournament winners; a trailing odd
    child is dropped so a job keeps population_size genomes.  Job j draws
    from rngs[j], in the order the module docstring gives.
    """
    jobs, size, length = population.shape
    num_children = size - cfg.elitism_count
    pairs = (num_children + 1) // 2
    k = cfg.tournament_size
    entrants = np.empty((jobs, 2 * pairs, k), dtype=np.intp)
    coin = np.empty((jobs, pairs), dtype=bool)
    cut = np.empty((jobs, pairs), dtype=np.int64)
    flips = np.empty((jobs, num_children, length), dtype=np.uint8)
    for j, rng in enumerate(rngs):
        entrants[j] = np.argpartition(rng.random((2 * pairs, size)), k - 1, axis=1)[:, :k]
        coin[j] = rng.random(pairs) < cfg.crossover_prob
        cut[j] = rng.integers(1, length, pairs)
        flips[j] = rng.random((num_children, length)) < mutation_prob_per_bit
    entrants.sort(axis=2)  # ties go to the lowest index
    rows = np.arange(jobs)[:, None]
    best = np.argmax(fit[rows[:, :, None], entrants], axis=2)
    parents = population[rows, entrants[rows, np.arange(2 * pairs), best]]
    parents_a, parents_b = parents[:, 0::2], parents[:, 1::2]
    swap = coin[:, :, None] & (np.arange(length) >= cut[:, :, None])
    children = np.stack([np.where(swap, parents_b, parents_a),
                         np.where(swap, parents_a, parents_b)], axis=2)
    children = children.reshape(jobs, 2 * pairs, length)[:, :num_children]
    elites = population[rows, np.argsort(-fit, axis=1, kind="stable")[:, :cfg.elitism_count]]
    return np.concatenate([elites, children ^ flips], axis=1)


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
        held = size * genome_length(cfg) + slots * (2 * cfg.max_iterations + 8 * users)
        per_stack = max(1, min(_STACK_NUMBERS // held, _CALL_CELLS // (size * users)))
        yield [first, *itertools.islice(jobs, per_stack - 1)]


def _optimize_stack(jobs, cfg: ScenarioConfig,
                    stop: threading.Event) -> Optional[list[list[GaRunRecord]]]:
    """optimize_jobs on one stack; a generation scores each access-surface group in one call.

    Gives up, returning None, at the first generation that finds stop set.
    """
    size, length = cfg.population_size, genome_length(cfg)
    mut_p = cfg.mutation_prob_per_bit if cfg.mutation_prob_per_bit is not None else 1.0 / length
    variants = [variant for _, _, variant in jobs]
    pinned = [(cfg.s_irs_x, cfg.s_irs_y) if v.surface == "static" and cfg.s_irs_x is not None
              else None for v in variants]
    results = [[] for _ in jobs]
    calls: dict[tuple, list[int]] = {}
    for j, v in enumerate(variants):
        calls.setdefault((v.access, v.surface == "none"), []).append(j)

    for slot in range(jobs[0][0].num_slots):
        rngs = [scenario.stream(seed, scenario.GA_STREAM, _GA_KINDS[v.access], slot)
                for _, seed, v in jobs]
        population = np.stack([(rng.random((size, length)) < 0.5).astype(np.uint8)
                               for rng in rngs])
        if cfg.warm_start and slot:
            population[:, 0] = [records[-1].best_genome for records in results]
        scoring = [(call, np.stack([jobs[j][0].positions[slot] for j in call]),
                    variants[call[0]], [pinned[j] for j in call],
                    [results[j][-1].placement for j in call] if slot else None)
                   for call in calls.values()]
        fit = np.empty((len(jobs), size))
        history, winners = [], [None] * len(jobs)
        for generation in range(cfg.max_iterations + 1):
            if stop.is_set():
                return None
            if generation:
                population = _breed(population, fit, cfg, mut_p, rngs)
            for call, users, variant, call_pinned, prev in scoring:
                fit[call], uav, irs, ev = _fitness(population[call], users, cfg, variant,
                                                   call_pinned, prev)
                if generation == cfg.max_iterations:
                    for row, j in enumerate(call):
                        best = int(np.argmax(fit[j]))
                        winners[j] = (best, Placement(
                            uav=tuple(uav[row, best].tolist()),
                            irs=None if irs is None else tuple(irs[row, best].tolist())),
                            noma.SlotResult.from_batch(ev, row * size + best))
                ev = None  # release this call's evaluation before the next one
            history.append((fit.max(axis=1), fit.mean(axis=1)))

        best_per_gen, mean_per_gen = np.array(history).transpose(1, 2, 0).tolist()
        for j, (best, placement, result) in enumerate(winners):
            if variants[j].surface == "static" and pinned[j] is None:
                pinned[j] = placement.irs
            results[j].append(GaRunRecord(
                placement=placement, best_fitness=best_per_gen[j],
                mean_fitness=mean_per_gen[j], best_genome=population[j, best].copy(),
                result=result))
    return results
