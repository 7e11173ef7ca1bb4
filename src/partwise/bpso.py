"""Binary particle swarm search over break-candidate matrices.

Particles are P-by-n bit matrices: bit ``(j, k)`` set means a cut at
position ``k`` of predictor ``j``, between its k-th and (k+1)-th order
statistics.  The search works on cut positions only: a particle's key lists
its set bits, and ``ConfigScorer`` scores keys and decides their
feasibility; threshold values (``min <= t < max``) are built only for the
configuration a key describes.  Velocity
updates squash through a sigmoid of an absolute value, so velocities live in
``[0.5, 1)``; position updates copy bits from the particle itself, its pbest,
or the global best depending on which velocity band is hit.  Elitist
mutation clones the best tenth of the swarm over the worst tenth each
iteration, and the search stops once the global best score is unchanged for
five consecutive iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .model import ChangePointConfig, Dataset, InputError
from .refine import ConfigScorer, ScoredConfig

SHIFT_SPAN = 3  # random bit adjustments are drawn from {-3, ..., +3}


@dataclass
class BpsoParams:
    """Swarm-search tuning parameters."""

    swarm_size: int = 100
    omega: float = 1.0
    c1: float = 2.0
    c2: float = 2.0
    a: float = 0.5
    max_iter: int = 200
    stall_iters: int = 5
    tol: float = 1e-12


@dataclass
class Particle:
    bits: np.ndarray  # (P, n) bool
    key: tuple
    score: float


@dataclass
class SwarmState:
    particles: list[Particle]
    velocities: np.ndarray  # (N, P, n) in [0, 1]
    pbest: list[Particle]
    gbest: Particle
    stall_count: int = 0

    @property
    def size(self) -> int:
        return len(self.particles)


@dataclass
class BpsoResult:
    config: ChangePointConfig
    key: tuple
    score: float
    converged: bool
    iterations: int
    scored: ScoredConfig


def _rng(seed: int, stream: int, iteration: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFF, stream, iteration, index])


def update_velocity(
    v_prev,
    x_prev,
    pbest,
    gbest,
    omega: float = 1.0,
    c1: float = 2.0,
    c2: float = 2.0,
    *,
    r1,
    r2,
):
    """Velocity update, elementwise over scalars or arrays.

    ``r1`` and ``r2`` are the U(0,1) draws.  Every result lies in [0.5, 1).
    """
    inner = (
        omega * v_prev
        + c1 * r1 * (pbest - x_prev)
        + c2 * r2 * (gbest - x_prev)
    )
    return 1.0 / (1.0 + np.exp(-np.abs(inner)))


def update_particle_bit(x_prev, pbest, gbest, v_new, a: float = 0.5):
    """Band rule, elementwise: keep the own bit where ``v_new <= a``, copy
    pbest's where ``v_new <= (1 + a) / 2``, and copy gbest's above that."""
    band = 0.5 * (1.0 + a)
    return np.where(v_new <= a, x_prev, np.where(v_new <= band, pbest, gbest))


def _candidate_pairs(
    data: Dataset, candidates: Mapping[int, Sequence[float]]
) -> list[tuple[int, int]]:
    pairs = []
    for j in sorted(candidates):
        for t in candidates[j]:
            pairs.append((j, data.cut_of_threshold(j, t)))
    return sorted(set(pairs))


def _key_of_bits(bits: np.ndarray) -> tuple:
    out = []
    for j in range(bits.shape[0]):
        pos = np.flatnonzero(bits[j])
        if pos.size:
            out.append((j, tuple(int(p) for p in pos)))
    return tuple(out)


def _repair(
    bits: np.ndarray, scorer: ConfigScorer, rng: np.random.Generator
) -> tuple:
    """Drop random set bits until the key is feasible; return that key."""
    while True:
        key = _key_of_bits(bits)
        if scorer.feasible(key):
            return key
        set_pos = np.argwhere(bits)
        drop = set_pos[int(rng.integers(set_pos.shape[0]))]
        bits[drop[0], drop[1]] = False


def _set_snapped(bits: np.ndarray, data: Dataset, j: int, pos: int) -> None:
    snapped = data.snap_cut(j, pos)
    if snapped is not None:
        bits[j, snapped] = True


def _make_particle(bits: np.ndarray, rng, scorer: ConfigScorer) -> Particle:
    key = _repair(bits, scorer, rng)
    score = scorer.score_key(key).total
    return Particle(bits=bits, key=key, score=score)


def init_swarm(
    data: Dataset,
    candidates: Mapping[int, Sequence[float]],
    params: BpsoParams,
    seed: int,
    scorer: ConfigScorer,
) -> SwarmState:
    """Build and score the initial swarm.

    Particle 1 encodes the whole candidate set; the next half encodes
    random subsets (each candidate kept with probability 1/2); the rest
    encode random subsets with every kept bit shifted by a random offset in
    ``{-3..+3}`` order-statistic positions.  All velocities start at 0.  An
    empty candidate set degenerates to a single all-zeros particle.
    """
    pairs = _candidate_pairs(data, candidates)
    P, n = data.P, data.n
    if not pairs:
        bits = np.zeros((P, n), dtype=bool)
        particles = [_make_particle(bits, _rng(seed, 0, 0, 0), scorer)]
    else:
        N = params.swarm_size
        if N < 3:
            raise InputError("swarm_size must be at least 3")
        half = math.ceil(N / 2)
        particles = []
        for i in range(N):
            rng = _rng(seed, 0, 0, i)
            bits = np.zeros((P, n), dtype=bool)
            if i == 0:
                for j, pos in pairs:
                    bits[j, pos] = True
            elif i < half:
                keep = rng.random(len(pairs)) < 0.5
                for (j, pos), k in zip(pairs, keep):
                    if k:
                        bits[j, pos] = True
            else:
                keep = rng.random(len(pairs)) < 0.5
                offsets = rng.integers(-SHIFT_SPAN, SHIFT_SPAN + 1, len(pairs))
                for (j, pos), k, off in zip(pairs, keep, offsets):
                    if k:
                        _set_snapped(bits, data, j, pos + int(off))
            particles.append(_make_particle(bits, rng, scorer))
    velocities = np.zeros((len(particles), P, n))
    pbest = [Particle(p.bits.copy(), p.key, p.score) for p in particles]
    g = min(range(len(pbest)), key=lambda i: (pbest[i].score, i))
    gbest = Particle(pbest[g].bits.copy(), pbest[g].key, pbest[g].score)
    return SwarmState(
        particles=particles, velocities=velocities, pbest=pbest, gbest=gbest
    )


def _mutate_bits(
    bits: np.ndarray,
    data: Dataset,
    pairs: list[tuple[int, int]],
    rng: np.random.Generator,
) -> np.ndarray:
    """One mutation: resize the bit set, shift the bits, or both."""
    out = bits.copy()
    choice = int(rng.integers(3))

    def resize():
        here = {(int(j), int(p)) for j, p in np.argwhere(out)}
        add_pool = [pr for pr in pairs if pr not in here]
        want_add = bool(rng.integers(2))
        if want_add and not add_pool:
            want_add = False
        if not want_add and not here:
            want_add = bool(add_pool)
        if want_add and add_pool:
            j, pos = add_pool[int(rng.integers(len(add_pool)))]
            out[j, pos] = True
        elif here:
            drops = sorted(here)
            j, pos = drops[int(rng.integers(len(drops)))]
            out[j, pos] = False

    def shift():
        set_pos = np.argwhere(out)
        if set_pos.shape[0] == 0:
            return
        offsets = rng.integers(-SHIFT_SPAN, SHIFT_SPAN + 1, set_pos.shape[0])
        out[:] = False
        for (j, pos), off in zip(set_pos, offsets):
            _set_snapped(out, data, int(j), int(pos) + int(off))

    if choice == 0:
        resize()
    elif choice == 1:
        shift()
    else:
        resize()
        shift()
    return out


def mutate(
    swarm: SwarmState,
    data: Dataset,
    pairs: list[tuple[int, int]],
    params: BpsoParams,
    seed: int,
    iteration: int,
    scorer: ConfigScorer,
) -> None:
    """Clone-and-mutate the best tenth of the swarm over the worst tenth.

    Mutants are repaired to the minimum-observations constraint before
    scoring.  A mutant that beats the pbest of the slot it lands in updates
    that pbest, so the global best never worsens across a mutation step.
    """
    N = swarm.size
    k = math.ceil(N / 10)
    order = sorted(range(N), key=lambda i: (swarm.particles[i].score, i))
    best_idx = order[:k]
    worst_idx = order[::-1][:k]
    for rank, src in enumerate(best_idx):
        rng = _rng(seed, 2, iteration, rank)
        bits = _mutate_bits(swarm.particles[src].bits, data, pairs, rng)
        mutant = _make_particle(bits, rng, scorer)
        slot = worst_idx[rank]
        swarm.particles[slot] = mutant
        if mutant.score < swarm.pbest[slot].score:
            swarm.pbest[slot] = Particle(mutant.bits.copy(), mutant.key, mutant.score)


def _advance(
    swarm: SwarmState,
    data: Dataset,
    params: BpsoParams,
    seed: int,
    iteration: int,
    scorer: ConfigScorer,
) -> None:
    """Velocity + position updates and rescoring for one iteration."""
    gb = swarm.gbest.bits.astype(np.float64)
    for i, particle in enumerate(swarm.particles):
        pbest = swarm.pbest[i]
        rng = _rng(seed, 1, iteration, i)
        r = rng.random((2,) + particle.bits.shape)
        v = update_velocity(
            swarm.velocities[i],
            particle.bits.astype(np.float64),
            pbest.bits.astype(np.float64),
            gb,
            params.omega,
            params.c1,
            params.c2,
            r1=r[0],
            r2=r[1],
        )
        swarm.velocities[i] = v
        bits = update_particle_bit(
            particle.bits, pbest.bits, swarm.gbest.bits, v, params.a
        )
        moved = _make_particle(bits, rng, scorer)
        swarm.particles[i] = moved
        if moved.score < pbest.score:
            swarm.pbest[i] = Particle(moved.bits.copy(), moved.key, moved.score)


def _refresh_gbest(swarm: SwarmState) -> None:
    g = min(range(swarm.size), key=lambda i: (swarm.pbest[i].score, i))
    if swarm.pbest[g].score < swarm.gbest.score:
        p = swarm.pbest[g]
        swarm.gbest = Particle(p.bits.copy(), p.key, p.score)


def run_bpso(
    data: Dataset,
    task: str,
    candidates: Mapping[int, Sequence[float]],
    params: BpsoParams | None = None,
    seed: int = 0,
    scorer: ConfigScorer | None = None,
) -> BpsoResult:
    """Minimize the feature-selected MDL over subsets of the candidate set.

    Runs velocity/position updates, per-particle best tracking, elitist
    mutation, and global-best bookkeeping until the global best is
    unchanged (within ``params.tol``) for ``params.stall_iters`` consecutive
    iterations, or ``params.max_iter`` is reached (the result is then
    flagged as not converged).
    """
    if params is None:
        params = BpsoParams()
    if scorer is None:
        scorer = ConfigScorer(data, task)
    pairs = _candidate_pairs(data, candidates)
    swarm = init_swarm(data, candidates, params, seed, scorer)
    converged = False
    iterations = 0
    for t in range(1, params.max_iter + 1):
        iterations = t
        prev = swarm.gbest.score
        _advance(swarm, data, params, seed, t, scorer)
        mutate(swarm, data, pairs, params, seed, t, scorer)
        _refresh_gbest(swarm)
        if prev - swarm.gbest.score <= params.tol:
            swarm.stall_count += 1
        else:
            swarm.stall_count = 0
        if swarm.stall_count >= params.stall_iters:
            converged = True
            break
    key = swarm.gbest.key
    scored = scorer.score_key(key)
    return BpsoResult(
        config=scored.config,
        key=key,
        score=swarm.gbest.score,
        converged=converged,
        iterations=iterations,
        scored=scored,
    )
