"""Binary particle swarm search over break-candidate matrices.

The search space is P-by-n bit matrices: bit ``(j, k)`` set means a cut at
position ``k`` of predictor ``j``, between its k-th and (k+1)-th order
statistics.  A particle is a key, the sorted cut positions of each
predictor, never a matrix.  The swarm holds each particle, pbest and the
global best as the scorer's cached ``ScoredConfig`` of its key, compared by
``.total``, and returns the global best's without scoring it again.
Each step (initialisation, an iteration's moves, a mutation) first
proposes all its keys: ``ConfigScorer.feasible`` rejects an infeasible key
in one pass over the rows, and a rejected key is repaired by dropping
random cuts.  The step's keys are then scored in one batch
(``ConfigScorer.score_keys``), which builds the region menus they miss
together.  This is exact: a move reads its own particle and pbest and the
global best, which is fixed for the iteration, and the best and the worst
tenth of a mutation are disjoint for ``swarm_size >= 3``.  Threshold
values (``min <= t < max``) are built only for the configuration a key
describes.  Velocity updates squash through a sigmoid of an absolute
value, so velocities live in ``[0.5, 1)``; position updates copy bits from
the particle itself, its pbest, or the global best depending on which
velocity band is hit.  Elitist mutation clones the best tenth of the swarm
over the worst tenth each iteration, and the search stops once the global
best score is unchanged for five consecutive iterations (``STALL_ITERS``),
as in the paper, or after ``max_iter`` iterations.

Velocities are sparse.  Where a particle, its pbest and the global best
agree, both difference terms of the velocity update are exactly zero, so
the velocity there follows ``v <- sigmoid(|OMEGA * v|)`` from 0 and the new
bit is the common bit.  Every position that has never disagreed therefore
shares one velocity, ``SwarmState.rest_velocity``, and each particle
stores velocities only at the positions where it has.  An iteration draws
its uniforms only at the disagreeing positions, by PCG64 jump-ahead to the
places a dense ``rng.random((2, P, n))`` would give them (O'Neill 2014),
so seeded results are those of the dense update bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .model import Dataset, InputError
from .refine import ConfigScorer, ScoredConfig, _key_from_pairs

SHIFT_SPAN = 3  # random bit adjustments are drawn from {-3, ..., +3}
# Inertia, the pbest and gbest acceleration constants, and the band edge of
# the position update, fixed as in the paper.
OMEGA, C1, C2, A = 1.0, 2.0, 2.0, 0.5
# The search has converged once the global best improves by no more than
# STALL_TOL for STALL_ITERS consecutive iterations.
STALL_ITERS = 5
STALL_TOL = 1e-12
# Drawn positions closer than this are read as one block: skipping a few
# draws by reading them costs less than a second jump-ahead call.
RUN_GAP = 64


@dataclass
class BpsoParams:
    """Swarm-search tuning parameters."""

    swarm_size: int = 100
    max_iter: int = 200

    def check(self) -> None:
        """Raise InputError for ``swarm_size`` below 3 or ``max_iter`` below 1."""
        if self.swarm_size < 3:
            raise InputError(f"swarm_size must be at least 3, got {self.swarm_size}")
        if self.max_iter < 1:
            raise InputError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass
class SwarmState:
    """Particles, their bests, and their sparse velocities.

    Particles and bests are the scorer's ``ScoredConfig``s of feasible keys.
    ``velocities[i]`` maps the flat position ``j * n + pos`` to particle
    ``i``'s velocity there.  It holds every position where the particle,
    its pbest and the global best have disagreed at some iteration; every
    other position of every particle has velocity ``rest_velocity``.
    """

    particles: list[ScoredConfig]
    pbest: list[ScoredConfig]
    gbest: ScoredConfig
    velocities: list[dict[int, float]]
    rest_velocity: float = 0.0

    @property
    def size(self) -> int:
        return len(self.particles)


@dataclass
class BpsoResult:
    scored: ScoredConfig
    converged: bool
    iterations: int


def _rng(seed: int, stream: int, iteration: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFF, stream, iteration, index])


def update_velocity(
    v_prev,
    x_prev,
    pbest,
    gbest,
    omega: float = OMEGA,
    c1: float = C1,
    c2: float = C2,
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


def update_particle_bit(x_prev, pbest, gbest, v_new, a: float = A):
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
            pairs.append((int(j), data.cut_of_threshold(j, t)))
    return sorted(set(pairs))


def _flat_of_key(key: tuple, n: int) -> set[int]:
    return {j * n + p for j, ps in key for p in ps}


def _set_snapped(cuts: set, data: Dataset, j: int, pos: int) -> None:
    snapped = data.snap_cut(j, pos)
    if snapped is not None:
        cuts.add((j, snapped))


def _make_particle(
    cuts: Iterable[tuple[int, int]], rng, scorer: ConfigScorer
) -> tuple:
    """The key of ``cuts``, after dropping random cuts until the scorer's
    gate passes it."""
    cuts = sorted(cuts)
    while True:
        key = _key_from_pairs(cuts)
        if scorer.feasible(key):
            return key
        del cuts[int(rng.integers(len(cuts)))]


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
    encode random subsets with every kept cut shifted by a random offset in
    ``{-3..+3}`` order-statistic positions.  All velocities start at 0.  An
    empty candidate set degenerates to a single particle with no cut.
    """
    pairs = _candidate_pairs(data, candidates)
    if not pairs:
        keys = [_make_particle([], _rng(seed, 0, 0, 0), scorer)]
    else:
        N = params.swarm_size
        half = math.ceil(N / 2)
        keys = []
        for i in range(N):
            rng = _rng(seed, 0, 0, i)
            if i == 0:
                cuts = set(pairs)
            elif i < half:
                keep = rng.random(len(pairs)) < 0.5
                cuts = {pr for pr, k in zip(pairs, keep) if k}
            else:
                keep = rng.random(len(pairs)) < 0.5
                offsets = rng.integers(-SHIFT_SPAN, SHIFT_SPAN + 1, len(pairs))
                cuts = set()
                for (j, pos), k, off in zip(pairs, keep, offsets):
                    if k:
                        _set_snapped(cuts, data, j, pos + int(off))
            keys.append(_make_particle(cuts, rng, scorer))
    particles = scorer.score_keys(keys)
    g = min(range(len(particles)), key=lambda i: (particles[i].total, i))
    return SwarmState(
        particles=particles,
        pbest=list(particles),
        gbest=particles[g],
        velocities=[{} for _ in particles],
    )


def _mutate_cuts(
    key: tuple,
    data: Dataset,
    pairs: list[tuple[int, int]],
    rng: np.random.Generator,
) -> set[tuple[int, int]]:
    """One mutation of a key's cuts: resize the set, shift the cuts, or both."""
    out = {(j, p) for j, ps in key for p in ps}
    choice = int(rng.integers(3))

    def resize():
        add_pool = [pr for pr in pairs if pr not in out]
        want_add = bool(rng.integers(2))
        if want_add and not add_pool:
            want_add = False
        if not want_add and not out:
            want_add = bool(add_pool)
        if want_add and add_pool:
            out.add(add_pool[int(rng.integers(len(add_pool)))])
        elif out:
            drops = sorted(out)
            out.discard(drops[int(rng.integers(len(drops)))])

    def shift():
        set_pos = sorted(out)
        if not set_pos:
            return
        offsets = rng.integers(-SHIFT_SPAN, SHIFT_SPAN + 1, len(set_pos))
        out.clear()
        for (j, pos), off in zip(set_pos, offsets):
            _set_snapped(out, data, j, pos + int(off))

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
    seed: int,
    iteration: int,
    scorer: ConfigScorer,
) -> None:
    """Clone-and-mutate the best tenth of the swarm over the worst tenth.

    Mutants are repaired to the minimum-observations constraint before
    scoring.  A mutant that beats the pbest of the slot it lands in updates
    that pbest, so the global best never worsens across a mutation step.
    Velocities stay with their slot.
    """
    N = swarm.size
    k = math.ceil(N / 10)
    order = sorted(range(N), key=lambda i: (swarm.particles[i].total, i))
    best_idx = order[:k]
    worst_idx = order[::-1][:k]
    keys = []
    for rank, src in enumerate(best_idx):
        rng = _rng(seed, 2, iteration, rank)
        cuts = _mutate_cuts(swarm.particles[src].key, data, pairs, rng)
        keys.append(_make_particle(cuts, rng, scorer))
    for slot, mutant in zip(worst_idx, scorer.score_keys(keys)):
        swarm.particles[slot] = mutant
        if mutant.total < swarm.pbest[slot].total:
            swarm.pbest[slot] = mutant


def _draws(
    rng: np.random.Generator, flat: list[int], size: int
) -> tuple[dict[int, float], dict[int, float]]:
    """The r1 and r2 draws of ``rng.random((2, size))`` at the ascending
    flat positions ``flat``, read by jump-ahead.  ``rng`` is left where that
    call would leave it.

    Positions less than RUN_GAP apart form a run, read with one ``advance``
    to its first position and one ``rng.random`` call of its whole span.
    """
    bit_generator = rng.bit_generator
    runs = []
    start = 0
    for i in range(1, len(flat) + 1):
        if i == len(flat) or flat[i] - flat[i - 1] >= RUN_GAP:
            runs.append(flat[start:i])
            start = i
    drawn = 0
    r1: dict[int, float] = {}
    r2: dict[int, float] = {}
    for offset, r in ((0, r1), (size, r2)):
        for run in runs:
            first = run[0]
            bit_generator.advance(offset + first - drawn)
            block = rng.random(run[-1] - first + 1).tolist()
            for f in run:
                r[f] = block[f - first]
            drawn = offset + run[-1] + 1
    bit_generator.advance(2 * size - drawn)
    return r1, r2


def _advance(
    swarm: SwarmState,
    data: Dataset,
    seed: int,
    iteration: int,
    scorer: ConfigScorer,
) -> None:
    """Velocity + position updates and rescoring for one iteration.

    Each particle is updated at the positions where it, its pbest and the
    global best disagree, and at the positions it holds a velocity for.
    Everywhere else the new bit is the common bit, and the velocity is the
    shared rest velocity, which advances once per iteration.
    """
    n = data.n
    size = data.P * n
    gbest = _flat_of_key(swarm.gbest.key, n)
    rest = swarm.rest_velocity
    keys = []
    for i, particle in enumerate(swarm.particles):
        pbest = swarm.pbest[i]
        x = _flat_of_key(particle.key, n)
        pb = _flat_of_key(pbest.key, n)
        agree = x & pb & gbest
        differ = sorted((x | pb | gbest) - agree)
        stored = swarm.velocities[i]
        at = sorted(stored.keys() | differ)
        rng = _rng(seed, 1, iteration, i)
        r1, r2 = _draws(rng, differ, size)
        x_at = np.array([f in x for f in at], dtype=bool)
        pb_at = np.array([f in pb for f in at], dtype=bool)
        gb_at = np.array([f in gbest for f in at], dtype=bool)
        v = update_velocity(
            np.array([stored.get(f, rest) for f in at], dtype=np.float64),
            x_at.astype(np.float64),
            pb_at.astype(np.float64),
            gb_at.astype(np.float64),
            r1=np.array([r1.get(f, 0.0) for f in at], dtype=np.float64),
            r2=np.array([r2.get(f, 0.0) for f in at], dtype=np.float64),
        )
        swarm.velocities[i] = dict(zip(at, v.tolist()))
        bits = update_particle_bit(x_at, pb_at, gb_at, v)
        cuts = [divmod(f, n) for f in agree.union(f for f, b in zip(at, bits) if b)]
        keys.append(_make_particle(cuts, rng, scorer))
    for i, moved in enumerate(scorer.score_keys(keys)):
        swarm.particles[i] = moved
        if moved.total < swarm.pbest[i].total:
            swarm.pbest[i] = moved
    # The rest velocity takes the update of a position where all three
    # agree: both difference terms are exactly zero whatever r1 and r2.  It
    # goes through a one-element array so that np.exp runs the same loop as
    # on the gathered positions.
    swarm.rest_velocity = float(
        update_velocity(np.array([rest]), 0.0, 0.0, 0.0, r1=0.0, r2=0.0)[0]
    )


def _refresh_gbest(swarm: SwarmState) -> None:
    g = min(range(swarm.size), key=lambda i: (swarm.pbest[i].total, i))
    if swarm.pbest[g].total < swarm.gbest.total:
        swarm.gbest = swarm.pbest[g]


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
    unchanged (within ``STALL_TOL``) for ``STALL_ITERS`` consecutive
    iterations, or ``params.max_iter`` is reached (the result is then
    flagged as not converged).  Raises InputError for ``swarm_size`` below 3
    or ``max_iter`` below 1.
    """
    if params is None:
        params = BpsoParams()
    params.check()
    if scorer is None:
        scorer = ConfigScorer(data, task)
    pairs = _candidate_pairs(data, candidates)
    swarm = init_swarm(data, candidates, params, seed, scorer)
    converged = False
    iterations = stall = 0
    for t in range(1, params.max_iter + 1):
        iterations = t
        prev = swarm.gbest.total
        _advance(swarm, data, seed, t, scorer)
        mutate(swarm, data, pairs, seed, t, scorer)
        _refresh_gbest(swarm)
        stall = stall + 1 if prev - swarm.gbest.total <= STALL_TOL else 0
        if stall >= STALL_ITERS:
            converged = True
            break
    return BpsoResult(scored=swarm.gbest, converged=converged, iterations=iterations)
