"""The sparse swarm against the dense bit-matrix update it replaced.

The reference kept here holds every particle, pbest and gbest as a
``(P, n)`` bit matrix and every velocity as a ``(P, n)`` array, and draws
``rng.random((2, P, n))`` per particle and iteration.  ``partwise.bpso``
stores keys, velocities only where they can differ from the shared rest
velocity, and reads the draws it needs by jump-ahead.  Both must give the
same keys, scores, bests and velocities bit for bit, on data with ties and
on candidate sets whose keys ``_make_particle`` has to shrink.
"""

import math

import numpy as np
import pytest

from partwise import BpsoParams, ConfigScorer, Dataset, init_swarm, mutate
from partwise.bpso import (
    A, C1, C2, OMEGA, SHIFT_SPAN, _advance, _candidate_pairs, _refresh_gbest,
)
from partwise.refine import _key_from_pairs


def _rng(seed, stream, iteration, index):
    return np.random.default_rng([seed & 0xFFFFFFFF, stream, iteration, index])


def key_of_bits(bits):
    out = []
    for j in range(bits.shape[0]):
        pos = np.flatnonzero(bits[j])
        if pos.size:
            out.append((j, tuple(int(p) for p in pos)))
    return tuple(out)


def repair(bits, scorer, rng):
    while True:
        key = key_of_bits(bits)
        if scorer.score_key(key) is not None:
            return key
        set_pos = np.argwhere(bits)
        drop = set_pos[int(rng.integers(set_pos.shape[0]))]
        bits[drop[0], drop[1]] = False


def set_snapped(bits, data, j, pos):
    snapped = data.snap_cut(j, pos)
    if snapped is not None:
        bits[j, snapped] = True


def make(bits, rng, scorer):
    key = repair(bits, scorer, rng)
    return [bits, key, scorer.score_key(key).total]


class DenseSwarm:
    """The dense update: particles are ``[bits, key, score]`` lists."""

    def __init__(self, data, candidates, params, seed, scorer):
        self.data, self.params, self.seed, self.scorer = data, params, seed, scorer
        self.pairs = _candidate_pairs(data, candidates)
        P, n = data.P, data.n
        if not self.pairs:
            bits = np.zeros((P, n), dtype=bool)
            self.particles = [make(bits, _rng(seed, 0, 0, 0), scorer)]
        else:
            N = params.swarm_size
            half = math.ceil(N / 2)
            self.particles = []
            for i in range(N):
                rng = _rng(seed, 0, 0, i)
                bits = np.zeros((P, n), dtype=bool)
                if i == 0:
                    for j, pos in self.pairs:
                        bits[j, pos] = True
                elif i < half:
                    keep = rng.random(len(self.pairs)) < 0.5
                    for (j, pos), k in zip(self.pairs, keep):
                        if k:
                            bits[j, pos] = True
                else:
                    keep = rng.random(len(self.pairs)) < 0.5
                    offsets = rng.integers(-SHIFT_SPAN, SHIFT_SPAN + 1, len(self.pairs))
                    for (j, pos), k, off in zip(self.pairs, keep, offsets):
                        if k:
                            set_snapped(bits, data, j, pos + int(off))
                self.particles.append(make(bits, rng, scorer))
        self.velocities = np.zeros((len(self.particles), P, n))
        self.pbest = [[p[0].copy(), p[1], p[2]] for p in self.particles]
        g = min(range(len(self.pbest)), key=lambda i: (self.pbest[i][2], i))
        self.gbest = [self.pbest[g][0].copy(), self.pbest[g][1], self.pbest[g][2]]

    def advance(self, iteration):
        gb = self.gbest[0]
        for i, (bits, _, _) in enumerate(self.particles):
            pb = self.pbest[i][0]
            rng = _rng(self.seed, 1, iteration, i)
            r = rng.random((2,) + bits.shape)
            inner = (
                OMEGA * self.velocities[i]
                + C1 * r[0] * (pb.astype(np.float64) - bits.astype(np.float64))
                + C2 * r[1] * (gb.astype(np.float64) - bits.astype(np.float64))
            )
            v = 1.0 / (1.0 + np.exp(-np.abs(inner)))
            self.velocities[i] = v
            band = 0.5 * (1.0 + A)
            new = np.where(v <= A, bits, np.where(v <= band, pb, gb))
            moved = make(new, rng, self.scorer)
            self.particles[i] = moved
            if moved[2] < self.pbest[i][2]:
                self.pbest[i] = [moved[0].copy(), moved[1], moved[2]]

    def mutate_bits(self, bits, rng):
        out = bits.copy()
        choice = int(rng.integers(3))

        def resize():
            here = {(int(j), int(p)) for j, p in np.argwhere(out)}
            add_pool = [pr for pr in self.pairs if pr not in here]
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
                set_snapped(out, self.data, int(j), int(pos) + int(off))

        if choice in (0, 2):
            resize()
        if choice in (1, 2):
            shift()
        return out

    def mutate(self, iteration):
        N = len(self.particles)
        k = math.ceil(N / 10)
        order = sorted(range(N), key=lambda i: (self.particles[i][2], i))
        for rank, src in enumerate(order[:k]):
            rng = _rng(self.seed, 2, iteration, rank)
            mutant = make(self.mutate_bits(self.particles[src][0], rng), rng, self.scorer)
            slot = order[::-1][rank]
            self.particles[slot] = mutant
            if mutant[2] < self.pbest[slot][2]:
                self.pbest[slot] = [mutant[0].copy(), mutant[1], mutant[2]]

    def refresh(self):
        g = min(range(len(self.pbest)), key=lambda i: (self.pbest[i][2], i))
        if self.pbest[g][2] < self.gbest[2]:
            self.gbest = [self.pbest[g][0].copy(), self.pbest[g][1], self.pbest[g][2]]


def dense_velocities(swarm, data):
    """Every sparse velocity expanded to ``(N, P, n)``."""
    out = np.full((swarm.size, data.P * data.n), swarm.rest_velocity)
    for i, stored in enumerate(swarm.velocities):
        for f, v in stored.items():
            out[i, f] = v
    return out.reshape(swarm.size, data.P, data.n)


def assert_same(sparse, dense, data):
    assert [p.key for p in sparse.particles] == [p[1] for p in dense.particles]
    assert [p.total for p in sparse.particles] == [p[2] for p in dense.particles]
    for p in dense.particles:
        assert key_of_bits(p[0]) == p[1]
    assert [p.key for p in sparse.pbest] == [p[1] for p in dense.pbest]
    assert [p.total for p in sparse.pbest] == [p[2] for p in dense.pbest]
    assert (sparse.gbest.key, sparse.gbest.total) == (dense.gbest[1], dense.gbest[2])
    assert dense_velocities(sparse, data).tobytes() == dense.velocities.tobytes()


def parity_case(seed):
    """A small dataset with a tied predictor, a candidate set and a swarm
    size.  Candidates are clustered a few positions apart, so the full
    candidate key and many of its subsets hold regions of fewer than P rows
    and must be repaired."""
    rng = np.random.default_rng([seed, 23])
    n = int(rng.integers(24, 70))
    P = int(rng.integers(2, 4))
    cols = [rng.uniform(-2.0, 2.0, n) for _ in range(P)]
    cols[-1] = np.round(cols[-1], 1)
    X = np.column_stack(cols)
    y = np.where(X[:, 0] > 0.0, 2.0, -1.0) + 0.5 * X[:, -1] + rng.normal(0.0, 0.5, n)
    data = Dataset(X, y)
    candidates = {}
    for j in range(P):
        cuts = data.cut_positions(j)
        if cuts.size == 0 or rng.random() < 0.2:
            continue
        centre = int(rng.integers(cuts.size))
        near = cuts[max(0, centre - 3): centre + 4]
        picked = rng.choice(near, size=min(near.size, int(rng.integers(1, 5))), replace=False)
        candidates[j] = [data.midpoint(j, int(c)) for c in np.sort(picked)]
    params = BpsoParams(swarm_size=int(rng.integers(3, 14)))
    return data, candidates, params


def run_both(data, candidates, params, seed, iterations):
    sparse_scorer = ConfigScorer(data, "regression")
    dense_scorer = ConfigScorer(data, "regression")
    sparse = init_swarm(data, candidates, params, seed, sparse_scorer)
    dense = DenseSwarm(data, candidates, params, seed, dense_scorer)
    assert_same(sparse, dense, data)
    pairs = _candidate_pairs(data, candidates)
    for t in range(1, iterations + 1):
        _advance(sparse, data, seed, t, sparse_scorer)
        dense.advance(t)
        assert_same(sparse, dense, data)
        mutate(sparse, data, pairs, seed, t, sparse_scorer)
        dense.mutate(t)
        _refresh_gbest(sparse)
        dense.refresh()
        assert_same(sparse, dense, data)
    return sparse, dense


@pytest.mark.parametrize("seed", range(12))
def test_sparse_swarm_matches_dense_reference(seed):
    data, candidates, params = parity_case(seed)
    run_both(data, candidates, params, seed, iterations=10)


def test_cases_exercise_repair_and_revisited_positions():
    # The cases above are only a parity check if keys need repair and if
    # velocities are stored at positions where the three keys agree again.
    repaired = revisited = 0
    for seed in range(12):
        data, candidates, params = parity_case(seed)
        scorer = ConfigScorer(data, "regression")
        repaired += scorer.score_key(_key_from_pairs(_candidate_pairs(data, candidates))) is None
        sparse, _ = run_both(data, candidates, params, seed, iterations=10)
        flat = lambda key: {j * data.n + p for j, ps in key for p in ps}
        gb = flat(sparse.gbest.key)
        for particle, pbest, stored in zip(sparse.particles, sparse.pbest, sparse.velocities):
            x, pb = flat(particle.key), flat(pbest.key)
            revisited += sum((f in x) == (f in pb) == (f in gb) for f in stored)
    assert repaired >= 3
    assert revisited >= 10


def test_empty_candidates_match():
    data, _, params = parity_case(0)
    run_both(data, {}, params, seed=4, iterations=3)
