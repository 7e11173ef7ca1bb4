import itertools
import math

import numpy as np
import pytest

from partwise import (
    BpsoParams,
    Dataset,
    induce_partition,
    init_swarm,
    run_bpso,
    update_particle_bit,
    update_velocity,
)
from partwise.bpso import _candidate_pairs, mutate
from partwise.refine import ConfigScorer, _key_from_pairs
import partwise.bpso as bpso_mod


def step_data(seed=0, n=48):
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(0, 1, n)
    x2 = rng.uniform(0, 1, n)
    y = np.where(x1 <= 0.5, 1.0, 6.0) + 0.8 * x2 + rng.normal(0, 0.4, n)
    return Dataset(np.column_stack([x1, x2]), y)


class TestVelocity:
    def test_stationary_particle_half(self):
        assert update_velocity(0.0, 0, 0, 0, r1=0.3, r2=0.9) == 0.5

    def test_hand_worked_example(self):
        v = update_velocity(0.0, 0, 1, 1, omega=1.0, c1=2.0, c2=2.0, r1=0.5, r2=0.5)
        assert v == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-12)
        assert v == pytest.approx(0.8807970779778823, abs=1e-12)

    def test_range_half_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            v_prev = float(rng.uniform(0, 1))
            bits = [int(rng.integers(2)) for _ in range(3)]
            r1, r2 = rng.random(2)
            v = update_velocity(v_prev, *bits, r1=r1, r2=r2)
            assert 0.5 <= v < 1.0

    def test_array_call_matches_scalar_oracles(self):
        # The stationary particle and the hand-worked example above, side
        # by side in one array call.
        v = update_velocity(
            np.zeros(2),
            np.zeros(2),
            np.array([0.0, 1.0]),
            np.array([0.0, 1.0]),
            r1=np.array([0.3, 0.5]),
            r2=np.array([0.9, 0.5]),
        )
        assert v[0] == 0.5
        assert v[1] == pytest.approx(0.8807970779778823, abs=1e-12)


class TestParticleBit:
    def test_keep_own_bit_at_boundary(self):
        assert update_particle_bit(1, 0, 0, 0.5, a=0.5) == 1

    def test_middle_band_takes_pbest(self):
        assert update_particle_bit(0, 1, 0, 0.6, a=0.5) == 1

    def test_top_band_takes_gbest(self):
        assert update_particle_bit(0, 1, 1, 0.8807970779778823, a=0.5) == 1
        assert update_particle_bit(0, 0, 1, 0.76, a=0.5) == 1

    def test_band_edges(self):
        assert update_particle_bit(1, 0, 0, 0.75, a=0.5) == 0  # pbest band edge
        assert update_particle_bit(1, 1, 0, 0.7500001, a=0.5) == 0  # gbest band

    def test_array_call_matches_scalar_oracles(self):
        # Every scalar case above, one element each.
        got = update_particle_bit(
            np.array([1, 0, 0, 0, 1, 1]),
            np.array([0, 1, 1, 0, 0, 1]),
            np.array([0, 0, 1, 1, 0, 0]),
            np.array([0.5, 0.6, 0.8807970779778823, 0.76, 0.75, 0.7500001]),
            a=0.5,
        )
        assert got.tolist() == [1, 1, 1, 1, 0, 0]


class TestInitSwarm:
    def test_particle_one_encodes_all_candidates(self):
        d = step_data()
        cands = {0: [d.midpoint(0, int(d.cut_positions(0)[23]))],
                 1: [d.midpoint(1, int(d.cut_positions(1)[15])),
                     d.midpoint(1, int(d.cut_positions(1)[31]))]}
        scorer = ConfigScorer(d, "regression")
        params = BpsoParams(swarm_size=4)
        swarm = init_swarm(d, cands, params, seed=0, scorer=scorer)
        assert swarm.size == 4
        pairs = _candidate_pairs(d, cands)
        expect = _key_from_pairs(pairs)
        assert swarm.particles[0].key == expect
        assert sum(len(ps) for _, ps in swarm.particles[0].key) == 3

    def test_empty_candidates_single_zero_particle(self):
        d = step_data()
        scorer = ConfigScorer(d, "regression")
        swarm = init_swarm(d, {}, BpsoParams(), seed=1, scorer=scorer)
        assert swarm.size == 1
        assert swarm.gbest.key == ()

    def test_velocities_start_at_zero(self):
        d = step_data()
        cands = {0: [d.midpoint(0, int(d.cut_positions(0)[10]))]}
        scorer = ConfigScorer(d, "regression")
        swarm = init_swarm(d, cands, BpsoParams(swarm_size=6), seed=2, scorer=scorer)
        assert swarm.rest_velocity == 0.0
        assert swarm.velocities == [{} for _ in range(swarm.size)]

    def test_bit_identical_across_runs(self):
        d = step_data()
        cands = {0: [d.midpoint(0, int(c)) for c in d.cut_positions(0)[[4, 18]]],
                 1: [d.midpoint(1, int(d.cut_positions(1)[9]))]}
        keys = []
        for _ in range(2):
            scorer = ConfigScorer(d, "regression")
            swarm = init_swarm(d, cands, BpsoParams(swarm_size=10), seed=7, scorer=scorer)
            keys.append([p.key for p in swarm.particles])
        assert keys[0] == keys[1]

    def test_constraint_respected(self):
        d = step_data()
        cuts = d.cut_positions(0)
        cands = {0: [d.midpoint(0, int(c)) for c in cuts[[0, 1, 2, 3]]]}
        scorer = ConfigScorer(d, "regression")
        swarm = init_swarm(d, cands, BpsoParams(swarm_size=8), seed=3, scorer=scorer)
        for p in swarm.particles:
            assert scorer.score_key(p.key) is not None


class TestMutate:
    def _swarm(self, seed=0, N=10):
        d = step_data(seed)
        cands = {0: [d.midpoint(0, int(c)) for c in d.cut_positions(0)[[6, 20]]],
                 1: [d.midpoint(1, int(d.cut_positions(1)[12]))]}
        scorer = ConfigScorer(d, "regression")
        swarm = init_swarm(d, cands, BpsoParams(swarm_size=N), seed=seed, scorer=scorer)
        return d, cands, scorer, swarm

    def test_replaces_one_particle_when_n_10(self):
        d, cands, scorer, swarm = self._swarm(N=10)
        pairs = _candidate_pairs(d, cands)
        before = [p.key for p in swarm.particles]
        mutate(swarm, d, pairs, seed=0, iteration=1, scorer=scorer)
        after = [p.key for p in swarm.particles]
        assert sum(a != b for a, b in zip(before, after)) <= 1

    def test_constraint_and_gbest_monotone(self):
        for seed in range(6):
            d, cands, scorer, swarm = self._swarm(seed=seed, N=10)
            pairs = _candidate_pairs(d, cands)
            g0 = swarm.gbest.total
            mutate(swarm, d, pairs, seed=seed, iteration=1, scorer=scorer)
            bpso_mod._refresh_gbest(swarm)
            assert swarm.gbest.total <= g0 + 1e-12
            for p in swarm.particles:
                assert scorer.score_key(p.key) is not None


class TestScoredRecords:
    """The swarm's one record of a scored key is the scorer's cached object."""

    def _case(self):
        d = step_data(3)
        cands = {0: [d.midpoint(0, int(c)) for c in d.cut_positions(0)[[8, 22]]],
                 1: [d.midpoint(1, int(d.cut_positions(1)[15]))]}
        return d, cands

    def test_particles_and_bests_are_cached_objects(self):
        d, cands = self._case()
        scorer = ConfigScorer(d, "regression")
        swarm = init_swarm(d, cands, BpsoParams(swarm_size=12), seed=5, scorer=scorer)
        pairs = _candidate_pairs(d, cands)
        for t in range(1, 5):
            for p in swarm.particles + swarm.pbest + [swarm.gbest]:
                assert scorer.score_key(p.key) is p
            bpso_mod._advance(swarm, d, 5, t, scorer)
            mutate(swarm, d, pairs, seed=5, iteration=t, scorer=scorer)
            bpso_mod._refresh_gbest(swarm)
        for p in swarm.particles + swarm.pbest + [swarm.gbest]:
            assert scorer.score_key(p.key) is p

    def test_result_is_the_swarms_gbest(self, monkeypatch):
        d, cands = self._case()
        swarms = []
        init = bpso_mod.init_swarm

        def recording_init(*args, **kwargs):
            swarms.append(init(*args, **kwargs))
            return swarms[-1]

        monkeypatch.setattr(bpso_mod, "init_swarm", recording_init)
        scorer = ConfigScorer(d, "regression")
        res = run_bpso(d, "regression", cands, BpsoParams(swarm_size=12), seed=5, scorer=scorer)
        assert len(swarms) == 1
        assert res.scored is swarms[0].gbest
        assert scorer.score_key(res.scored.key) is res.scored


class TestRunBpso:
    def test_empty_candidates_quick_exit(self):
        d = step_data()
        res = run_bpso(d, "regression", {}, BpsoParams(), seed=0)
        assert res.scored.config.B == 0
        assert res.converged
        assert res.iterations <= 6

    def test_gbest_monotone_and_deterministic(self):
        d = step_data(3)
        cands = {0: [d.midpoint(0, int(c)) for c in d.cut_positions(0)[[8, 22]]],
                 1: [d.midpoint(1, int(d.cut_positions(1)[15]))]}
        scores = []
        keys = []
        for _ in range(2):
            scorer = ConfigScorer(d, "regression")
            params = BpsoParams(swarm_size=12)
            swarm = init_swarm(d, cands, params, seed=5, scorer=scorer)
            pairs = _candidate_pairs(d, cands)
            g = [swarm.gbest.total]
            for t in range(1, 8):
                bpso_mod._advance(swarm, d, 5, t, scorer)
                mutate(swarm, d, pairs, seed=5, iteration=t, scorer=scorer)
                bpso_mod._refresh_gbest(swarm)
                g.append(swarm.gbest.total)
            assert all(b <= a + 1e-12 for a, b in zip(g, g[1:]))
            scores.append(tuple(g))
            keys.append(swarm.gbest.key)
        assert scores[0] == scores[1]
        assert keys[0] == keys[1]

    def test_final_score_not_above_full_candidate_particle(self):
        d = step_data(4)
        cands = {0: [d.midpoint(0, int(c)) for c in d.cut_positions(0)[[5, 25]]]}
        scorer = ConfigScorer(d, "regression")
        full_key = _key_from_pairs(_candidate_pairs(d, cands))
        res = run_bpso(d, "regression", cands, BpsoParams(swarm_size=8), seed=2, scorer=scorer)
        if scorer.score_key(full_key) is not None:
            assert res.scored.total <= scorer.score_key(full_key).total + 1e-12

    def test_every_scored_particle_satisfies_constraint(self):
        d = step_data(6)
        cands = {0: [d.midpoint(0, int(c)) for c in d.cut_positions(0)[[2, 9, 30]]]}
        scorer = ConfigScorer(d, "regression")
        res = run_bpso(d, "regression", cands, BpsoParams(swarm_size=10, max_iter=15), seed=9, scorer=scorer)
        for key, scored in scorer._cache.items():
            if scored is not None:
                assert induce_partition(d, scored.config).region_counts.min() >= d.P
        assert scorer.score_key(res.scored.key) is not None

    def test_tiny_exhaustive_oracle_smoke(self):
        # full 100-instance version lives in the acceptance suite
        for seed in range(5):
            rng = np.random.default_rng([seed, 31])
            n = 40
            x1 = rng.integers(0, 3, n).astype(float)
            x2 = rng.integers(0, 2, n).astype(float)
            X = np.column_stack([x1, x2])
            y = np.where(X[:, 0] <= 1.0, 2.0 - 2.0 * X[:, 1], -2.0 + 2.0 * X[:, 1])
            y = y + rng.normal(0, 0.7, n)
            d = Dataset(X, y)
            from partwise import final_adjust, scan_candidates

            cands = scan_candidates(d, "regression", max_per_predictor=2,
                                    min_segment=4)
            pairs = _candidate_pairs(d, cands)
            scorer = ConfigScorer(d, "regression")
            best = np.inf
            for r in range(len(pairs) + 1):
                for sub in itertools.combinations(pairs, r):
                    key = _key_from_pairs(list(sub))
                    if scorer.score_key(key) is not None:
                        best = min(best, scorer.score_key(key).total)
            res = run_bpso(d, "regression", cands, BpsoParams(), seed=seed, scorer=scorer)
            adj = final_adjust(d, "regression", res.scored.config, scorer=scorer)
            assert adj.total >= best - 1e-9
            assert adj.total == pytest.approx(best, abs=1e-9)
