"""MDL criterion tests, anchored by an independent from-scratch evaluation."""

import math

import numpy as np
import pytest

from partwise import (
    ChangePointConfig,
    Dataset,
    RegionFit,
    fit_region,
    induce_partition,
    mdl_score,
)
from partwise.mdl import SIGMA2_FLOOR
from partwise.simulate import SETTINGS, generate

from conftest import random_config, random_dataset

LOG2 = math.log(2.0)


def reference_mdl(P, n, config, grid, fits, task):
    """From-scratch transliteration of the two-part criterion.

    Kept deliberately naive and separate from the package implementation:
    every term is spelled out with plain Python floats.
    """
    B = len(config.breaks)
    total = B * math.log2(P)
    for b, ts in config.breaks:
        l_b = len(ts)
        seg = grid.segment_counts[list(grid.break_predictors).index(b)]
        term = math.log2(B + 1) + math.log2(l_b + 1)
        for z in range(l_b + 1):
            term += math.log2(int(seg[z]))
        total += term
    R = grid.R
    for r in range(R):
        s_r = int(fits[r].mask.sum())
        n_r = int(grid.region_counts[r])
        total += math.log2(R) + 0.5 * s_r * math.log2(n_r)
    if task == "regression":
        rss = sum(f.fit_stat for f in fits)
        total += 0.5 * n * math.log(max(rss / n, SIGMA2_FLOOR))
    else:
        total += sum(f.fit_stat for f in fits)
    return total


def synthetic_fits(rng, grid, P):
    fits = []
    for r in range(grid.R):
        mask = rng.random(P + 1) < 0.6
        fits.append(
            RegionFit(mask, rng.normal(0, 1, int(mask.sum())), float(rng.uniform(0.1, 40.0)))
        )
    return fits


class TestHandExample:
    def test_printed_term_values(self):
        # P=4, B=2, one threshold each, n=200, balanced segments, R=4,
        # n_r=50, full masks (s_r=5), total RSS = n so sigma2_hat = 1.
        n, P = 200, 4
        rng = np.random.default_rng(0)
        X = np.empty((n, P))
        X[:, 0] = np.concatenate([rng.uniform(0, 1, 100), rng.uniform(2, 3, 100)])
        X[:, 1] = rng.uniform(0, 1, n)
        X[:, 2] = np.tile(
            np.concatenate([rng.uniform(0, 1, 50), rng.uniform(2, 3, 50)]), 2
        )
        X[:, 3] = rng.uniform(0, 1, n)
        order = rng.permutation(n)
        X = X[order]
        d = Dataset(X, np.zeros(n))
        config = ChangePointConfig({0: [1.5], 2: [1.5]})
        grid = induce_partition(d, config)
        assert grid.segment_counts[0].tolist() == [100, 100]
        assert grid.segment_counts[1].tolist() == [100, 100]
        assert grid.region_counts.tolist() == [50, 50, 50, 50]
        fits = [
            RegionFit(np.ones(P + 1, dtype=bool), np.zeros(P + 1), 50.0)
            for _ in range(4)
        ]
        got = mdl_score(d, grid, fits, "regression")
        assert got.predictor_code == pytest.approx(4.0, abs=1e-12)
        assert got.per_predictor_code == pytest.approx(31.74534976054121, abs=1e-9)
        assert got.region_param_code == pytest.approx(64.43856189774724, abs=1e-9)
        assert got.residual_code == pytest.approx(0.0, abs=1e-9)
        assert got.total == pytest.approx(100.18391165828845, abs=1e-9)

    def test_no_break_collapse(self):
        d = random_dataset(8, n=64, P=3)
        config = ChangePointConfig({})
        grid = induce_partition(d, config)
        fits = [RegionFit(np.ones(4, dtype=bool), np.zeros(4), 64.0)]
        got = mdl_score(d, grid, fits, "regression")
        assert got.predictor_code == 0.0
        assert got.per_predictor_code == 0.0
        assert got.region_param_code == pytest.approx(2.0 * math.log2(64))
        assert got.residual_code == pytest.approx(0.0)  # sigma2_hat = 1

    def test_binary_null_residual(self):
        d = random_dataset(9, n=50, P=2, binary=True)
        config = ChangePointConfig({})
        grid = induce_partition(d, config)
        null = fit_region(d, np.arange(d.n), np.zeros(3, dtype=bool), "logistic")
        got = mdl_score(d, grid, [null], "logistic")
        assert got.residual_code == pytest.approx(50 * LOG2, rel=1e-12)

    def test_structural_terms_shared_between_criteria(self):
        rng = np.random.default_rng(21)
        d = random_dataset(10, n=80, P=3, binary=True)
        cfg = random_config(d, rng, max_breaks=2, max_cuts=1)
        grid = induce_partition(d, cfg)
        fits = synthetic_fits(rng, grid, d.P)
        a = mdl_score(d, grid, fits, "regression")
        b = mdl_score(d, grid, fits, "logistic")
        assert a.predictor_code == b.predictor_code
        assert a.per_predictor_code == b.per_predictor_code
        assert a.region_param_code == b.region_param_code

    def test_total_is_sum_of_parts(self):
        rng = np.random.default_rng(33)
        d = random_dataset(12, n=70, P=4)
        cfg = random_config(d, rng)
        grid = induce_partition(d, cfg)
        fits = synthetic_fits(rng, grid, d.P)
        got = mdl_score(d, grid, fits, "regression")
        parts = (
            got.predictor_code
            + got.per_predictor_code
            + got.region_param_code
            + got.residual_code
        )
        assert got.total == pytest.approx(parts, abs=1e-12)


class TestFormulaOracle:
    @pytest.mark.parametrize("task", ["regression", "logistic"])
    def test_matches_reference_on_random_instances(self, task):
        rng = np.random.default_rng(4242)
        for trial in range(250):
            d = random_dataset(trial % 11, n=int(rng.integers(30, 90)), P=3)
            cfg = random_config(d, rng)
            grid = induce_partition(d, cfg)
            if grid.region_counts.min() < 1:
                continue
            fits = synthetic_fits(rng, grid, d.P)
            got = mdl_score(d, grid, fits, task).total
            want = reference_mdl(d.P, d.n, cfg, grid, fits, task)
            assert got == pytest.approx(want, abs=1e-9)

    def test_scaling_preserves_ranking(self):
        # argmin over configs is invariant to the 2/n monotone rescaling
        rng = np.random.default_rng(77)
        d = random_dataset(5, n=60, P=3)
        totals = []
        for _ in range(20):
            cfg = random_config(d, rng)
            grid = induce_partition(d, cfg)
            if grid.region_counts.min() < 1:
                continue
            fits = synthetic_fits(rng, grid, d.P)
            totals.append(mdl_score(d, grid, fits, "regression").total)
        scaled = [2.0 / d.n * t for t in totals]
        assert np.argmin(totals) == np.argmin(scaled)


class TestInvariances:
    def test_observation_permutation_invariance(self):
        rng = np.random.default_rng(3)
        d = random_dataset(6, n=50, P=3)
        cfg = random_config(rng=np.random.default_rng(10), data=d)
        grid = induce_partition(d, cfg)
        fits = synthetic_fits(rng, grid, d.P)
        base = mdl_score(d, grid, fits, "regression").total
        perm = np.random.default_rng(9).permutation(d.n)
        d2 = Dataset(d.X[perm], d.y[perm])
        grid2 = induce_partition(d2, cfg)
        # same fit stats attach to the same regions (region order is canonical)
        assert np.array_equal(np.sort(grid.region_counts), np.sort(grid2.region_counts))
        got = mdl_score(d2, grid2, fits, "regression").total
        assert got == pytest.approx(base, abs=1e-9)

    def test_spurious_cut_never_shrinks_structure(self):
        # adding a threshold (all segment counts >= 2) cannot reduce the
        # structural (non-residual) part when fits stay saturated
        rng = np.random.default_rng(8)
        found = 0
        for trial in range(60):
            d = random_dataset(trial, n=60, P=3)
            cfg = random_config(d, rng, max_breaks=1, max_cuts=1)
            grid = induce_partition(d, cfg)
            full = np.ones(d.P + 1, dtype=bool)
            fits = [RegionFit(full, np.zeros(d.P + 1), 1.0) for _ in range(grid.R)]
            base = mdl_score(d, grid, fits, "regression")
            cuts = data_free = [
                c
                for c in d.cut_positions(0)
                if all(
                    abs(c - d.cut_of_threshold(0, t)) > 2 for t in cfg.thresholds(0)
                )
            ]
            if not data_free:
                continue
            t_new = d.midpoint(0, int(cuts[len(cuts) // 2]))
            bks = cfg.as_dict()
            bks[0] = tuple(sorted(set(bks.get(0, ())) | {t_new}))
            cfg2 = ChangePointConfig(bks)
            grid2 = induce_partition(d, cfg2)
            if grid2.region_counts.min() < 2 or any(
                sc.min() < 2 for sc in grid2.segment_counts
            ):
                continue
            fits2 = [RegionFit(full, np.zeros(d.P + 1), 1.0) for _ in range(grid2.R)]
            new = mdl_score(d, grid2, fits2, "regression")
            base_struct = base.total - base.residual_code
            new_struct = new.total - new.residual_code
            assert new_struct >= base_struct - 1e-9
            found += 1
        assert found >= 20

    def test_degenerate_zero_rss_floor(self):
        d = random_dataset(14, n=40, P=2)
        cfg = ChangePointConfig({})
        grid = induce_partition(d, cfg)
        fits = [RegionFit(np.ones(3, dtype=bool), np.zeros(3), 0.0)]
        got = mdl_score(d, grid, fits, "regression")
        assert got.residual_code == pytest.approx(
            0.5 * d.n * math.log(SIGMA2_FLOOR)
        )


def test_truth_beats_no_break_on_cls2_draws():
    # At maximum likelihood fits, the binary criterion at the true
    # configuration should beat the no-break configuration on nearly all
    # moderately sized draws.
    wins = 0
    trials = 20
    setting = SETTINGS["cls2"]
    for i in range(trials):
        rng = np.random.default_rng([i, 555])
        d = generate(setting, 400, rng, link="logistic")
        rows = np.arange(d.n)
        full = np.ones(d.P + 1, dtype=bool)

        cfg_true = setting.true_config()
        grid_true = induce_partition(d, cfg_true)
        fits_true = [
            fit_region(d, m, full, "logistic")
            for m in grid_true.memberships
        ]
        at_truth = mdl_score(d, grid_true, fits_true, "logistic").total

        cfg0 = ChangePointConfig({})
        grid0 = induce_partition(d, cfg0)
        fit0 = fit_region(d, rows, full, "logistic")
        at_null = mdl_score(d, grid0, [fit0], "logistic").total
        wins += at_truth < at_null
    assert wins >= 0.95 * trials
