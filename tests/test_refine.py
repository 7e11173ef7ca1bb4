import itertools
import math

import numpy as np

from partwise import (
    ChangePointConfig,
    Dataset,
    final_adjust,
    induce_partition,
    mdl_regression,
    select_features,
)
from partwise.fitting import RegionDesign
from partwise.mdl import SIGMA2_FLOOR
from partwise.refine import ConfigScorer, _key_from_pairs, _masks_for

from conftest import random_config, random_dataset


def exhaustive_selection_oracle(data, grid, task="regression"):
    """Independent oracle: minimize the full criterion over the cross
    product of all per-region masks (feasible only for small R and P)."""
    designs = [RegionDesign(data, rows, task) for rows in grid.memberships]
    menus = []
    for d_r in designs:
        entries = []
        for mask_int, cols, s, bools, ix in _masks_for(data.P + 1):
            res = d_r.fit_mask(mask_int, cols, ix)
            if res is not None:
                entries.append((s, bools, res[1]))
        menus.append(entries)
    best = (np.inf, None)
    n = data.n
    for combo in itertools.product(*menus):
        total = 0.0
        for (s, _, stat), d_r in zip(combo, designs):
            total += 0.5 * s * math.log2(d_r.n_r)
        if task == "regression":
            rss = sum(stat for (_, _, stat) in combo)
            total += 0.5 * n * math.log(max(rss / n, SIGMA2_FLOOR))
        else:
            total += sum(stat for (_, _, stat) in combo)
        if total < best[0]:
            best = (total, tuple(b for (_, b, _) in combo))
    return best


class TestSelectFeatures:
    def test_single_region_matches_exhaustive(self):
        rng = np.random.default_rng(0)
        n = 200
        X = rng.uniform(-1, 1, (n, 3))
        y = 3.0 * X[:, 1] + rng.normal(0, 0.5, n)  # depends only on x2
        d = Dataset(X, y)
        grid = induce_partition(d, ChangePointConfig({}))
        got = select_features(d, "regression", grid)
        _, want_masks = exhaustive_selection_oracle(d, grid)
        assert tuple(bool(b) for b in got.masks[0]) == tuple(
            bool(b) for b in want_masks[0]
        )
        assert got.masks[0].tolist() == [False, False, True, False]

    def test_two_decoupled_regions_match_exhaustive(self):
        rng = np.random.default_rng(1)
        n = 120
        x1 = np.concatenate([rng.uniform(0, 1, n // 2), rng.uniform(2, 3, n // 2)])
        x2 = rng.uniform(-1, 1, n)
        lo = x1 <= 1.5
        y = np.where(lo, 2.0 + 1.5 * x2, -1.0)
        y = y + rng.normal(0, 0.4, n)
        d = Dataset(np.column_stack([x1, x2]), y)
        grid = induce_partition(d, ChangePointConfig({0: [1.5]}))
        got = select_features(d, "regression", grid)
        _, want_masks = exhaustive_selection_oracle(d, grid)
        for m_got, m_want in zip(got.masks, want_masks):
            assert tuple(bool(b) for b in m_got) == tuple(bool(b) for b in m_want)

    def test_classification_regions_decouple(self):
        rng = np.random.default_rng(2)
        n = 160
        x1 = np.concatenate([rng.uniform(0, 1, n // 2), rng.uniform(2, 3, n // 2)])
        x2 = rng.uniform(-2, 2, n)
        lo = x1 <= 1.5
        t = np.where(lo, 2.5 * x2, -0.3)
        y = (rng.random(n) < 1 / (1 + np.exp(-t))).astype(float)
        d = Dataset(np.column_stack([x1, x2]), y)
        grid = induce_partition(d, ChangePointConfig({0: [1.5]}))
        got = select_features(d, "logistic", grid)
        _, want_masks = exhaustive_selection_oracle(d, grid, task="logistic")
        for m_got, m_want in zip(got.masks, want_masks):
            assert tuple(bool(b) for b in m_got) == tuple(bool(b) for b in m_want)

    def test_never_worse_than_full_mask(self):
        rng = np.random.default_rng(3)
        for trial in range(12):
            d = random_dataset(trial, n=90, P=3)
            cfg = random_config(d, rng, max_breaks=1, max_cuts=1)
            grid = induce_partition(d, cfg)
            if grid.region_counts.min() < d.P + 2:
                continue
            sel = select_features(d, "regression", grid)
            from partwise.fitting import FitRequest, fit_ols

            full = np.ones(d.P + 1, dtype=bool)
            fits = [
                fit_ols(d, FitRequest(rows, full, "regression"))
                for rows in grid.memberships
            ]
            full_total = mdl_regression(d, cfg, grid, fits).total
            assert sel.total <= full_total + 1e-9

    def test_deterministic(self):
        d = random_dataset(5, n=80, P=3)
        grid = induce_partition(d, ChangePointConfig({0: [d.midpoint(0, 40)]}))
        a = select_features(d, "regression", grid)
        b = select_features(d, "regression", grid)
        assert a.total == b.total
        for ma, mb in zip(a.masks, b.masks):
            assert np.array_equal(ma, mb)


class TestFinalAdjust:
    def _scored(self, d, cfg, task="regression"):
        scorer = ConfigScorer(d, task)
        return scorer, scorer.score_config(cfg)

    def test_no_change_points_identity(self):
        d = random_dataset(6, n=60, P=2)
        scorer = ConfigScorer(d, "regression")
        out = final_adjust(d, "regression", ChangePointConfig({}), scorer=scorer)
        assert out.config.B == 0
        assert scorer.evaluations == 1

    def test_two_points_evaluates_all_four_subsets(self):
        rng = np.random.default_rng(7)
        x1 = rng.uniform(0, 1, 80)
        x2 = rng.uniform(0, 1, 80)
        y = (
            np.where(x1 <= 0.5, 0.0, 4.0)
            + np.where(x2 <= 0.5, 0.0, -3.0)
            + rng.normal(0, 0.3, 80)
        )
        d = Dataset(np.column_stack([x1, x2]), y)
        c1 = d.midpoint(0, d.snap_cut(0, 39))
        c2 = d.midpoint(1, d.snap_cut(1, 39))
        cfg = ChangePointConfig({0: [c1], 1: [c2]})
        scorer = ConfigScorer(d, "regression")
        final_adjust(d, "regression", cfg, shift_radius=0 or 1, scorer=scorer)
        p1 = (0, d.cut_of_threshold(0, c1))
        p2 = (1, d.cut_of_threshold(1, c2))
        for sub in [(), (p1,), (p2,), (p1, p2)]:
            assert _key_from_pairs(list(sub)) in scorer._cache

    def test_never_increases_mdl(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            d = random_dataset(trial + 50, n=70, P=3)
            cfg = random_config(d, rng, max_breaks=2, max_cuts=1)
            scorer = ConfigScorer(d, "regression")
            key = scorer.key_of_config(cfg)
            if not scorer.feasible(key):
                continue
            before = scorer.score_key(key).total
            out = final_adjust(d, "regression", cfg, scorer=scorer)
            assert out.total <= before + 1e-12

    def test_shifts_can_improve(self):
        rng = np.random.default_rng(9)
        x = np.sort(rng.uniform(0, 1, 100))
        y = np.where(x <= x[49] + 1e-9, 0.0, 5.0) + rng.normal(0, 0.2, 100)
        d = Dataset(x.reshape(-1, 1), y)
        off = d.midpoint(0, d.snap_cut(0, 47))  # two positions left of truth
        cfg = ChangePointConfig({0: [off]})
        scorer = ConfigScorer(d, "regression")
        before = scorer.score_config(cfg).total
        out = final_adjust(d, "regression", cfg, shift_radius=2, scorer=scorer)
        assert out.total <= before
        assert out.key == ((0, (49,)),)
