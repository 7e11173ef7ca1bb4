import itertools
import math
from functools import partial

import numpy as np
import pytest

import partwise.refine
from partwise import (
    ChangePointConfig,
    Dataset,
    FitParams,
    final_adjust,
    fit_model,
    fit_region,
    induce_partition,
    mdl_score,
    select_features,
)
from partwise.fitting import RegionDesign, single_class_fit
from partwise.mdl import SIGMA2_FLOOR, residual_bits
from partwise.model import InputError, RegionFit
from partwise.refine import (
    BOUND_MARGIN,
    ConfigScorer,
    _bounded_menus,
    _choice_path,
    _joint_choice,
    _key_from_pairs,
    _masks_for,
    _region_menu,
    _stacked_menus,
)
from partwise.simulate import SETTINGS, generate, trial_rng

from conftest import random_config, random_dataset, wide_reg1


def exhaustive_selection_oracle(data, grid, task="regression"):
    """Independent oracle: minimize the full criterion over the cross
    product of all per-region masks (feasible only for small R and P)."""
    designs = [RegionDesign(data, rows, task) for rows in grid.memberships]
    menus = []
    for d_r in designs:
        entries = []
        for _, cols, s, bools, ix in _masks_for(data.P + 1):
            res = d_r.fit_mask(cols, ix)
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
        got_mask = got.fits[0].mask
        assert tuple(bool(b) for b in got_mask) == tuple(
            bool(b) for b in want_masks[0]
        )
        assert got_mask.tolist() == [False, False, True, False]

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
        for m_got, m_want in zip([f.mask for f in got.fits], want_masks):
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
        for m_got, m_want in zip([f.mask for f in got.fits], want_masks):
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
            full = np.ones(d.P + 1, dtype=bool)
            fits = [
                fit_region(d, rows, full, "regression")
                for rows in grid.memberships
            ]
            full_total = mdl_score(d, grid, fits, "regression").total
            assert sel.total <= full_total + 1e-9

    def test_deterministic(self):
        d = random_dataset(5, n=80, P=3)
        grid = induce_partition(d, ChangePointConfig({0: [d.midpoint(0, 40)]}))
        a = select_features(d, "regression", grid)
        b = select_features(d, "regression", grid)
        assert a.total == b.total
        for ma, mb in zip([f.mask for f in a.fits], [f.mask for f in b.fits]):
            assert np.array_equal(ma, mb)

    @pytest.mark.parametrize(
        "setting, task", [("cls2", "logistic"), ("cls1", "probit")]
    )
    def test_rescores_a_fitted_partition_as_the_search_did(self, setting, task):
        # select_features builds its menus through the scorer's path builder,
        # so the fitted model's own partition scores what the search scored.
        d = generate(SETTINGS[setting], 400, trial_rng(0, 0), link=task)
        model = fit_model(d, task, FitParams(seed=3)).model
        got = select_features(d, task, induce_partition(d, model.config))
        assert got.total == model.mdl.total
        assert [f.mask.tolist() for f in got.fits] == [
            f.mask.tolist() for f in model.region_fits
        ]

    @pytest.mark.parametrize("task", ["banana", "probit"])
    def test_rejects_a_task_the_response_does_not_fit(self, task):
        # An unknown task name, and a binary link on a Gaussian response.
        d = random_dataset(6, n=60, P=2)
        grid = induce_partition(d, ChangePointConfig({0: [d.midpoint(0, 30)]}))
        with pytest.raises(InputError):
            select_features(d, task, grid)


class TestFinalAdjust:
    def _scored(self, d, cfg, task="regression"):
        scorer = ConfigScorer(d, task)
        return scorer, scorer.score_key(scorer.key_of_config(cfg))

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
        final_adjust(d, "regression", cfg, scorer=scorer)
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
            if scorer.score_key(key) is None:
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
        before = scorer.score_key(scorer.key_of_config(cfg)).total
        out = final_adjust(d, "regression", cfg, scorer=scorer)
        assert out.total <= before
        assert out.key == ((0, (49,)),)


# -- the bounded mask walk of logistic and probit regions ---------------------


def unbounded_selection(data, grid, task):
    """Every mask of every region fitted; each region takes the first mask in
    (popcount, lex) order with the least ``s * log2(n_r) / 2 + NLL``.

    A logistic or probit region's value does not depend on the other
    regions, so this per-region argmin is the exact joint minimum, and on a
    tie the mask with fewer columns, as ``select_features`` chooses."""
    n_params = data.P + 1
    fits = []
    for rows in grid.memberships:
        design = RegionDesign(data, rows, task)
        if design.single_class:
            b0, nll = single_class_fit(task, design.y)
            intercept = np.zeros(n_params, dtype=bool)
            intercept[0] = True
            fits.append(RegionFit(intercept, np.array([b0]), nll, stabilized=True))
            continue
        half_log2n = 0.5 * math.log2(rows.size)
        best, best_val = None, np.inf
        for _, cols, s, bools, ix in sorted(
            _masks_for(n_params), key=lambda e: (e[2], e[3])
        ):
            beta, stat, stab = design.fit_mask(cols, ix)
            if s * half_log2n + stat < best_val:
                best_val = s * half_log2n + stat
                mask = np.array(bools, dtype=bool)
                best = RegionFit(mask, beta, stat, stabilized=stab)
        fits.append(best)
    return fits, mdl_score(data, grid, fits, task).total


def _special_regions_dataset(seed, n=120):
    """Three regions on x1: a single-class one, one separated by x2, and one
    with a noisy dependence on x2 and x3."""
    rng = np.random.default_rng(seed)
    x1 = np.concatenate([rng.uniform(0, 1, n // 3), rng.uniform(2, 3, n // 3),
                         rng.uniform(4, 5, n - 2 * (n // 3))])
    x2 = rng.uniform(-2, 2, n)
    x3 = rng.uniform(-2, 2, n)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(1.5 * x2 - x3)))).astype(float)
    y[x1 <= 1.5] = 1.0
    sep = (x1 > 1.5) & (x1 <= 3.5)
    y[sep] = (x2[sep] > 0.2).astype(float)
    d = Dataset(np.column_stack([x1, x2, x3]), y)
    return d, induce_partition(d, ChangePointConfig({0: [1.5, 3.5]}))


def _bounded_cases():
    rng = np.random.default_rng(31)
    cases = []
    for task in ("logistic", "probit"):
        for seed in range(2):
            cases.append((task,) + _special_regions_dataset(seed))
        seed = 200
        while sum(c[0] == task for c in cases) < 17:
            seed += 1
            d = random_dataset(seed, n=int(rng.choice([40, 90, 160])), P=3, binary=True)
            grid = induce_partition(d, random_config(d, rng, max_breaks=2, max_cuts=1))
            if grid.region_counts.min() >= 8:
                cases.append((task, d, grid))
    return cases


def one_region_walk(design, n_params):
    """``_bounded_menus`` of one region, fitting each mask only when the walk
    asks for it, through ``RegionDesign.fit_mask``."""
    (menu,) = _bounded_menus(
        [design.n_r],
        n_params,
        lambda asked: lambda i: design.fit_mask(asked[i][1][1], asked[i][1][4]),
    )
    return menu


def scalar_stacked_menus(data, task, regions):
    """``_stacked_menus`` with each region walked on its own by
    ``one_region_walk``: the bounded walk on the scalar kernel that
    ``unbounded_selection`` fits with."""
    return [one_region_walk(RegionDesign(data, rows, task), data.P + 1) for rows in regions]


class TestBoundedMenu:
    def test_matches_unbounded_enumeration_bitwise(self, monkeypatch):
        # The walk and the full enumeration fit through the same scalar
        # kernel, so the choice must agree bit for bit; the stacked kernel
        # the search runs must choose the same masks.
        kinds = {"single_class": 0, "stabilized": 0}
        cases = _bounded_cases()
        assert len(cases) >= 30
        for task, d, grid in cases:
            stacked = select_features(d, task, grid)
            with monkeypatch.context() as m:
                m.setattr(partwise.refine, "_stacked_menus", scalar_stacked_menus)
                got = select_features(d, task, grid)
            want_fits, want_total = unbounded_selection(d, grid, task)
            assert got.total == want_total
            assert [f.mask.tolist() for f in stacked.fits] == [
                f.mask.tolist() for f in want_fits
            ]
            assert [f.stabilized for f in stacked.fits] == [f.stabilized for f in want_fits]
            for g, w in zip(got.fits, want_fits):
                assert g.mask.tolist() == w.mask.tolist()
                assert g.beta.tobytes() == w.beta.tobytes()
                assert np.float64(g.fit_stat).tobytes() == np.float64(
                    w.fit_stat
                ).tobytes()
                assert g.stabilized == w.stabilized
            designs = [RegionDesign(d, rows, task) for rows in grid.memberships]
            kinds["single_class"] += sum(x.single_class for x in designs)
            kinds["stabilized"] += sum(
                f.stabilized and not x.single_class for f, x in zip(got.fits, designs)
            )
            if grid.R <= 3:
                _, want_masks = exhaustive_selection_oracle(d, grid, task=task)
                for f, m in zip(got.fits, want_masks):
                    assert tuple(f.mask.tolist()) == tuple(bool(b) for b in m)
        assert kinds["single_class"] >= 4
        assert kinds["stabilized"] >= 4

    @pytest.mark.parametrize("task", ["logistic", "probit"])
    def test_strong_predictor_prunes_masks(self, task):
        rng = np.random.default_rng(5)
        n = 300
        X = rng.uniform(-2, 2, (n, 3))
        t = 0.2 + 2.5 * X[:, 0]
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-t))).astype(float)
        d = Dataset(X, y)
        design = RegionDesign(d, np.arange(n), task)
        fitted = []
        fit_mask = design.fit_mask
        design.fit_mask = lambda cols, ix: fitted.append(cols) or fit_mask(cols, ix)
        menu = one_region_walk(design, d.P + 1)
        assert len(menu) == len(fitted) < 2 ** (d.P + 1)
        best = min(menu, key=lambda e: e[0] * 0.5 * math.log2(n) + e[2])
        assert best[1][1] == 1  # the strong predictor is kept

    def test_regression_menu_stays_full(self):
        d = random_dataset(3, n=80, P=3)
        design = RegionDesign(d, np.arange(d.n), "regression")
        menu = _region_menu(design, d.P + 1, exhaustive=True)
        assert len(menu) == 2 ** (d.P + 1)

    @pytest.mark.parametrize("exhaustive", [True, False])
    @pytest.mark.parametrize("task", ["logistic", "probit"])
    def test_single_class_menu_is_the_intercept_fit(self, task, exhaustive):
        rng = np.random.default_rng(12)
        d = Dataset(rng.normal(0, 1, (30, 3)), np.ones(30))
        design = RegionDesign(d, np.arange(d.n), task)
        menu = _region_menu(design, d.P + 1, exhaustive)
        b0, nll = single_class_fit(task, design.y)
        assert [(s, bools, stat, beta.tolist(), stab) for s, bools, stat, beta, stab in menu] == [
            (1, (1, 0, 0, 0), nll, [b0], True)
        ]


class _StubDesign:
    """A region whose fit of mask ``m`` has NLL ``stats[m]``, stabilized
    when ``m`` is in ``stabilized``.

    ``n_r = 4`` makes each selected column cost exactly one bit."""

    n_r = 4

    def __init__(self, stats, stabilized):
        self.stats = stats
        self.stabilized = stabilized
        self.fitted = []

    def fit_mask(self, cols, ix):
        mask_int = sum(1 << int(i) for i in cols)
        self.fitted.append(mask_int)
        return np.zeros(len(cols)), self.stats[mask_int], mask_int in self.stabilized


def _walk(stats, stabilized=()):
    """Masks fitted by the walk over (intercept, x1), and the winner."""
    design = _StubDesign(stats, stabilized)
    menu = one_region_walk(design, 2)
    chosen = min(menu, key=lambda e: (e[0] + e[2], e[0], e[1]))
    return sorted(design.fitted), sum(b << i for i, b in enumerate(chosen[1]))


class TestBoundRule:
    """Masks over (intercept, x1) as integers: 3 = both, 1 = intercept only,
    2 = x1 only, 0 = empty.  ``stats`` lists the NLLs of masks 0, 1, 2, 3,
    and a mask's value is its popcount plus its NLL."""

    def test_skips_a_mask_its_supersets_rule_out(self):
        # The empty mask's bound is 5.0 from mask 2, far above mask 1's 3.0.
        assert _walk([8.0, 2.0, 5.0, 1.5]) == ([1, 2, 3], 1)

    def test_stabilized_fit_passes_no_bound(self):
        # A stabilized full fit may read above its subsets' NLLs; trusting
        # it as a bound would skip masks 1 and 2 and choose the empty mask.
        assert _walk([8.0, 2.0, 5.0, 10.0], stabilized={3}) == ([1, 2, 3], 1)

    def test_skipped_mask_passes_its_own_bound(self):
        # Mask 2 is skipped on the full mask's bound 4.0, and hands 4.0 on:
        # the empty mask (bound max(1.0, 4.0)) is skipped too.
        assert _walk([9.0, 1.0, 9.0, 4.0]) == ([1, 3], 1)

    def test_margin_covers_convergence_error(self):
        # The empty mask's NLL reads 6e-7 below its bound from mask 1, inside
        # BOUND_MARGIN, and that makes it the best mask.
        assert _walk([1.4999999, 1.5000005, 0.5, 0.25]) == ([0, 1, 2, 3], 0)

    def test_mask_at_exactly_the_margin_is_fitted(self):
        edge = 1.0 + BOUND_MARGIN
        assert 0.0 + edge == 1.0 + BOUND_MARGIN
        assert _walk([edge, edge, 0.0, 0.0]) == ([0, 1, 2, 3], 2)


# -- the exact joint choice of masks ------------------------------------------


def _entry(bools, stat):
    return (sum(bools), tuple(bools), stat, np.zeros(sum(bools)), False)


def _random_menus(rng):
    """1-4 regions, each with a menu of every mask over 1-3 columns at random
    stats, sorted by (s, lex) as ``_region_menu`` returns it."""
    R = int(rng.integers(1, 5))
    k = int(rng.integers(1, 4 if R <= 3 else 3))
    menus, half_log2n = [], []
    for _ in range(R):
        menu = [
            _entry([(m >> i) & 1 for i in range(k)], float(rng.uniform(1.0, 60.0)))
            for m in range(1 << k)
        ]
        menu.sort(key=lambda e: (e[0], e[1]))
        menus.append(menu)
        half_log2n.append(0.5 * math.log2(int(rng.integers(2, 200))))
    return menus, half_log2n


def _value(choice, half_log2n, residual):
    """``A + residual(S)`` as the joint choice sums it."""
    return math.fsum(e[0] * h for e, h in zip(choice, half_log2n)) + residual(
        math.fsum(e[2] for e in choice)
    )


def brute_force_choice(menus, half_log2n, residual):
    """The least-value entry of every region, over the product of the menus."""
    return min(
        itertools.product(*menus), key=lambda c: _value(c, half_log2n, residual)
    )


def joint_choice(menus, half_log2n, residual):
    paths = [_choice_path(m, h) for m, h in zip(menus, half_log2n)]
    return _joint_choice(paths, residual)


def coordinate_descent(menus, half_log2n, n):
    """The regression mask choice ``select_features`` made before the exact
    joint choice, kept as a reference: from the full masks, each region in
    turn takes the entry minimizing the total with the others fixed (first
    in (s, lex) order on ties), until a cycle changes nothing or 60 cycles
    have run."""
    chosen = [max(menu, key=lambda e: e[0]) for menu in menus]
    stats = [e[2] for e in chosen]
    for _ in range(60):
        changed = False
        for r, menu in enumerate(menus):
            other = sum(stats) - stats[r]
            best, best_val = None, math.inf
            for entry in menu:
                sigma2 = max((other + entry[2]) / n, SIGMA2_FLOOR)
                val = entry[0] * half_log2n[r] + 0.5 * n * math.log(sigma2)
                if val < best_val:
                    best, best_val = entry, val
            if best is not chosen[r]:
                changed = True
                chosen[r], stats[r] = best, best[2]
        if not changed:
            break
    return chosen


RESIDUALS = {
    "regression": partial(residual_bits, "regression", 200),
    "binary": lambda total: total,
}


def search_menus(data, task, grid):
    """The regions' menus as ``select_features`` builds them, each sorted by
    (s, lex): the mixed-class logistic and probit regions walked together by
    ``_stacked_menus``, every other region by ``_region_menu``."""
    menus, mixed = {}, []
    for r, rows in enumerate(grid.memberships):
        if task != "regression" and data.y[rows].min() != data.y[rows].max():
            mixed.append(r)
        else:
            design = RegionDesign(data, rows, task)
            menus[r] = _region_menu(design, data.P + 1, exhaustive=True)
    if mixed:
        stacked = _stacked_menus(data, task, [grid.memberships[r] for r in mixed])
        for r, menu in zip(mixed, stacked):
            menus[r] = sorted(menu, key=lambda e: (e[0], e[1]))
    return [menus[r] for r in range(grid.R)]


class TestJointChoice:
    @pytest.mark.parametrize("residual", RESIDUALS.values(), ids=RESIDUALS.keys())
    def test_matches_brute_force(self, residual):
        rng = np.random.default_rng(41)
        for _ in range(300):
            menus, half_log2n = _random_menus(rng)
            got = joint_choice(menus, half_log2n, residual)
            want = brute_force_choice(menus, half_log2n, residual)
            assert _value(got, half_log2n, residual) == _value(want, half_log2n, residual)
            assert [e[1] for e in got] == [e[1] for e in want]

    def test_path_weights_never_rise(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            menus, half_log2n = _random_menus(rng)
            for menu, h in zip(menus, half_log2n):
                path = _choice_path(menu, h)
                assert path[0][2][2] == min(e[2] for e in menu)
                weights = [lam for lam, _, _ in path]
                assert weights == sorted(weights, reverse=True)
                sizes = [e[0] for _, _, e in path]
                assert sizes == sorted(set(sizes), reverse=True)

    def test_coordinate_descent_misses_what_the_joint_choice_finds(self):
        # Four regions of 32 rows (a column costs 2.5 bits), n = 128.  Each
        # region's full mask leaves RSS 16 and its one-column mask 18.625.
        # Dropping the column in one region alone costs more residual bits
        # than it saves (64 ln(66.625/64) = 2.573 > 2.5), so coordinate
        # descent stays at the full masks; dropping it in all four saves
        # 10 bits for 64 ln(74.5/64) = 9.723.
        n = 128
        menu = [_entry([0, 0], 40.0), _entry([1, 0], 18.625), _entry([1, 1], 16.0)]
        menus, half_log2n = [menu] * 4, [2.5] * 4
        residual = partial(residual_bits, "regression", n)
        optimum = _value(brute_force_choice(menus, half_log2n, residual), half_log2n, residual)
        descent = coordinate_descent(menus, half_log2n, n)
        assert [e[1] for e in descent] == [(1, 1)] * 4
        assert _value(descent, half_log2n, residual) - optimum == pytest.approx(0.2774, abs=1e-4)
        got = joint_choice(menus, half_log2n, residual)
        assert [e[1] for e in got] == [(1, 0)] * 4
        assert _value(got, half_log2n, residual) == optimum

    def test_exact_tie_takes_fewer_columns(self):
        # Binary links, a column costs one bit (n_r = 4), dyadic NLLs.  In
        # region 0 the full mask and the intercept alone both score 4.0
        # exactly; region 1's intercept alone wins outright.
        menus = [
            [_entry([0, 0], 6.5), _entry([1, 0], 3.0), _entry([0, 1], 3.5), _entry([1, 1], 2.0)],
            [_entry([0, 0], 9.0), _entry([1, 0], 0.25), _entry([0, 1], 4.0), _entry([1, 1], 0.125)],
        ]
        half_log2n = [1.0, 1.0]
        residual = RESIDUALS["binary"]
        values = {
            (a[1], b[1]): _value((a, b), half_log2n, residual)
            for a, b in itertools.product(*menus)
        }
        assert values[(1, 0), (1, 0)] == values[(1, 1), (1, 0)] == min(values.values())
        got = joint_choice(menus, half_log2n, residual)
        assert [e[1] for e in got] == [(1, 0), (1, 0)]

    @pytest.mark.parametrize("task", ["regression", "logistic", "probit"])
    def test_select_features_matches_brute_force(self, task):
        rng = np.random.default_rng(43)
        checked = 0
        for seed in range(300, 340):
            P = int(rng.integers(1, 3))
            d = random_dataset(seed, n=int(rng.choice([30, 60, 90])), P=P, binary=task != "regression")
            grid = induce_partition(d, random_config(d, rng, max_breaks=2, max_cuts=1))
            if grid.region_counts.min() < P + 2:
                continue
            residual = (
                partial(residual_bits, "regression", d.n)
                if task == "regression"
                else RESIDUALS["binary"]
            )
            menus = search_menus(d, task, grid)
            half_log2n = [0.5 * math.log2(c) for c in grid.region_counts.tolist()]
            want = brute_force_choice(menus, half_log2n, residual)
            got = select_features(d, task, grid)
            assert [tuple(f.mask.astype(int).tolist()) for f in got.fits] == [e[1] for e in want]
            assert [f.fit_stat for f in got.fits] == [e[2] for e in want]
            checked += 1
        assert checked >= 20


# -- wide tables ----------------------------------------------------------------


class TestWideTables:
    def test_crowded_key_is_rejected_before_any_row_pass(self, monkeypatch):
        d = random_dataset(7, n=20, P=3)
        scorer = ConfigScorer(d, "regression")

        def no_row_pass(*args):
            raise AssertionError("rows were indexed")

        monkeypatch.setattr(partwise.refine, "_region_index", no_row_pass)
        key = ((0, (3, 6, 9, 12, 15, 18)),)  # 7 regions of 3 rows need 21 > 20
        assert scorer.score_key(key) is None
        assert scorer._cache[key] is None
        assert scorer.evaluations == 0

    @pytest.mark.parametrize("noise_columns", [12, 20])
    def test_wide_fit_finds_the_true_breaks(self, noise_columns):
        # P = 16 used to fail: a key with a cut on every predictor induces
        # 4^16 regions, and counting their rows asked numpy for 32 GiB.
        d = wide_reg1(noise_columns)
        model = fit_model(d, "regression", FitParams(seed=3)).model
        breaks = model.config.as_dict()
        assert sorted(breaks) == [0, 2]
        assert breaks[0][0] == pytest.approx(3.999, abs=1e-3)
        assert breaks[2][0] == pytest.approx(8.507, abs=1e-3)
        if noise_columns == 12:
            x1_to_x4 = [False] + [True] * 4 + [False] * noise_columns
            assert [f.mask.tolist() for f in model.region_fits] == [x1_to_x4] * 4

    def test_stepwise_menu_holds_the_walks_stop(self):
        d = wide_reg1(12)
        rows = np.flatnonzero((d.X[:, 0] <= 4.0) & (d.X[:, 2] <= 8.5))
        design = RegionDesign(d, rows, "regression")
        fitted = []
        fit_mask = design.fit_mask
        design.fit_mask = lambda cols, ix: fitted.append(tuple(cols)) or fit_mask(cols, ix)
        n_params = d.P + 1
        menu = _region_menu(design, n_params, exhaustive=False)
        assert len(fitted) == len(set(fitted))  # no mask is fitted twice
        assert 2 * n_params <= len(menu) < 2**n_params

        half_log2n = 0.5 * math.log2(rows.size)
        stop = min(menu, key=lambda e: e[0] * half_log2n + e[2])
        stop_value = stop[0] * half_log2n + stop[2]
        for i in range(n_params):
            flipped = list(stop[1])
            flipped[i] = 1 - flipped[i]
            cols = np.flatnonzero(flipped)
            assert tuple(cols) in fitted  # the walk tried every flip of its stop
            res = fit_mask(cols, np.ix_(cols, cols))
            assert res is None or len(cols) * half_log2n + res[1] >= stop_value
