"""The batched bounded walk against the scalar walk it replaced.

``ConfigScorer`` builds the menus of a batch's mixed-class logistic and
probit regions together: one popcount level at a time, every region's
surviving masks fitted in one stacked Newton solve
(``fitting.newton_glm_gathered``), then the level replayed in the scalar
walk's order.  The reference kept here is that scalar walk, fitting one
mask at a time through ``RegionDesign.fit_mask``.  Over every mixed-class
region the search builds in eight seeded fits, both walks must keep the
same masks with the same ``stabilized`` flags, agree on each unstabilized
fit's NLL to 1e-12 relative, and choose the mask that full enumeration
chooses.  The two paths run on one build, through 3-D fancy-index gathers
and stacked ``np.matmul``.  One fit per link runs in the fast suite.
"""

import math

import numpy as np
import pytest

import partwise.refine as refine_mod
from partwise import ConfigScorer, Dataset, FitParams, fit_model
from partwise.fitting import RegionDesign
from partwise.refine import (
    BOUND_MARGIN,
    _masks_for,
    _region_menu,
    _stacked_menus,
)
from partwise.simulate import SETTINGS, generate, trial_rng


def scalar_bounded_menu(design, n_params):
    """The scalar walk: from the full mask down, by popcount and then by
    mask integer, each mask bounded by the largest NLL its immediate
    supersets pass on and fitted only if that bound keeps it within
    BOUND_MARGIN of the best value so far.  A skipped, infeasible or
    stabilized mask passes on its own bound."""
    half_log2n = 0.5 * math.log2(design.n_r)
    passed = [0.0] * (1 << n_params)
    best = math.inf
    menu = []
    for mask_int, cols, s, bools, ix in sorted(_masks_for(n_params), key=lambda e: (-e[2], e[0])):
        supersets = [mask_int | (1 << i) for i in range(n_params) if not (mask_int >> i) & 1]
        bound = max((passed[m] for m in supersets), default=-math.inf)
        if s * half_log2n + bound > best + BOUND_MARGIN:
            passed[mask_int] = bound
            continue
        res = design.fit_mask(cols, ix)
        if res is None:
            passed[mask_int] = bound
            continue
        beta, stat, stab = res
        passed[mask_int] = bound if stab else stat
        best = min(best, s * half_log2n + stat)
        menu.append((s, bools, stat, beta, stab))
    return menu


def region_choice(menu, n_r):
    """The entry minimizing ``s * log2(n_r) / 2 + NLL``, fewer columns first."""
    half_log2n = 0.5 * math.log2(n_r)
    return min(menu, key=lambda e: (e[0] * half_log2n + e[2], e[0], e[1]))[:2]


def full_menu(design, n_params):
    out = []
    for _, cols, s, bools, ix in _masks_for(n_params):
        res = design.fit_mask(cols, ix)
        if res is not None:
            out.append((s, bools, res[1]))
    return out


# (setting, link, data seed): the fits whose regions are checked.
FITS = [("cls2", "logistic", seed) for seed in range(3)]
FITS += [("cls1", "logistic", seed) for seed in range(3)]
FITS += [("cls1", "probit", seed) for seed in range(2)]
FAST = {("cls2", "logistic", 0), ("cls1", "probit", 0)}


def batched_regions(setting, link, seed, monkeypatch):
    """Every mixed-class region whose menu a seeded n=400 fit builds in a
    batch, with the batched menu it got."""
    data = generate(SETTINGS[setting], 400, trial_rng(seed, 0), link=link)
    seen = []

    def recording(data, task, regions):
        menus = _stacked_menus(data, task, regions)
        seen.extend(zip(regions, menus))  # the scorer sorts them by (s, lex)
        return menus

    monkeypatch.setattr(refine_mod, "_stacked_menus", recording)
    fit_model(data, link, FitParams(seed=3))
    return data, seen


@pytest.mark.parametrize(
    "fit",
    [pytest.param(f, marks=[] if f in FAST else pytest.mark.slow) for f in FITS],
    ids=lambda f: "-".join(map(str, f)),
)
def test_batched_walk_matches_scalar_walk(fit, monkeypatch):
    setting, link, seed = fit
    data, seen = batched_regions(setting, link, seed, monkeypatch)
    n_params = data.P + 1
    assert len(seen) >= 100
    unstabilized = 0
    for rows, got in seen:
        design = RegionDesign(data, rows, link)
        assert not design.single_class
        want = sorted(scalar_bounded_menu(design, n_params), key=lambda e: e[:2])
        assert [(e[0], e[1], e[4]) for e in got] == [(e[0], e[1], e[4]) for e in want]
        for g, w in zip(got, want):
            if not w[4]:
                # Relative to the NLL or one nat, whichever is larger: a
                # nearly separated fit's NLL of 1e-11 nats rounds apart.
                unstabilized += 1
                assert abs(g[2] - w[2]) <= 1e-12 * max(abs(w[2]), 1.0)
        assert region_choice(got, rows.size) == region_choice(full_menu(design, n_params), rows.size)
    assert unstabilized >= len(seen)


def constant_x1_data(seed):
    """A discrete x1 in 0..4 and two continuous predictors, mixed classes
    within every level of x1."""
    rng = np.random.default_rng(seed)
    n = 200
    X = np.column_stack([rng.integers(0, 5, n), rng.normal(0, 1, n), rng.normal(0, 1, n)])
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(X[:, 1] - 0.5 * X[:, 2])))).astype(float)
    return Dataset(X.astype(float), y)


@pytest.mark.parametrize("task", ["logistic", "probit"])
def test_constant_predictor_is_never_selected(task):
    data = constant_x1_data(4)
    rows = np.flatnonzero(data.X[:, 0] == 2.0)
    assert 0 < data.y[rows].sum() < rows.size
    n_params = data.P + 1

    def selects_x1(menu):
        return [e[1] for e in menu if e[1][1]]

    (batched,) = _stacked_menus(data, task, [rows])
    assert batched and not selects_x1(batched)
    for exhaustive in (True, False):
        menu = _region_menu(RegionDesign(data, rows, task), n_params, exhaustive)
        assert menu and not selects_x1(menu)
    menu = _region_menu(RegionDesign(data, rows, "regression"), n_params, True)
    assert len(menu) == 2 ** (n_params - 1) and not selects_x1(menu)

    # Through the scorer: the key isolating x1 == 2 fits no x1 there.
    scorer = ConfigScorer(data, task)
    j = 0
    key = ((j, (data.cut_of_threshold(j, 1.5), data.cut_of_threshold(j, 2.5))),)
    scored = scorer.score_key(key)
    assert scored is not None
    assert not scored.selection.fits[1].mask[1]
    assert [e[1] for e in batched] == [
        e[1] for e in scalar_bounded_menu(RegionDesign(data, rows, task), n_params)
    ]
