"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The simulation criteria run 50 seeded trials each at n=400 and compare
recovery rates and change-point error statistics against the published
benchmarks; the search criterion checks attainment of an exhaustive subset
oracle on 100 tiny instances.  Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion lines and timings.
"""

import itertools
import time

import numpy as np
import pytest

from partwise import (
    BpsoParams,
    Dataset,
    final_adjust,
    fit_region,
    induce_partition,
    mdl_score,
    run_bpso,
    scan_candidates,
    select_features,
    update_velocity,
)
from partwise.bpso import _candidate_pairs, mutate
import partwise.bpso as bpso_mod
from partwise.fitting import (
    full_design,
    logistic_grad_hess,
    logistic_nll,
    probit_grad_hess,
    probit_nll,
)
from partwise.refine import ConfigScorer, _key_from_pairs
from partwise.simulate import SETTINGS, evaluate_trial, generate, run_trials, summarize_trials

from conftest import random_config, random_dataset
from test_mdl import reference_mdl, synthetic_fits

pytestmark = pytest.mark.slow

THREADS = 2


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_formula_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250809)
    checked = 0
    worst = 0.0
    while checked < 1000:
        d = random_dataset(checked % 17, n=int(rng.integers(30, 100)), P=int(rng.integers(2, 5)))
        cfg = random_config(d, rng)
        grid = induce_partition(d, cfg)
        if grid.region_counts.min() < 1:
            continue
        fits = synthetic_fits(rng, grid, d.P)
        task = "regression" if checked % 2 == 0 else "logistic"
        got = mdl_score(d, grid, fits, task).total
        want = reference_mdl(d.P, d.n, cfg, grid, fits, task)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-9
        checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1 (formula oracle)",
        worst <= 1e-9 and elapsed < 10.0,
        f"1000 instances, max |diff| {worst:.2e}, {elapsed:.1f}s (< 10s)",
    )


def _tiny_instance(seed: int) -> Dataset:
    # Discrete predictors keep every admissible cut inside the candidate
    # universe, so subset enumeration bounds everything the search (whose
    # shift moves snap to admissible cuts) can reach.
    rng = np.random.default_rng([seed, 1001])
    n = 40
    x1 = rng.integers(0, 3, n).astype(float)
    x2 = rng.integers(0, 2, n).astype(float)
    X = np.column_stack([x1, x2])
    lo = X[:, 0] <= 1.0
    y = np.where(lo, 2.0 + 1.0 * X[:, 0] - 2.0 * X[:, 1],
                 -2.0 + 1.0 * X[:, 0] + 2.0 * X[:, 1])
    y = y + rng.normal(0, 0.7, n)
    return Dataset(X, y)


def test_criterion_2_exhaustive_search_oracle():
    t0 = time.perf_counter()
    attained = 0
    below = 0
    for seed in range(100):
        data = _tiny_instance(seed)
        cands = scan_candidates(
            data, "regression", max_per_predictor=3, min_segment=4,
        )
        pairs = _candidate_pairs(data, cands)
        assert len(pairs) <= 4
        scorer = ConfigScorer(data, "regression")
        best = np.inf
        for r in range(len(pairs) + 1):
            for sub in itertools.combinations(pairs, r):
                key = _key_from_pairs(list(sub))
                if scorer.score_key(key) is not None:
                    best = min(best, scorer.score_key(key).total)
        res = run_bpso(data, "regression", cands, BpsoParams(), seed=seed, scorer=scorer)
        adj = final_adjust(data, "regression", res.scored.config, scorer=scorer)
        if abs(adj.total - best) <= 1e-9:
            attained += 1
        elif adj.total < best - 1e-9:
            below += 1
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 2 (exhaustive-search oracle)",
        attained >= 90 and below == 0 and elapsed < 120.0,
        f"attained {attained}/100 (>= 90), below-oracle {below} (== 0), "
        f"{elapsed:.0f}s (< 120s)",
    )


def test_criterion_3_setting_reg1():
    t0 = time.perf_counter()
    results = run_trials("reg1", 400, 50, seed=1, sigma=1.0, threads=THREADS)
    s = summarize_trials("reg1", 400, "sigma=1", results)
    elapsed = time.perf_counter() - t0
    cp = {j: m for j, i, m, se in s.cp_stats}
    ok = (
        s.pct_correct_BL >= 0.95
        and abs(cp[0]) <= 0.01
        and abs(cp[2]) <= 0.005
        and min(s.mask_accuracy) >= 0.90
        and elapsed < 900.0
    )
    _report(
        "criterion 3 (reg1, n=400, sigma=1, 50 trials)",
        ok,
        f"correct BL {s.pct_correct_BL:.0%} (>= 95%), "
        f"mean cp err x1 {cp[0]:+.4f} (|.| <= 0.01), x3 {cp[2]:+.4f} (|.| <= 0.005), "
        f"mask acc {['%.0f%%' % (100 * a) for a in s.mask_accuracy]} (>= 90%), "
        f"{elapsed:.0f}s (< 900s)",
    )


def test_criterion_4_setting_reg2():
    t0 = time.perf_counter()
    results = run_trials("reg2", 400, 50, seed=1, sigma=4.0, threads=THREADS)
    s = summarize_trials("reg2", 400, "sigma=4", results)
    elapsed = time.perf_counter() - t0
    ok = (
        s.pct_correct_BL >= 0.95
        and min(s.mask_accuracy) >= 0.90
        and elapsed < 900.0
    )
    _report(
        "criterion 4 (reg2, n=400, sigma=4, 50 trials)",
        ok,
        f"correct BL {s.pct_correct_BL:.0%} (>= 95%), "
        f"mask acc {['%.0f%%' % (100 * a) for a in s.mask_accuracy]} (>= 90%), "
        f"{elapsed:.0f}s (< 900s)",
    )


def test_criterion_5_setting_cls2_logistic():
    t0 = time.perf_counter()
    results = run_trials("cls2", 400, 50, seed=1, link="logistic", threads=THREADS)
    s = summarize_trials("cls2", 400, "link=logistic", results)
    elapsed = time.perf_counter() - t0
    x1_errors = [r.cp_errors[0][1][0] for r in results if r.correct_BL]
    all_zero = all(e == 0.0 for e in x1_errors)
    ok = s.pct_correct_BL >= 0.95 and all_zero and elapsed < 1200.0
    _report(
        "criterion 5 (cls2 logistic, n=400, 50 trials)",
        ok,
        f"correct BL {s.pct_correct_BL:.0%} (>= 95%), "
        f"discrete x1 cp error exactly 0 in {sum(e == 0.0 for e in x1_errors)}"
        f"/{len(x1_errors)} correct trials (all), {elapsed:.0f}s (< 1200s)",
    )


def test_criterion_6_setting_cls1_probit():
    # Published benchmarks (probit, n=400): cp1 -0.0064 (se 0.0085),
    # cp2 +0.0154 (se 0.0038); means must land within three benchmark ses.
    t0 = time.perf_counter()
    results = run_trials("cls1", 400, 50, seed=1, link="probit", threads=THREADS)
    s = summarize_trials("cls1", 400, "link=probit", results)
    elapsed = time.perf_counter() - t0
    cp = {i: m for j, i, m, se in s.cp_stats}
    band1 = abs(cp[0] - (-0.0064)) <= 3 * 0.0085
    band2 = abs(cp[1] - 0.0154) <= 3 * 0.0038
    ok = s.pct_correct_BL >= 0.90 and band1 and band2 and elapsed < 1200.0
    _report(
        "criterion 6 (cls1 probit, n=400, 50 trials)",
        ok,
        f"correct BL {s.pct_correct_BL:.0%} (>= 90%), "
        f"mean cp1 err {cp[0]:+.4f} (target -0.0064 +- 0.0255: {'ok' if band1 else 'MISS'}), "
        f"mean cp2 err {cp[1]:+.4f} (target +0.0154 +- 0.0114: {'ok' if band2 else 'MISS'}), "
        f"{elapsed:.0f}s (< 1200s)",
    )


def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    notes = []

    # partition exhaustiveness/exclusivity on 10,000 random configs
    rng = np.random.default_rng(777)
    datasets = [random_dataset(s, n=50, P=3) for s in range(10)]
    for i in range(10_000):
        d = datasets[i % 10]
        cfg = random_config(d, rng)
        grid = induce_partition(d, cfg)
        assert int(grid.region_counts.sum()) == d.n
        assert grid.R == cfg.num_regions
    notes.append("partition 10k ok")

    # OLS orthogonality
    for seed in range(100):
        r2 = np.random.default_rng([seed, 3])
        X = r2.normal(0, 2, (40, 3))
        y = r2.normal(0, 3, 40)
        d = Dataset(X, y)
        fit = fit_region(d, np.arange(40), np.ones(4, bool), "regression")
        D = full_design(d, np.arange(40))[:, fit.mask]
        resid = y - D @ fit.beta
        assert np.abs(D.T @ resid).max() < 1e-6 * np.linalg.norm(y)
    notes.append("OLS orthogonality ok")

    # GLM gradients vs central differences
    for link, nll, gh in (
        ("logistic", logistic_nll, logistic_grad_hess),
        ("probit", probit_nll, probit_grad_hess),
    ):
        for seed in range(50):
            r3 = np.random.default_rng([seed, 5])
            D = np.column_stack([np.ones(30), r3.normal(0, 1, (30, 2))])
            y = (r3.random(30) < 0.5).astype(float)
            beta = r3.normal(0, 0.8, 3)
            g, _ = gh(D, y, D @ beta)
            eps = 1e-6
            fd = np.array([
                (nll(D @ (beta + eps * e), y) - nll(D @ (beta - eps * e), y)) / (2 * eps)
                for e in np.eye(3)
            ])
            assert np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-8) < 1e-5
    notes.append("GLM gradients ok")

    # gbest monotonicity + seeded determinism across 20 repeated runs
    data = _tiny_instance(7)
    cands = scan_candidates(data, "regression", max_per_predictor=3,
                            min_segment=4)
    pairs = _candidate_pairs(data, cands)
    outcomes = set()
    for _ in range(20):
        scorer = ConfigScorer(data, "regression")
        params = BpsoParams(swarm_size=20)
        swarm = bpso_mod.init_swarm(data, cands, params, seed=11, scorer=scorer)
        path = [swarm.gbest.total]
        for t in range(1, 10):
            bpso_mod._advance(swarm, data, 11, t, scorer)
            mutate(swarm, data, pairs, seed=11, iteration=t, scorer=scorer)
            bpso_mod._refresh_gbest(swarm)
            path.append(swarm.gbest.total)
        assert all(b <= a + 1e-12 for a, b in zip(path, path[1:]))
        outcomes.add((swarm.gbest.key, round(swarm.gbest.total, 12)))
    assert len(outcomes) == 1
    notes.append("gbest monotone + deterministic (20 runs) ok")

    # select_features / final_adjust never increase the criterion
    rng = np.random.default_rng(31)
    for trial in range(25):
        d = random_dataset(trial + 900, n=70, P=3)
        cfg = random_config(d, rng, max_breaks=2, max_cuts=1)
        scorer = ConfigScorer(d, "regression")
        key = scorer.key_of_config(cfg)
        if scorer.score_key(key) is None:
            continue
        grid = induce_partition(d, cfg)
        sel = select_features(d, "regression", grid)
        full = np.ones(d.P + 1, dtype=bool)
        fits = []
        feasible_full = True
        for rows in grid.memberships:
            try:
                fits.append(fit_region(d, rows, full, "regression"))
            except Exception:
                feasible_full = False
                break
        if feasible_full:
            assert sel.total <= mdl_score(d, grid, fits, "regression").total + 1e-9
        before = scorer.score_key(key).total
        out = final_adjust(d, "regression", cfg, scorer=scorer)
        assert out.total <= before + 1e-12
    notes.append("selection/adjustment monotone ok")

    # velocity range on 10,000 random inputs
    rng = np.random.default_rng(13)
    for _ in range(10_000):
        v_prev = float(rng.uniform(0, 1))
        bits = [int(rng.integers(2)) for _ in range(3)]
        omega = float(rng.uniform(0.5, 1.5))
        c1 = float(rng.uniform(0, 3))
        c2 = float(rng.uniform(0, 3))
        r1, r2 = rng.random(2)
        v = update_velocity(v_prev, *bits, omega=omega, c1=c1, c2=c2, r1=r1, r2=r2)
        assert 0.5 <= v < 1.0
    notes.append("velocity in [0.5, 1) 10k ok")

    elapsed = time.perf_counter() - t0
    _report("criterion 7 (property suites)", True, "; ".join(notes) + f"; {elapsed:.0f}s")


def test_criterion_8_noise_free_recovery():
    t0 = time.perf_counter()
    from partwise.estimator import FitParams, fit_model

    failures = []
    for name in ("reg1", "reg2"):
        for seed in range(10):
            rng = np.random.default_rng([seed, 42])
            data = generate(SETTINGS[name], 400, rng, sigma=0.0)
            out = fit_model(data, "regression", FitParams(seed=seed))
            res = evaluate_trial(SETTINGS[name], out.model, data)
            errs = [e for _, ts in res.cp_errors for e in ts]
            if not (res.correct_BL and all(e == 0.0 for e in errs)):
                failures.append((name, seed))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 8 (noise-free exact recovery)",
        not failures and elapsed < 600.0,
        f"20/20 runs exact (reg1+reg2, sigma=0, 10 seeds each)"
        + (f", failures: {failures}" if failures else "")
        + f", {elapsed:.0f}s",
    )
