"""Self-test of the benchmark: every output check fails on a model corrupted
on purpose, and the tracing hooks survive a missing target.

    python3 -m pytest perfbench/test_checks.py -q
"""

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit, ndtr, ndtri

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import partwise  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import PoolFit  # noqa: E402


def consistent(pm, X, y):
    """Recompute fit_stats, sigma2_hat and the MDL parts from the data, so
    that only the structural property under test is wrong."""
    region_of, segment_counts, R = checks.rebuild_regions(pm, X)
    stats = checks.region_stats(pm, X, y, region_of)
    pm.fit_stats = stats
    pm.mdl = checks.mdl_parts(
        pm.task, pm.P, segment_counts, np.bincount(region_of, minlength=R),
        [int(m.sum()) for m in pm.masks], sum(stats),
    )
    if pm.task == "regression":
        pm.sigma2_hat = max(sum(stats) / len(y), checks.SIGMA2_FLOOR)
    return pm


def lstsq_fits(pm, X, y):
    region_of, _, _ = checks.rebuild_regions(pm, X)
    pm.betas = [
        np.linalg.lstsq(checks.design(X[region_of == r], m), y[region_of == r], rcond=None)[0]
        for r, m in enumerate(pm.masks)
    ]
    return consistent(pm, X, y)


@pytest.fixture(scope="module")
def reg():
    X, y = PoolFit("reg1", "regression", 200, 7).data()
    model = partwise.fit_model(partwise.Dataset(X, y), "regression", partwise.FitParams(seed=3)).model
    return X, y, checks.from_fitted(model)


def test_fitted_regression_passes(reg):
    X, y, pm = reg
    assert pm.thresholds, "the fit should find the design's breaks"
    assert checks.check_model(pm, X, y) == []
    assert checks.check_predictions(pm, X, checks.predict(pm, X)) == []


def test_document_matches_fitted_model(reg, tmp_path):
    X, y, _ = reg
    model = partwise.fit_model(partwise.Dataset(X, y), "regression", partwise.FitParams(seed=3)).model
    path = tmp_path / "m.json"
    partwise.save_model(model, str(path))
    from_doc = checks.from_document(json.loads(path.read_text()))
    assert checks.check_model(from_doc, X, y) == []
    assert from_doc.mdl == checks.from_fitted(model).mdl


def test_moved_threshold(reg):
    X, y, pm = reg
    bad = copy.deepcopy(pm)
    j = min(bad.thresholds)
    bad.thresholds[j] = [float(np.quantile(X[:, j], 0.3))]
    assert checks.check_mdl(bad, X, y)
    assert checks.check_regression_fits(bad, X, y)
    assert checks.check_predictions(bad, X, checks.predict(pm, X))


def test_threshold_outside_range_and_missing_region(reg):
    X, y, pm = reg
    bad = copy.deepcopy(pm)
    j = min(bad.thresholds)
    bad.thresholds[j] = [float(X[:, j].max()) + 1.0]
    assert checks.check_partition(bad, X)
    bad = copy.deepcopy(pm)
    for field in ("masks", "betas", "fit_stats", "stabilized"):
        getattr(bad, field).pop()
    assert checks.check_partition(bad, X)


def test_perturbed_beta(reg):
    X, y, pm = reg
    bad = copy.deepcopy(pm)
    bad.betas[0] = bad.betas[0] + 0.01
    assert checks.check_regression_fits(bad, X, y)
    assert checks.check_mdl(bad, X, y)
    assert checks.check_predictions(bad, X, checks.predict(pm, X))


def test_swapped_mask(reg):
    X, y, pm = reg
    bad = copy.deepcopy(pm)
    mask = bad.masks[0]
    on, off = np.flatnonzero(mask)[-1], np.flatnonzero(~mask)[0]
    mask[on], mask[off] = False, True
    assert checks.check_regression_fits(bad, X, y)
    assert checks.check_mdl(bad, X, y)


def test_worse_mask_refitted_consistently(reg):
    """Only the mask-swap check can see a suboptimal but self-consistent mask."""
    X, y, pm = reg
    bad = copy.deepcopy(pm)
    bad.masks[0] = np.eye(bad.P + 1, dtype=bool)[0]
    lstsq_fits(bad, X, y)
    assert checks.check_partition(bad, X) == []
    assert checks.check_mdl(bad, X, y) == []
    assert checks.check_regression_fits(bad, X, y) == []
    assert checks.check_mask_swaps(bad, X, y)


def test_wrong_total(reg):
    X, y, pm = reg
    bad = copy.deepcopy(pm)
    bad.mdl["total"] += 1.0
    assert checks.check_mdl(bad, X, y)
    bad = copy.deepcopy(pm)
    bad.mdl["residual_code"] -= 1.0
    bad.mdl["total"] -= 1.0
    assert checks.check_mdl(bad, X, y)


def test_needless_break_loses_to_no_break():
    rng = np.random.default_rng(5)
    X = rng.uniform(0, 10, (200, 2))
    y = 1.0 + 0.5 * X[:, 1] + rng.standard_normal(200)
    pm = checks.PlainModel(
        task="regression", P=2, thresholds={0: [float(np.median(X[:, 0]))]},
        masks=[np.ones(3, dtype=bool)] * 2, betas=[], fit_stats=[],
        stabilized=[False, False], mdl={}, sigma2_hat=None,
    )
    lstsq_fits(pm, X, y)
    assert checks.check_mdl(pm, X, y) == []
    assert checks.check_no_break(pm, X, y)


def test_perturbed_predictions(reg):
    X, y, pm = reg
    assert checks.check_predictions(pm, X, checks.predict(pm, X) * (1.0 + 1e-6))


# -- classification --------------------------------------------------------


def _newton(task, D, y):
    beta = np.zeros(D.shape[1])
    for _ in range(100):
        g, H = checks._score_and_hessian(task, D, y, beta)
        step = np.linalg.solve(H, g)
        beta = beta - step
        if float(g @ step) < 1e-20:
            break
    return beta


@pytest.fixture(scope="module", params=["logistic", "probit"])
def cls(request):
    """Two regions on x1 <= 3: the lower one holds only zeros."""
    task = request.param
    rng = np.random.default_rng(11)
    X = rng.uniform(0, 10, (300, 2))
    t = 2.0 - 0.4 * X[:, 1]
    p = expit(t) if task == "logistic" else ndtr(t)
    y = np.where(X[:, 0] <= 3.0, 0.0, (rng.random(300) < p).astype(float))
    upper = X[:, 0] > 3.0
    b0 = math.log(1e-6 / (1 - 1e-6)) if task == "logistic" else float(ndtri(1e-6))
    pm = checks.PlainModel(
        task=task, P=2, thresholds={0: [3.0]},
        masks=[np.array([True, False, False]), np.ones(3, dtype=bool)],
        betas=[np.array([b0]), _newton(task, checks.design(X[upper], np.ones(3, bool)), y[upper])],
        fit_stats=[], stabilized=[True, False], mdl={}, sigma2_hat=None,
    )
    return X, y, consistent(pm, X, y)


def test_clean_classification_passes(cls):
    X, y, pm = cls
    assert checks.check_model(pm, X, y) == []


def test_wrong_labels(cls):
    X, y, pm = cls
    probs = checks.predict(pm, X)
    assert checks.check_predictions(pm, X, probs, (probs >= 0.5).astype(float)) == []
    assert checks.check_predictions(pm, X, probs, (probs < 0.5).astype(float))


def test_classification_perturbed_beta(cls):
    X, y, pm = cls
    bad = copy.deepcopy(pm)
    bad.betas[1] = bad.betas[1] + np.array([0.0, 0.0, 0.02])
    assert checks.check_mdl(bad, X, y)
    consistent(bad, X, y)
    assert checks.check_mdl(bad, X, y) == []
    assert checks.check_classification_fits(bad, X, y)


def test_single_class_region_rules(cls):
    X, y, pm = cls
    bad = copy.deepcopy(pm)
    bad.betas[0] = bad.betas[0] + 1.0
    assert checks.check_classification_fits(consistent(bad, X, y), X, y)
    bad = copy.deepcopy(pm)
    bad.stabilized[0] = False
    assert checks.check_classification_fits(bad, X, y)
    bad = copy.deepcopy(pm)
    bad.masks[0] = np.array([True, True, False])
    bad.betas[0] = np.array([bad.betas[0][0], 0.0])
    assert checks.check_classification_fits(consistent(bad, X, y), X, y)


def test_fitted_logistic_passes():
    X, y = PoolFit("cls2", "logistic", 200, 7).data()
    params = partwise.FitParams(seed=3, swarm=partwise.BpsoParams(swarm_size=5, max_iter=3))
    model = partwise.fit_model(partwise.Dataset(X, y), "logistic", params).model
    pm = checks.from_fitted(model)
    assert checks.check_model(pm, X, y) == []
    assert checks.check_predictions(pm, X, partwise.predict(model, X)) == []


# -- tracing and the metric lists -----------------------------------------


def test_missing_hook_is_reported_and_originals_restored():
    import partwise.estimator
    import partwise.scan

    original = partwise.scan.scan_candidates
    tracer = tracing.Tracer()
    with tracer.active(tracing.HOOKS + (("partwise.refine", "Gone.method", "gone", tracing.SPAN),)):
        assert tracer.absent == {"partwise.refine.Gone.method"}
        assert partwise.scan.scan_candidates is not original
        assert partwise.estimator.scan_candidates is not original
    assert partwise.scan.scan_candidates is original
    assert partwise.estimator.scan_candidates is original


def test_self_time_excludes_children_and_leaves():
    spans = [
        ["a", 0.0, 10.0, -1, 0.5],
        ["b", 1.0, 4.0, 0, 0.0],
        ["a", 5.0, 6.0, 0, 0.0],
        ["c", 2.0, 3.0, 1, 0.25],
    ]
    stats = tracing.label_stats(spans)
    assert stats["a"] == [2, 10.0, 6.5]
    assert stats["b"] == [1, 3.0, 2.0]
    assert stats["c"] == [1, 1.0, 0.75]


def test_leaf_time_counts_once_under_the_enclosing_span():
    tracer = tracing.Tracer()
    inner = tracer._wrap(lambda: None, "inner", tracing.LEAF)
    outer = tracer._wrap(lambda: inner(), "outer", tracing.LEAF)
    span = tracer._wrap(lambda: [outer() for _ in range(3)], "span", tracing.SPAN)
    with tracer.active(hooks=()):
        span()
    (label, start, end, parent, leaf), = tracer.dump()["spans"]
    assert (label, parent) == ("span", -1)
    assert tracer.leaves["outer"][0] == 3 and tracer.leaves["inner"][0] == 3
    assert leaf == pytest.approx(tracer.leaves["outer"][1])
    assert leaf <= end - start


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
