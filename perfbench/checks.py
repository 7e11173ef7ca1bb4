"""Output checks computed apart from the partwise package.

Every check works from raw ``X, y`` and a :class:`PlainModel` (thresholds,
masks, coefficients and the reported MDL parts) read from a fitted model's
fields or from a model document, and returns a list of failure messages,
empty when the check passes.  Regions are rebuilt by explicit threshold
comparisons, fits are redone with ``numpy.linalg.lstsq`` and likelihoods
with scipy's ``log_expit``/``log_ndtr``; nothing here calls partwise, and
nothing is compared against stored output.

Recovery of the true design is not checked: the method recovers it at a
rate (the acceptance suite asks for 95% and 90% of 50 trials), not on every
fit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_expit, log_ndtr, ndtr, ndtri

# Constants the package documents: the variance floor of the residual code
# (partwise.mdl) and the clipped probability of single-class regions
# (partwise.fitting).
SIGMA2_FLOOR = 1e-12
DEGENERATE_CLIP = 1e-6

CODE_RTOL = 1e-6  # MDL parts: the package's RSS comes from Gram sums, ours from residuals
STAT_RTOL = 1e-8  # per-region RSS / NLL
BETA_RTOL = 1e-6  # coefficients against an lstsq refit
PRED_RTOL = 1e-9  # predictions against an independent evaluation
NEWTON_DECREMENT_TOL = 1e-6  # g' H^-1 g at a converged maximum-likelihood fit

MDL_PARTS = (
    "predictor_code",
    "per_predictor_code",
    "region_param_code",
    "residual_code",
    "total",
)


@dataclass
class PlainModel:
    task: str
    P: int
    thresholds: dict[int, list[float]]  # predictor index -> ascending thresholds
    masks: list[np.ndarray]  # per region, length P+1, index 0 = intercept
    betas: list[np.ndarray]
    fit_stats: list[float]
    stabilized: list[bool]
    mdl: dict[str, float]
    sigma2_hat: float | None


def from_document(doc: dict) -> PlainModel:
    """Read a parsed ``partwise-v1`` model document."""
    columns = list(doc["columns"])
    fits = doc["region_fits"]
    return PlainModel(
        task=doc["task"],
        P=len(columns),
        thresholds={
            columns.index(name): [float(t) for t in ts]
            for name, ts in doc["thresholds"].items()
        },
        masks=[np.asarray(f["mask"], dtype=bool) for f in fits],
        betas=[np.asarray(f["beta"], dtype=np.float64) for f in fits],
        fit_stats=[float(f["fit_stat"]) for f in fits],
        stabilized=[bool(f["stabilized"]) for f in fits],
        mdl={k: float(doc["mdl"][k]) for k in MDL_PARTS},
        sigma2_hat=doc["sigma2_hat"],
    )


def from_fitted(model) -> PlainModel:
    """Read the public fields of an in-process ``FittedModel``."""
    fits = model.region_fits
    return PlainModel(
        task=model.task,
        P=len(model.column_names),
        thresholds={int(j): [float(t) for t in ts] for j, ts in model.config.breaks},
        masks=[np.array(f.mask, dtype=bool) for f in fits],
        betas=[np.array(f.beta, dtype=np.float64) for f in fits],
        fit_stats=[float(f.fit_stat) for f in fits],
        stabilized=[bool(f.stabilized) for f in fits],
        mdl={k: float(getattr(model.mdl, k)) for k in MDL_PARTS},
        sigma2_hat=model.sigma2_hat,
    )


# -- independent evaluation ------------------------------------------------


def rebuild_regions(pm: PlainModel, X: np.ndarray):
    """``(region_of, segment_counts, R)`` by explicit comparisons.

    A value equal to a threshold belongs to the lower segment; the first
    break predictor (lowest index) varies fastest in the region numbering.
    """
    region_of = np.zeros(X.shape[0], dtype=np.int64)
    segment_counts = []
    stride = 1
    for j in sorted(pm.thresholds):
        ts = pm.thresholds[j]
        seg = np.zeros(X.shape[0], dtype=np.int64)
        for t in ts:
            seg += X[:, j] > t
        region_of += stride * seg
        segment_counts.append(np.bincount(seg, minlength=len(ts) + 1))
        stride *= len(ts) + 1
    return region_of, segment_counts, stride


def design(X: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones(X.shape[0]), X])[:, mask]


def nll(task: str, t: np.ndarray, y: np.ndarray) -> float:
    u = (2.0 * y - 1.0) * t
    if task == "logistic":
        return -float(np.sum(log_expit(u)))
    return -float(np.sum(log_ndtr(u)))


def residual_code(task: str, n: int, stat_total: float) -> float:
    if task == "regression":
        return 0.5 * n * math.log(max(stat_total / n, SIGMA2_FLOOR))
    return stat_total


def mdl_parts(
    task: str,
    P: int,
    segment_counts: list[np.ndarray],
    region_counts: np.ndarray,
    sizes: list[int],
    stat_total: float,
) -> dict[str, float]:
    """The README's criterion, term by term."""
    n = int(region_counts.sum())
    B = len(segment_counts)
    predictor = B * math.log2(P)
    per_predictor = sum(
        math.log2(B + 1) + math.log2(c.size) + sum(math.log2(v) for v in c)
        for c in segment_counts
    )
    R = len(region_counts)
    region = sum(
        math.log2(R) + 0.5 * s * math.log2(n_r)
        for s, n_r in zip(sizes, region_counts)
    )
    residual = residual_code(task, n, stat_total)
    return {
        "predictor_code": predictor,
        "per_predictor_code": per_predictor,
        "region_param_code": region,
        "residual_code": residual,
        "total": predictor + per_predictor + region + residual,
    }


def region_stats(pm: PlainModel, X: np.ndarray, y: np.ndarray, region_of) -> list[float]:
    """RSS or NLL of each region at the reported coefficients."""
    out = []
    for r, (mask, beta) in enumerate(zip(pm.masks, pm.betas)):
        rows = region_of == r
        t = design(X[rows], mask) @ beta
        if pm.task == "regression":
            e = y[rows] - t
            out.append(float(e @ e))
        else:
            out.append(nll(pm.task, t, y[rows]))
    return out


def predict(pm: PlainModel, X: np.ndarray) -> np.ndarray:
    """Fitted values or success probabilities; rows outside the training range use the outer segments."""
    region_of, _, _ = rebuild_regions(pm, X)
    t = np.empty(X.shape[0])
    for r, (mask, beta) in enumerate(zip(pm.masks, pm.betas)):
        rows = region_of == r
        t[rows] = design(X[rows], mask) @ beta
    if pm.task == "logistic":
        return expit(t)
    if pm.task == "probit":
        return ndtr(t)
    return t


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


# -- checks ------------------------------------------------------------------


def check_partition(pm: PlainModel, X: np.ndarray) -> list[str]:
    """Thresholds ascend inside each predictor's open range, every region and segment is occupied."""
    out = []
    for j, ts in pm.thresholds.items():
        if any(b <= a for a, b in zip(ts, ts[1:])):
            out.append(f"thresholds of x{j + 1} are not strictly increasing: {ts}")
        lo, hi = X[:, j].min(), X[:, j].max()
        if any(not lo < t < hi for t in ts):
            out.append(f"a threshold of x{j + 1} lies outside ({lo}, {hi}): {ts}")
    region_of, segment_counts, R = rebuild_regions(pm, X)
    if R != len(pm.masks):
        return out + [f"{len(pm.masks)} region fits for {R} regions"]
    counts = np.bincount(region_of, minlength=R)
    if counts.min() < 1 or any(c.min() < 1 for c in segment_counts):
        out.append(f"empty region or segment: region counts {counts.tolist()}")
    for r, (mask, beta) in enumerate(zip(pm.masks, pm.betas)):
        if mask.shape != (pm.P + 1,) or beta.shape != (int(mask.sum()),):
            out.append(f"region {r}: mask {mask.tolist()} and beta {beta.tolist()} disagree")
    return out


def check_mdl(pm: PlainModel, X: np.ndarray, y: np.ndarray) -> list[str]:
    """Each reported MDL part equals the README formula on the rebuilt regions."""
    region_of, segment_counts, R = rebuild_regions(pm, X)
    counts = np.bincount(region_of, minlength=R)
    if R != len(pm.masks) or counts.min() < 1 or any(c.min() < 1 for c in segment_counts):
        return ["MDL is undefined on this partition (see the partition check)"]
    stats = region_stats(pm, X, y, region_of)
    expected = mdl_parts(
        pm.task, pm.P, segment_counts, counts, [int(m.sum()) for m in pm.masks], sum(stats)
    )
    out = [
        f"mdl {k}: reported {pm.mdl[k]!r}, recomputed {v!r}"
        for k, v in expected.items()
        if not _close(pm.mdl[k], v, CODE_RTOL)
    ]
    parts = sum(pm.mdl[k] for k in MDL_PARTS[:-1])
    if not _close(parts, pm.mdl["total"], 1e-12):
        out.append(f"mdl total {pm.mdl['total']!r} is not the sum of its parts {parts!r}")
    for r, (reported, direct) in enumerate(zip(pm.fit_stats, stats)):
        if not _close(reported, direct, STAT_RTOL):
            out.append(f"region {r}: fit_stat {reported!r}, recomputed {direct!r}")
    if pm.task == "regression":
        sigma2 = max(sum(stats) / len(y), SIGMA2_FLOOR)
        if pm.sigma2_hat is None or not _close(pm.sigma2_hat, sigma2, STAT_RTOL):
            out.append(f"sigma2_hat {pm.sigma2_hat!r}, recomputed {sigma2!r}")
    return out


def _lstsq(D: np.ndarray, y: np.ndarray):
    """Coefficients and RSS, or None when the columns are rank deficient."""
    if D.shape[1] == 0:
        return np.empty(0), float(y @ y)
    if D.shape[0] < D.shape[1] or np.linalg.matrix_rank(D) < D.shape[1]:
        return None
    beta = np.linalg.lstsq(D, y, rcond=None)[0]
    e = y - D @ beta
    return beta, float(e @ e)


def check_regression_fits(pm: PlainModel, X: np.ndarray, y: np.ndarray) -> list[str]:
    """Each region's beta and RSS match an lstsq refit of its selected columns."""
    region_of, _, _ = rebuild_regions(pm, X)
    out = []
    for r, (mask, beta) in enumerate(zip(pm.masks, pm.betas)):
        rows = region_of == r
        ref = _lstsq(design(X[rows], mask), y[rows])
        if ref is None:
            out.append(f"region {r}: mask {mask.astype(int).tolist()} is rank deficient")
            continue
        beta_ls, rss = ref
        if beta.shape != beta_ls.shape or not np.all(
            np.abs(beta - beta_ls) <= BETA_RTOL * (1.0 + np.abs(beta_ls))
        ):
            out.append(f"region {r}: beta {beta.tolist()}, lstsq {beta_ls.tolist()}")
        if not _close(pm.fit_stats[r], rss, STAT_RTOL):
            out.append(f"region {r}: RSS {pm.fit_stats[r]!r}, lstsq {rss!r}")
    return out


def _all_masks(n_params: int):
    for bits in itertools.product((False, True), repeat=n_params):
        yield np.array(bits)


def check_mask_swaps(pm: PlainModel, X: np.ndarray, y: np.ndarray) -> list[str]:
    """No single region's mask, swapped for any other and refitted by lstsq, lowers the total."""
    region_of, segment_counts, R = rebuild_regions(pm, X)
    counts = np.bincount(region_of, minlength=R)
    rss = region_stats(pm, X, y, region_of)
    sizes = [int(m.sum()) for m in pm.masks]
    base = mdl_parts(pm.task, pm.P, segment_counts, counts, sizes, sum(rss))["total"]
    out = []
    for r in range(R):
        rows = region_of == r
        for mask in _all_masks(pm.P + 1):
            if np.array_equal(mask, pm.masks[r]):
                continue
            ref = _lstsq(design(X[rows], mask), y[rows])
            if ref is None:
                continue
            trial_sizes = sizes[:r] + [int(mask.sum())] + sizes[r + 1 :]
            trial_stat = sum(rss) - rss[r] + ref[1]
            total = mdl_parts(
                pm.task, pm.P, segment_counts, counts, trial_sizes, trial_stat
            )["total"]
            if total < base - CODE_RTOL * max(1.0, abs(base)):
                out.append(
                    f"region {r}: mask {mask.astype(int).tolist()} gives total "
                    f"{total!r} < {base!r}"
                )
    return out


def check_no_break(pm: PlainModel, X: np.ndarray, y: np.ndarray) -> list[str]:
    """The total does not exceed the best no-break model over all masks."""
    region_of, segment_counts, R = rebuild_regions(pm, X)
    counts = np.bincount(region_of, minlength=R)
    rss = region_stats(pm, X, y, region_of)
    total = mdl_parts(
        pm.task, pm.P, segment_counts, counts, [int(m.sum()) for m in pm.masks], sum(rss)
    )["total"]
    n = len(y)
    best = math.inf
    for mask in _all_masks(pm.P + 1):
        ref = _lstsq(design(X, mask), y)
        if ref is not None:
            best = min(best, 0.5 * mask.sum() * math.log2(n) + residual_code("regression", n, ref[1]))
    if total > best + CODE_RTOL * max(1.0, abs(best)):
        return [f"total {total!r} exceeds the best no-break model {best!r}"]
    return []


def _score_and_hessian(task: str, D: np.ndarray, y: np.ndarray, beta: np.ndarray):
    t = D @ beta
    if task == "logistic":
        p = expit(t)
        d1, d2 = p - y, p * (1.0 - p)
    else:
        sign = 2.0 * y - 1.0
        u = sign * t
        m = np.exp(-0.5 * u * u - 0.5 * math.log(2.0 * math.pi) - log_ndtr(u))
        d1, d2 = -sign * m, m * (m + u)
    return D.T @ d1, (D * d2[:, None]).T @ D


def check_classification_fits(pm: PlainModel, X: np.ndarray, y: np.ndarray) -> list[str]:
    """Single-class regions hold the clipped intercept-only fit; every other
    non-stabilized region sits at a vanishing score gradient."""
    region_of, _, _ = rebuild_regions(pm, X)
    out = []
    for r, (mask, beta) in enumerate(zip(pm.masks, pm.betas)):
        rows = region_of == r
        y_r = y[rows]
        if y_r.min() == y_r.max():
            p = min(max(float(y_r[0]), DEGENERATE_CLIP), 1.0 - DEGENERATE_CLIP)
            b0 = math.log(p / (1.0 - p)) if pm.task == "logistic" else float(ndtri(p))
            intercept_only = np.zeros(pm.P + 1, dtype=bool)
            intercept_only[0] = True
            if (
                not np.array_equal(mask, intercept_only)
                or beta.shape != (1,)
                or not _close(float(beta[0]), b0, 1e-12)
                or not pm.stabilized[r]
            ):
                out.append(
                    f"single-class region {r}: mask {mask.astype(int).tolist()}, "
                    f"beta {beta.tolist()}, stabilized {pm.stabilized[r]}; "
                    f"expected the intercept-only fit {b0!r}"
                )
            continue
        if pm.stabilized[r] or beta.size == 0:
            continue
        g, H = _score_and_hessian(pm.task, design(X[rows], mask), y_r, beta)
        try:
            decrement = float(g @ np.linalg.solve(H, g))
        except np.linalg.LinAlgError:
            out.append(f"region {r}: singular Hessian at a non-stabilized fit")
            continue
        if not decrement <= NEWTON_DECREMENT_TOL:
            out.append(f"region {r}: score gradient {g.tolist()} (Newton decrement {decrement:.3g})")
    return out


def check_model(pm: PlainModel, X: np.ndarray, y: np.ndarray) -> list[str]:
    """Every check that applies to the model's task."""
    out = check_partition(pm, X)
    if out:
        return out
    out += check_mdl(pm, X, y)
    if pm.task == "regression":
        out += check_regression_fits(pm, X, y)
        out += check_mask_swaps(pm, X, y)
        out += check_no_break(pm, X, y)
    else:
        out += check_classification_fits(pm, X, y)
    return out


def check_predictions(
    pm: PlainModel, X: np.ndarray, preds: np.ndarray, labels: np.ndarray | None = None
) -> list[str]:
    """Predictions (and 0/1 labels at probability 0.5) match an independent evaluation."""
    expected = predict(pm, X)
    if preds.shape != expected.shape:
        return [f"{preds.shape[0]} predictions for {expected.shape[0]} rows"]
    bad = np.abs(preds - expected) > PRED_RTOL * (1.0 + np.abs(expected))
    out = []
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        out.append(
            f"{int(bad.sum())} predictions differ; row {i}: {preds[i]!r} vs {expected[i]!r}"
        )
    if labels is not None and not np.array_equal(labels, (preds >= 0.5).astype(labels.dtype)):
        out.append("labels disagree with the probabilities at 0.5")
    return out
