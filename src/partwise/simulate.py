"""Simulation settings, data generation, and trial evaluation.

Four canonical settings are bundled: two regression designs (``reg1``,
``reg2``) with change points on two predictors each, and two classification
designs (``cls1`` with two change points on one predictor, ``cls2`` with a
discrete break predictor).  ``run_trials`` repeats generate/fit/evaluate and
``summarize_trials`` aggregates into the usual accuracy/error table.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .estimator import FitParams, fit_model
from .model import (
    ChangePointConfig,
    Dataset,
    FittedModel,
    InputError,
    TASK_LOGISTIC,
    TASK_REGRESSION,
    assign_regions,
    link_inverse,
)


@dataclass(frozen=True)
class PredictorSpec:
    """Marginal distribution of one predictor."""

    low: float
    high: float
    discrete: bool = False

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.discrete:
            return rng.integers(int(self.low), int(self.high) + 1, n).astype(
                np.float64
            )
        return rng.uniform(self.low, self.high, n)


@dataclass(frozen=True)
class SimSetting:
    """A data-generating design: predictors, true breaks, true coefficients."""

    name: str
    predictors: tuple[PredictorSpec, ...]
    true_breaks: tuple[tuple[int, tuple[float, ...]], ...]
    true_betas: tuple[tuple[float, ...], ...]  # per region, length P+1
    noise_sigma: float | None = 1.0  # regression only
    link: str | None = None  # default classification link

    @property
    def P(self) -> int:
        return len(self.predictors)

    @property
    def is_regression(self) -> bool:
        return self.noise_sigma is not None

    def true_config(self) -> ChangePointConfig:
        return ChangePointConfig({j: ts for j, ts in self.true_breaks})

    def true_masks(self) -> list[np.ndarray]:
        return [np.asarray(b) != 0.0 for b in self.true_betas]


SETTINGS: dict[str, SimSetting] = {
    "reg1": SimSetting(
        name="reg1",
        predictors=(
            PredictorSpec(0, 7),
            PredictorSpec(-5, -1),
            PredictorSpec(5, 12),
            PredictorSpec(-10, -4),
        ),
        true_breaks=((0, (4.0,)), (2, (8.5,))),
        true_betas=(
            (0.0, 2.0, -2.0, -4.0, 1.0),
            (0.0, 1.5, 1.0, 3.5, -2.0),
            (0.0, -1.5, -4.3, -1.7, -2.6),
            (0.0, -3.0, -1.0, 2.0, 1.0),
        ),
        noise_sigma=1.0,
    ),
    "reg2": SimSetting(
        name="reg2",
        predictors=(
            PredictorSpec(4, 8),
            PredictorSpec(-5, 0),
            PredictorSpec(-9, -3),
            PredictorSpec(0, 3),
        ),
        true_breaks=((0, (6.0,)), (3, (1.5,))),
        true_betas=(
            (0.0, 0.0, 4.2, -4.6, 0.0),
            (0.0, 0.0, -4.2, -4.6, 0.0),
            (0.0, 0.0, 4.2, 4.6, 0.0),
            (0.0, 0.0, -4.2, 4.6, 0.0),
        ),
        noise_sigma=1.0,
    ),
    "cls1": SimSetting(
        name="cls1",
        predictors=(
            PredictorSpec(0, 30),
            PredictorSpec(0, 10),
            PredictorSpec(0, 10),
        ),
        true_breaks=((0, (10.0, 20.0)),),
        true_betas=(
            (0.0, 1.0, -1.5, 0.0),
            (0.0, 1.0, -4.5, 0.0),
            (15.0, -1.0, 2.0, 0.0),
        ),
        noise_sigma=None,
        link=TASK_LOGISTIC,
    ),
    "cls2": SimSetting(
        name="cls2",
        predictors=(
            PredictorSpec(0, 6, discrete=True),
            PredictorSpec(0, 20),
            PredictorSpec(-10, 10),
        ),
        true_breaks=((0, (3.0,)), (2, (0.0,))),
        true_betas=(
            (0.0, 0.0, 2.1, 5.1),
            (0.0, 0.0, 4.0, 2.4),
            (0.0, 0.0, 4.2, -5.0),
            (0.0, 0.0, -2.9, 3.2),
        ),
        noise_sigma=None,
        link=TASK_LOGISTIC,
    ),
}


def generate(
    setting: SimSetting,
    n: int,
    rng: np.random.Generator,
    sigma: float | None = None,
    link: str | None = None,
) -> Dataset:
    """Draw a dataset from a setting's design.

    Predictors are sampled from their marginals, each point's region comes
    from the true configuration, and the response is the region-wise linear
    mean plus N(0, sigma^2) noise (regression) or a Bernoulli draw through
    the link (classification).
    """
    if n < 50:
        raise InputError("n must be at least 50")
    X = np.column_stack([spec.draw(n, rng) for spec in setting.predictors])
    regions = assign_regions({j: ts for j, ts in setting.true_breaks}, X)
    D = np.column_stack([np.ones(n), X])
    betas = np.asarray(setting.true_betas)
    mean = np.einsum("ij,ij->i", D, betas[regions])
    if setting.is_regression:
        s = setting.noise_sigma if sigma is None else sigma
        y = mean + rng.normal(0.0, 1.0, n) * s
    else:
        task = link or setting.link or TASK_LOGISTIC
        p = link_inverse(task, mean)
        y = (rng.random(n) < p).astype(np.float64)
    return Dataset(X, y)


@dataclass
class TrialResult:
    """Recovery metrics of one generate/fit/evaluate trial."""

    correct_BL: bool
    cp_errors: tuple[tuple[int, tuple[float, ...]], ...]  # only when correct_BL
    region_masks_correct: tuple[bool, ...]  # only when correct_BL
    runtime_ms: float = 0.0


def evaluate_trial(
    setting: SimSetting, fitted: FittedModel, data: Dataset
) -> TrialResult:
    """Compare a fitted model against the truth behind its training draw.

    ``correct_BL`` requires the estimated break-predictor set and the
    per-predictor change-point counts to match exactly.  Change-point errors
    are signed differences in predictor units after mapping both thresholds
    to the boundary order statistic of the training draw (the largest
    observed value not exceeding the threshold): thresholds are identified
    only up to the partition they induce, so two thresholds that split the
    data identically compare as equal.
    """
    truth = {j: ts for j, ts in setting.true_breaks}
    est = fitted.config.as_dict()
    correct = set(est) == set(truth) and all(
        len(est[j]) == len(truth[j]) for j in truth
    )
    if not correct:
        return TrialResult(False, (), ())
    cp_errors = []
    for j in sorted(truth):
        errs = tuple(
            data.floor_value(j, e) - data.floor_value(j, t)
            for e, t in zip(est[j], truth[j])
        )
        cp_errors.append((j, errs))
    masks = tuple(
        bool(np.array_equal(fit.mask, tm))
        for fit, tm in zip(fitted.region_fits, setting.true_masks())
    )
    return TrialResult(True, tuple(cp_errors), masks)


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent per-trial stream; distinct indices never collide."""
    return np.random.default_rng([seed & 0xFFFFFFFF, 7, index])


def run_trial(
    setting_name: str,
    n: int,
    seed: int,
    index: int,
    sigma: float | None = None,
    link: str | None = None,
    fit_params: FitParams | None = None,
) -> TrialResult:
    """One generate/fit/evaluate cycle, fully determined by (seed, index)."""
    setting = SETTINGS[setting_name]
    rng = trial_rng(seed, index)
    data = generate(setting, n, rng, sigma=sigma, link=link)
    task = TASK_REGRESSION if setting.is_regression else (link or setting.link)
    params = fit_params or FitParams()
    params = replace(params, seed=int(np.random.default_rng(
        [seed & 0xFFFFFFFF, 13, index]).integers(2**31)))
    t0 = time.perf_counter()
    outcome = fit_model(data, task, params)
    elapsed = (time.perf_counter() - t0) * 1000.0
    result = evaluate_trial(setting, outcome.model, data)
    result.runtime_ms = elapsed
    return result


def run_trials(
    setting_name: str,
    n: int,
    trials: int,
    seed: int = 1,
    sigma: float | None = None,
    link: str | None = None,
    fit_params: FitParams | None = None,
    threads: int = 1,
) -> list[TrialResult]:
    """Repeat :func:`run_trial`; order-independent and seed-reproducible.

    At most ``min(threads, trials)`` worker processes are started.
    """
    if trials < 1:
        raise InputError(f"trials must be at least 1, got {trials}")
    args = [
        (setting_name, n, seed, i, sigma, link, fit_params)
        for i in range(trials)
    ]
    workers = min(threads, trials)
    if workers <= 1:
        return [run_trial(*a) for a in args]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_trial_star, args))


def _run_trial_star(args) -> TrialResult:
    return run_trial(*args)


@dataclass
class TrialSummary:
    """Aggregate of a batch of trials."""

    setting: str
    n: int
    noise: str
    trials: int
    n_correct: int
    pct_correct_BL: float
    cp_stats: tuple[tuple[int, int, float, float], ...]  # (pred, idx, mean, se)
    mask_accuracy: tuple[float, ...]

    def to_rows(self, delim: str = ",") -> list[str]:
        head = ["setting", "n", "noise", "trials", "pct_correct_BL"]
        vals = [
            self.setting,
            str(self.n),
            self.noise,
            str(self.trials),
            f"{self.pct_correct_BL:.4f}",
        ]
        for j, idx, mean, se in self.cp_stats:
            head += [f"cp_x{j + 1}_{idx + 1}_mean", f"cp_x{j + 1}_{idx + 1}_se"]
            vals += [f"{mean:.6f}", f"{se:.6f}"]
        for r, acc in enumerate(self.mask_accuracy):
            head.append(f"mask_acc_region{r + 1}")
            vals.append(f"{acc:.4f}")
        return [delim.join(head), delim.join(vals)]


def summarize_trials(
    setting_name: str,
    n: int,
    noise: str,
    results: list[TrialResult],
) -> TrialSummary:
    """Mean/se of change-point errors and mask accuracy over correct trials."""
    setting = SETTINGS[setting_name]
    correct = [r for r in results if r.correct_BL]
    cp_stats = []
    for slot, (j, ts) in enumerate(setting.true_breaks):
        for idx in range(len(ts)):
            errs = np.array([r.cp_errors[slot][1][idx] for r in correct])
            if errs.size == 0:
                cp_stats.append((j, idx, float("nan"), float("nan")))
            else:
                mean = float(errs.mean())
                se = float(errs.std(ddof=1) / np.sqrt(errs.size)) if errs.size > 1 else 0.0
                cp_stats.append((j, idx, mean, se))
    R = setting.true_config().num_regions
    if correct:
        mask_acc = tuple(
            float(np.mean([r.region_masks_correct[r_idx] for r in correct]))
            for r_idx in range(R)
        )
    else:
        mask_acc = tuple(float("nan") for _ in range(R))
    return TrialSummary(
        setting=setting_name,
        n=n,
        noise=noise,
        trials=len(results),
        n_correct=len(correct),
        pct_correct_BL=len(correct) / len(results) if results else float("nan"),
        cp_stats=tuple(cp_stats),
        mask_accuracy=mask_acc,
    )


def trial_table(results: list[TrialResult], delim: str = ",") -> list[str]:
    """Per-trial delimited rows: correctness, flattened errors, runtime."""
    lines = [delim.join(["trial", "correct_BL", "cp_errors", "masks_correct", "runtime_ms"])]
    for i, r in enumerate(results):
        errs = ";".join(
            f"x{j + 1}:{e:.6g}" for j, ts in r.cp_errors for e in ts
        )
        masks = ";".join(str(int(m)) for m in r.region_masks_correct)
        lines.append(
            delim.join(
                [str(i), str(int(r.correct_BL)), errs, masks, f"{r.runtime_ms:.1f}"]
            )
        )
    return lines
