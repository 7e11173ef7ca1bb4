"""End-to-end fitting pipeline.

``fit_model`` chains the candidate scan, the swarm search, the final
adjustment, and per-region feature selection into a single fitted model.
Prediction lives in :mod:`partwise.model`; ``predict``,
``predict_labels`` and ``assign_regions`` are re-exported here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .bpso import BpsoParams, run_bpso
from .mdl import sigma2_hat
from .model import (  # noqa: F401 (the prediction names are re-exported)
    Dataset,
    FittedModel,
    InputError,
    TASK_REGRESSION,
    assign_regions,
    predict,
    predict_labels,
)
from .refine import ConfigScorer, ScoredConfig, final_adjust
from .scan import DEFAULT_MAX_PER_PREDICTOR, default_min_segment, scan_candidates


@dataclass
class FitParams:
    """Everything tunable about the fitting pipeline."""

    max_cp_per_predictor: int = DEFAULT_MAX_PER_PREDICTOR
    min_segment: int | None = None
    swarm: BpsoParams = field(default_factory=BpsoParams)
    seed: int = 0


@dataclass
class FitOutcome:
    """A fitted model plus diagnostics of the search that produced it."""

    model: FittedModel
    candidates: dict[int, list[float]]
    bpso_iterations: int
    bpso_converged: bool
    evaluations: int


def fit_model(
    data: Dataset,
    task: str,
    params: FitParams | None = None,
    response_name: str = "y",
) -> FitOutcome:
    """Fit a partition-wise model by MDL minimization.

    Runs ``scan_candidates -> run_bpso -> final_adjust`` (feature selection
    is part of every configuration's score).  When no candidate survives
    the scan the model degenerates to the no-break configuration.

    Raises InputError when the table has fewer rows than predictors: every
    region must hold at least P rows, so no configuration is feasible, not
    even the no-break one.  Out-of-range swarm options raise InputError
    before the scan runs.
    """
    if params is None:
        params = FitParams()
    data.validate_task(task)
    params.swarm.check()
    if data.n < data.P:
        raise InputError(
            f"{data.n} rows for {data.P} predictors: fitting needs at least "
            "as many rows as predictors"
        )
    min_segment = (
        default_min_segment(data.P)
        if params.min_segment is None
        else params.min_segment
    )
    if data.n < 2 * min_segment:
        warnings.warn(
            f"n={data.n} < 2*min_segment={2 * min_segment}: "
            "no split is admissible, fitting the no-break model",
            stacklevel=2,
        )
    candidates = scan_candidates(data, task, params.max_cp_per_predictor, min_segment)
    scorer = ConfigScorer(data, task)
    result = run_bpso(
        data, task, candidates, params.swarm, seed=params.seed, scorer=scorer
    )
    # Iterate the adjustment to a fixpoint: each pass only shifts around the
    # positions it was handed, so chained moves need repeated passes.  The
    # score strictly decreases across passes, which bounds the loop.
    best = result.scored
    for _ in range(50):
        adj = final_adjust(data, task, best.config, scorer=scorer)
        if adj.key == best.key:
            break
        best = adj
    model = _to_model(data, task, best, response_name, result.converged)
    return FitOutcome(
        model=model,
        candidates=candidates,
        bpso_iterations=result.iterations,
        bpso_converged=result.converged,
        evaluations=scorer.evaluations,
    )


def _to_model(
    data: Dataset,
    task: str,
    scored: ScoredConfig,
    response_name: str,
    converged: bool,
) -> FittedModel:
    sigma2 = None
    if task == TASK_REGRESSION:
        rss = sum(f.fit_stat for f in scored.selection.fits)
        sigma2 = sigma2_hat(data.n, rss)
    return FittedModel(
        task=task,
        config=scored.config,
        column_names=data.column_names,
        response_name=response_name,
        region_fits=scored.selection.fits,
        mdl=scored.selection.breakdown,
        sigma2_hat=sigma2,
        converged=converged,
        n_obs=data.n,
    )
