"""Two-part MDL scores for partition-wise models.

``mdl_score`` is the one entry point; regression and the binary links share
its three structural parts and differ only in the residual part.  Code
lengths use base-2 logs; the Gaussian residual term uses the natural log.
The breakdown keeps the four parts separate so reports can audit each term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import Dataset, PartitionGrid, RegionFit, TASK_REGRESSION

SIGMA2_FLOOR = 1e-12


@dataclass(frozen=True)
class MdlBreakdown:
    """The four code-length parts of the MDL score and their sum.

    predictor_code
        ``B * log2(P)`` bits naming the break predictors.
    per_predictor_code
        Per break predictor: ``log2(B+1) + log2(l_b+1) + sum_z log2 n_zb``
        for its change-point count and segment occupancies.
    region_param_code
        Per region: ``log2(R) + (s_r / 2) * log2(n_r)`` for its coefficient
        vector.
    residual_code
        ``(n/2) * log(sigma2_hat)`` for regression (natural log), or the
        summed negative log-likelihood for classification.
    """

    predictor_code: float
    per_predictor_code: float
    region_param_code: float
    residual_code: float
    total: float


def residual_code_regression(n: int, rss_total: float) -> float:
    """``(n/2) log(sigma2_hat)`` with the variance floored at SIGMA2_FLOOR."""
    sigma2 = max(rss_total / n, SIGMA2_FLOOR)
    return 0.5 * n * math.log(sigma2)


def mdl_score(
    data: Dataset,
    grid: PartitionGrid,
    fits: Sequence[RegionFit],
    task: str,
) -> MdlBreakdown:
    """MDL score of a partition-wise model.

    ``fits`` must hold one fit per region of ``grid`` in region order.  For
    regression their ``fit_stat`` values are the region RSS terms and the
    residual part is ``(n/2) log(sigma2_hat)``; for the logistic and probit
    links they are the region negative log-likelihoods, summed.
    """
    B = len(grid.break_predictors)
    predictor_code = B * math.log2(data.P)
    per_predictor = 0.0
    for counts in grid.segment_counts:
        if counts.min() < 1:
            raise ValueError("MDL is undefined for empty segments")
        l_b = counts.size - 1
        per_predictor += (
            math.log2(B + 1) + math.log2(l_b + 1) + float(np.log2(counts).sum())
        )
    if grid.region_counts.min() < 1:
        raise ValueError("MDL is undefined for empty regions")
    log2R = math.log2(grid.R)
    region_s = np.asarray([f.s for f in fits])
    region_param = float(np.sum(log2R + 0.5 * region_s * np.log2(grid.region_counts)))
    residual = float(sum(f.fit_stat for f in fits))
    if task == TASK_REGRESSION:
        residual = residual_code_regression(data.n, residual)
    return MdlBreakdown(
        predictor_code=predictor_code,
        per_predictor_code=per_predictor,
        region_param_code=region_param,
        residual_code=residual,
        total=predictor_code + per_predictor + region_param + residual,
    )
