"""Two-part MDL code lengths of partition-wise models.

This is the one module that knows the criterion.  Its parts,
``structure_bits``, ``region_bits`` and ``residual_bits``, take counts and
fit statistics one segment or region at a time, as numbers or as arrays
over many models.  ``total_bits`` adds them up; the scan scores all the cuts
of a greedy step with it, and ``mdl_score`` is its one-model case.  Sums run
left to right, term by term, and logs are ``math.log2`` and ``math.log`` of
one value at a time: ``np.log2`` and ``np.log`` can differ in the last bit,
and near-tied cuts would then break differently in the scan and the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import Dataset, InputError, PartitionGrid, RegionFit, TASKS, TASK_REGRESSION

SIGMA2_FLOOR = 1e-12


@dataclass(frozen=True)
class MdlBreakdown:
    """The parts of the MDL score and their sum: ``predictor_code`` is the
    ``B log2 P`` of ``structure_bits`` and ``per_predictor_code`` the rest of
    it, ``region_param_code`` is ``region_bits`` and ``residual_code``
    ``residual_bits``."""

    predictor_code: float
    per_predictor_code: float
    region_param_code: float
    residual_code: float
    total: float


_LOG2 = np.array([-np.inf])


def log2_counts(counts):
    """``math.log2`` of a count, or of every count in an array, looked up in
    ``_LOG2``, a table of ``math.log2`` values grown on demand."""
    global _LOG2
    if not isinstance(counts, np.ndarray):
        return math.log2(counts)
    top = int(counts.max(initial=0))
    if top >= _LOG2.size:
        stop = max(top + 1, 2 * _LOG2.size)
        _LOG2 = np.concatenate([_LOG2, [math.log2(c) for c in range(_LOG2.size, stop)]])
    return _LOG2[counts]


def _fold(values):
    """The sum of ``values``, left to right from 0.0."""
    total = 0.0
    for v in values:
        total = total + v
    return total


def _naming_bits(P: int, B: int) -> float:
    """``B log2 P`` bits naming the break predictors."""
    return B * math.log2(P)


def _change_points(bits, segment_counts: Sequence):
    """``bits`` plus every break predictor's change-point code, term by term."""
    B = len(segment_counts)
    for counts in segment_counts:
        bits = bits + math.log2(B + 1) + math.log2(len(counts))
        bits = bits + _fold(map(log2_counts, counts))
    return bits


def structure_bits(P: int, segment_counts: Sequence):
    """``B log2 P`` plus, per break predictor, ``log2(B+1) + log2(l_b+1) +
    sum_z log2 n_zb``; ``segment_counts[b]`` lists the occupancies of break
    predictor ``b``'s segments, left to right."""
    return _change_points(_naming_bits(P, len(segment_counts)), segment_counts)


def coefficient_bits(n_r):
    """The price ``log2(n_r) / 2`` of one coefficient in a region of ``n_r``
    rows."""
    return 0.5 * log2_counts(n_r)


def region_bits(s: Sequence, region_counts: Sequence):
    """``sum_r log2 R + s_r log2(n_r) / 2`` over the regions, in order."""
    log2R = math.log2(len(region_counts))
    return _fold(log2R + s_r * coefficient_bits(n_r) for s_r, n_r in zip(s, region_counts))


def sigma2_hat(n: int, rss):
    """The Gaussian variance estimate ``rss / n``, floored at SIGMA2_FLOOR."""
    if isinstance(rss, np.ndarray):
        return np.maximum(rss / n, SIGMA2_FLOOR)
    return max(rss / n, SIGMA2_FLOOR)


def residual_bits(task: str, n: int, stat_total):
    """The residual code of fits whose statistics sum to ``stat_total``:
    ``(n/2) ln sigma2_hat`` of the RSS for regression, the negative
    log-likelihood itself for logistic and probit."""
    if task != TASK_REGRESSION:
        return stat_total
    sigma2 = sigma2_hat(n, stat_total)
    if isinstance(sigma2, np.ndarray):
        return 0.5 * n * np.array(list(map(math.log, sigma2.tolist())))
    return 0.5 * n * math.log(sigma2)


def total_bits(P: int, n: int, task: str, segment_counts, s, region_counts, region_stats):
    """The criterion of models on a table of ``n`` rows and ``P``
    predictors: ``structure_bits + region_bits + residual_bits``.
    ``region_stats`` holds each region's RSS (regression) or negative
    log-likelihood (logistic, probit), in region order."""
    structure = structure_bits(P, segment_counts)
    region = region_bits(s, region_counts)
    return structure + region + residual_bits(task, n, _fold(region_stats))


def mdl_score(
    data: Dataset,
    grid: PartitionGrid,
    fits: Sequence[RegionFit],
    task: str,
) -> MdlBreakdown:
    """MDL score of a partition-wise model, with its total summed as
    ``total_bits`` sums it.

    ``fits`` must hold one fit per region of ``grid`` in region order.  For
    regression their ``fit_stat`` values are the region RSS terms; for the
    logistic and probit links they are the region negative log-likelihoods.
    """
    if task not in TASKS:
        raise InputError(f"unknown task {task!r}; expected one of {TASKS}")
    region_counts = grid.region_counts.tolist()
    if min(region_counts) < 1:  # an empty segment empties its regions too
        raise ValueError("MDL is undefined for empty regions or segments")
    segments = [counts.tolist() for counts in grid.segment_counts]
    predictor = _naming_bits(data.P, len(segments))
    structure = _change_points(predictor, segments)
    region = region_bits([f.s for f in fits], region_counts)
    residual = residual_bits(task, data.n, _fold(float(f.fit_stat) for f in fits))
    return MdlBreakdown(
        predictor_code=predictor,
        per_predictor_code=_change_points(0.0, segments),
        region_param_code=region,
        residual_code=residual,
        total=structure + region + residual,
    )
