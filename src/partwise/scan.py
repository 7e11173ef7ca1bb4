"""Greedy univariate scan producing the candidate change-point superset.

Each predictor is scanned independently: thresholds are added one at a time
at the position minimizing the full MDL criterion for a model that breaks on
that predictor alone, with every region fitted under the full variable mask.
A greedy step scores every admissible cut at once.  It fits the left and
right segment of every cut together (one stacked solve of prefix-Gram
differences for regression; cached, warm-started Newton fits for the binary
links) and evaluates the criterion of all cuts as vectors, with the same
floating-point operations in the same order as scoring one cut at a time, so
the first minimizer is the one a cut-by-cut loop would pick.  The scan stops
at the per-predictor cap, when no position satisfies the minimum-segment
constraint, or when the best addition no longer lowers the criterion.
"""

from __future__ import annotations

import math

import numpy as np

from .fitting import (
    DEGENERATE_CLIP,
    _newton_glm,
    classification_nll,
    full_design,
    link_forward,
)
from .mdl import residual_code_regression
from .model import Dataset, TASK_REGRESSION

DEFAULT_MAX_PER_PREDICTOR = 3


def default_min_segment(P: int) -> int:
    """Minimum observations per 1-D segment: max(P + 2, 10)."""
    return max(P + 2, 10)


def _solve_each(G: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` of every system in a stack.

    Rows whose matrix LAPACK finds exactly singular come back NaN.  A stacked
    solve raises if any one matrix is singular, so a failing stack is split
    in halves until the singular systems are isolated.
    """
    try:
        return np.linalg.solve(G, c[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        if len(G) == 1:
            return np.full_like(c, np.nan)
        mid = len(G) // 2
        return np.concatenate(
            [_solve_each(G[:mid], c[:mid]), _solve_each(G[mid:], c[mid:])]
        )


class _RegressionSegments:
    """Full-mask RSS of sorted-order segments via prefix Gram sums."""

    def __init__(self, data: Dataset, j: int):
        rows = data.order[j]
        D = full_design(data, rows)
        y = data.y[rows]
        k = D.shape[1]
        self._G = np.zeros((data.n + 1, k, k))
        np.cumsum(D[:, :, None] * D[:, None, :], axis=0, out=self._G[1:])
        self._c = np.zeros((data.n + 1, k))
        np.cumsum(D * y[:, None], axis=0, out=self._c[1:])
        self._yy = np.zeros(data.n + 1)
        np.cumsum(y * y, out=self._yy[1:])

    def stat(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """RSS of every segment ``[lo_i, hi_i)`` from one stacked solve.

        Each segment gets the arithmetic of a solve of its own; a segment
        whose Gram is singular, or whose solution is not finite, falls back
        to least squares.
        """
        G = self._G[hi] - self._G[lo]
        c = self._c[hi] - self._c[lo]
        yy = self._yy[hi] - self._yy[lo]
        beta = _solve_each(G, c)
        for i in np.flatnonzero(~np.isfinite(beta).all(axis=1)):
            beta[i] = np.linalg.lstsq(G[i], c[i], rcond=None)[0]
        # A stacked matmul takes the same dot product as ``beta_i @ c_i``.
        fitted = np.matmul(beta[:, None, :], c[:, :, None])[:, 0, 0]
        return np.maximum(yy - fitted, 0.0)

    def stats(self, lo, hi, parent_lo, parent_hi) -> np.ndarray:
        """Segment statistics; least squares needs no parent fit."""
        return self.stat(lo, hi)


class _BinarySegments:
    """Full-mask negative log-likelihood of sorted-order segments."""

    def __init__(self, data: Dataset, j: int, task: str):
        rows = data.order[j]
        self._D = full_design(data, rows)
        self._y = data.y[rows]
        self.task = task
        self._beta: dict[tuple[int, int], np.ndarray] = {}
        self._cache: dict[tuple[int, int], float] = {}

    def stat(self, lo: int, hi: int, parent: tuple[int, int]) -> float:
        """NLL of segment ``[lo, hi)``, warm-started from ``parent``'s fit if any."""
        D = self._D[lo:hi]
        y = self._y[lo:hi]
        if y.min() == y.max():
            p = float(np.clip(y[0], DEGENERATE_CLIP, 1.0 - DEGENERATE_CLIP))
            t = np.full(y.size, link_forward(self.task, p))
            return classification_nll(self.task, t, y)
        beta, nll, _conv, _stab = _newton_glm(D, y, self.task, self._beta.get(parent))
        self._beta[(lo, hi)] = beta
        return nll

    def stats(self, lo, hi, parent_lo, parent_hi) -> np.ndarray:
        """Segment statistics, each fitted once and warm-started from the
        fit of the segment it was split from; a segment's first fit wins."""
        out = np.empty(len(lo))
        for i, seg in enumerate(zip(lo.tolist(), hi.tolist())):
            hit = self._cache.get(seg)
            if hit is None:
                parent = (int(parent_lo[i]), int(parent_hi[i]))
                hit = self._cache[seg] = self.stat(*seg, parent=parent)
            out[i] = hit
        return out


def _one_predictor_mdl(
    n: int,
    P: int,
    counts: np.ndarray,
    stats: np.ndarray,
    task: str,
    log2: np.ndarray,
) -> np.ndarray:
    """Full-mask MDL of models breaking on a single predictor only.

    Row ``i`` of ``counts`` and ``stats`` (shape ``(models, l + 1)``) holds
    one model's segment sizes and fit statistics, left to right.  ``log2[c]``
    is ``math.log2(c)``.  Every sum runs over the segments left to right, term
    by term, so each row's value equals the scalar criterion bit for bit.
    With no cuts this reduces to the no-break criterion.
    """
    l = counts.shape[1] - 1
    log2_counts = log2[counts]
    log2_regions = math.log2(l + 1)
    half_s_full = 0.5 * (P + 1)
    total_stat = np.zeros(len(counts))
    region = np.zeros(len(counts))
    occupancy = np.zeros(len(counts))
    for z in range(l + 1):
        total_stat = total_stat + stats[:, z]
        region = region + (log2_regions + half_s_full * log2_counts[:, z])
        occupancy = occupancy + log2_counts[:, z]
    if task == TASK_REGRESSION:
        residual = np.array(
            [residual_code_regression(n, rss) for rss in total_stat.tolist()]
        )
    else:
        residual = total_stat
    if l == 0:
        return region + residual
    structural = math.log2(P) + math.log2(2) + math.log2(l + 1) + occupancy
    return structural + region + residual


def _scan_step(
    segments,
    bounds: np.ndarray,
    seg_stats: np.ndarray,
    cuts: np.ndarray,
    n: int,
    P: int,
    task: str,
    min_segment: int,
    log2: np.ndarray,
):
    """The best cut to add to the segments ``bounds``, scoring all at once.

    Returns ``(cut position, segment index, mdl, left stat, right stat)`` for
    the first minimizer in cut order, or None when no cut is admissible or
    none scores finite.  Chosen cuts are excluded by the minimum segment.
    """
    b = cuts + 1  # boundary position of each cut
    k = np.searchsorted(bounds, b) - 1
    lo, hi = bounds[k], bounds[k + 1]
    ok = np.flatnonzero((b - lo >= min_segment) & (hi - b >= min_segment))
    if ok.size == 0:
        return None
    b, k, lo, hi = b[ok], k[ok], lo[ok], hi[ok]
    m = ok.size
    both = segments.stats(
        np.concatenate([lo, b]),
        np.concatenate([b, hi]),
        np.concatenate([lo, lo]),
        np.concatenate([hi, hi]),
    )
    left, right = both[:m], both[m:]
    # Each trial keeps the current segments, with segment k split in two.
    col = np.arange(len(seg_stats) + 1)
    src = np.where(col <= k[:, None], col, col - 1)
    stats = seg_stats[src]
    counts = np.diff(bounds)[src]
    rows = np.arange(m)
    stats[rows, k], stats[rows, k + 1] = left, right
    counts[rows, k], counts[rows, k + 1] = b - lo, hi - b
    mdl = _one_predictor_mdl(n, P, counts, stats, task, log2)
    mdl[np.isnan(mdl)] = np.inf
    i = int(np.argmin(mdl))
    if mdl[i] == np.inf:
        return None
    return int(cuts[ok[i]]), int(k[i]), mdl[i], left[i], right[i]


def _scan_one(
    data: Dataset,
    j: int,
    task: str,
    max_per: int,
    min_segment: int,
    require_improvement: bool,
    log2: np.ndarray,
) -> list[float]:
    cuts = data.cut_positions(j)
    if cuts.size == 0:
        return []
    segments = (
        _RegressionSegments(data, j)
        if task == TASK_REGRESSION
        else _BinarySegments(data, j, task)
    )
    bounds = np.array([0, data.n])
    # The whole sample is its own parent: nothing is fitted yet to start from.
    seg_stats = segments.stats(bounds[:1], bounds[1:], bounds[:1], bounds[1:])
    current = _one_predictor_mdl(
        data.n, data.P, np.diff(bounds)[None, :], seg_stats[None, :], task, log2
    )[0]

    chosen: list[int] = []
    while len(chosen) < max_per:
        step = _scan_step(
            segments, bounds, seg_stats, cuts, data.n, data.P, task, min_segment, log2
        )
        if step is None:
            break
        pos, k, best_mdl, left, right = step
        if require_improvement and best_mdl >= current:
            break
        chosen.append(pos)
        bounds = np.insert(bounds, k + 1, pos + 1)
        seg_stats = np.concatenate([seg_stats[:k], [left, right], seg_stats[k + 1 :]])
        current = best_mdl
    return [data.midpoint(j, p) for p in sorted(chosen)]


def scan_candidates(
    data: Dataset,
    task: str,
    max_per_predictor: int = DEFAULT_MAX_PER_PREDICTOR,
    min_segment: int | None = None,
    require_improvement: bool = True,
) -> dict[int, list[float]]:
    """Candidate thresholds per predictor for seeding the swarm search.

    Returns a mapping from predictor index to an ascending list of midpoint
    thresholds; predictors contributing no candidates are omitted.

    With ``require_improvement`` (the default) a predictor's greedy sequence
    also stops as soon as the best addition no longer lowers the one-predictor
    criterion, so structureless predictors yield empty lists.  The full
    fitting pipeline disables it: a break that only pays off jointly with a
    break on another predictor can look useless to every one-predictor score,
    and the swarm search needs the candidate in the superset to find it.
    Discarding such candidates costs recall that the downstream subset search
    cannot recover, while keeping them only costs the search a little time.
    """
    data.validate_task(task)
    if max_per_predictor < 1:
        raise ValueError("max_per_predictor must be at least 1")
    if min_segment is None:
        min_segment = default_min_segment(data.P)
    elif min_segment < data.P + 2:
        raise ValueError(f"min_segment must be at least P + 2 = {data.P + 2}")
    # log2[c] == math.log2(c), so vectorized code lengths match scalar ones.
    log2 = np.array([-np.inf] + [math.log2(c) for c in range(1, data.n + 1)])
    out: dict[int, list[float]] = {}
    for j in range(data.P):
        found = _scan_one(
            data, j, task, max_per_predictor, min_segment, require_improvement, log2
        )
        if found:
            out[j] = found
    return out
