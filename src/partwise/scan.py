"""Greedy univariate scan producing the candidate change-point superset.

Each predictor is scanned independently: thresholds are added one at a time
at the position minimizing the full MDL criterion for a model that breaks on
that predictor alone, with every region fitted under the full variable mask.
A greedy step scores every admissible cut at once.  It fits the left and
right segment of every cut together and evaluates the criterion of all cuts
as vectors, with the same floating-point operations in the same order as
scoring one cut at a time.  For regression the fits are one stacked
Cholesky solve of prefix-Gram differences (``fitting.solve_spd_stack``, with
least squares for the segments its rank rule rejects).  For the binary links
the step's new segments are fitted in one stacked damped-Newton solve
(``fitting.newton_glm_windows``), each warm-started from the segment it
splits.  Both agree with one-at-a-time fits to rounding, and the candidates
equal the cut-by-cut loop's on the bundled designs (``tests/test_scan.py``).
A regression scan keeps the RSS of every prefix segment ``[0, b)`` and
suffix segment ``[b, n)`` it solves, so later steps solve only interior
segments.  A predictor's scan stops at the per-predictor cap, or when no
position satisfies the minimum-segment constraint or scores finite; it does
not stop when the best addition fails to lower the criterion.
"""

from __future__ import annotations

import math

import numpy as np

from .fitting import (
    _newton_glm, full_design, newton_glm_windows, single_class_fit, solve_spd_stack
)
from .mdl import SIGMA2_FLOOR
from .model import Dataset, InputError, TASK_REGRESSION

DEFAULT_MAX_PER_PREDICTOR = 3


def default_min_segment(P: int) -> int:
    """Minimum observations per 1-D segment: max(P + 2, 10)."""
    return max(P + 2, 10)


class _RegressionSegments:
    """Full-mask RSS of sorted-order segments via prefix Gram sums.

    Segments are solved by ``fitting.solve_spd_stack``, the Cholesky solve
    and rank rule of every other least-squares fit, stacked; the systems it
    rejects go to least squares one by one.  The RSS of every prefix segment ``[0, b)`` and suffix segment ``[b, n)``
    is kept once solved.  Each greedy step after the first meets again the
    prefixes and suffixes the first step solved, so only its interior
    segments are solved.
    """

    def __init__(self, data: Dataset, j: int):
        rows = data.order[j]
        self._n = data.n
        self._prefix = np.full(data.n + 1, np.nan)  # RSS of [0, b), by b
        self._suffix = np.full(data.n + 1, np.nan)  # RSS of [b, n), by b
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
        """RSS of every segment ``[lo_i, hi_i)``, solved as one stack."""
        G = self._G[hi] - self._G[lo]
        c = self._c[hi] - self._c[lo]
        yy = self._yy[hi] - self._yy[lo]
        beta, solved = solve_spd_stack(G, c)
        for i in np.flatnonzero(~solved):
            beta[i] = np.linalg.lstsq(G[i], c[i], rcond=None)[0]
        # A stacked matmul takes the same dot product as ``beta_i @ c_i``.
        fitted = np.matmul(beta[:, None, :], c[:, :, None])[:, 0, 0]
        return np.maximum(yy - fitted, 0.0)

    def stats(self, lo, hi, parent_lo, parent_hi) -> np.ndarray:
        """Segment statistics; least squares needs no parent fit.

        Interior segments, and prefix and suffix segments not seen before,
        go to ``stat``; kept values are read back.  Each system of a
        stacked solve gets the arithmetic of a solve of its own, so a kept
        value equals a fresh one bit for bit.
        """
        at_start, at_end = lo == 0, hi == self._n
        out = np.full(len(lo), np.nan)
        out[at_start] = self._prefix[hi[at_start]]
        out[at_end] = self._suffix[lo[at_end]]
        new = np.flatnonzero(np.isnan(out))
        if new.size:
            fresh = self.stat(lo[new], hi[new])
            out[new] = fresh
            first, last = at_start[new], at_end[new]
            self._prefix[hi[new][first]] = fresh[first]
            self._suffix[lo[new][last]] = fresh[last]
        return out


class _BinarySegments:
    """Full-mask negative log-likelihood of sorted-order segments.

    Each segment is fitted once and warm-started from the fit of the
    segment it was split from.  ``stat`` fits one segment through
    ``_newton_glm``; the scan sends it the whole sample, which has no
    parent fit.  ``stats`` fits all of a greedy step's new mixed-class
    segments in one stacked solve (``newton_glm_windows``) under the same
    Newton rules.  A single-class segment takes ``single_class_fit``.
    """

    def __init__(self, data: Dataset, j: int, task: str):
        rows = data.order[j]
        self._D = full_design(data, rows)
        self._y = data.y[rows]
        self._ones = np.concatenate([[0.0], np.cumsum(self._y)])  # ones in [0, b)
        self.task = task
        self._beta: dict[tuple[int, int], np.ndarray] = {}
        self._cache: dict[tuple[int, int], float] = {}

    def stat(self, lo: int, hi: int, parent: tuple[int, int]) -> float:
        """NLL of segment ``[lo, hi)``, warm-started from ``parent``'s fit if any."""
        D = self._D[lo:hi]
        y = self._y[lo:hi]
        if y.min() == y.max():
            return single_class_fit(self.task, y)[1]
        beta, nll, _conv, _stab = _newton_glm(D, y, self.task, self._beta.get(parent))
        self._beta[(lo, hi)] = beta
        return nll

    def stats(self, lo, hi, parent_lo, parent_hi) -> np.ndarray:
        """Segment statistics; a segment's first fit wins.

        A segment that is its own parent (the whole sample) goes to
        ``stat``.  Every other new segment is fitted in one stacked solve,
        warm-started from its parent's fit.
        """
        ones = self._ones[hi] - self._ones[lo]
        single = (ones == 0) | (ones == hi - lo)
        out = np.empty(len(lo))
        batch: dict[tuple[int, int], list[int]] = {}
        for i, seg in enumerate(zip(lo.tolist(), hi.tolist())):
            hit = self._cache.get(seg)
            if hit is not None:
                out[i] = hit
            elif seg in batch:
                batch[seg].append(i)
            elif single[i]:
                y = self._y[seg[0] : seg[1]]
                out[i] = self._cache[seg] = single_class_fit(self.task, y)[1]
            elif seg == (parent_lo[i], parent_hi[i]):
                out[i] = self._cache[seg] = self.stat(*seg, parent=seg)
            else:
                batch[seg] = [i]
        if batch:
            first = [at[0] for at in batch.values()]
            parents = zip(parent_lo[first].tolist(), parent_hi[first].tolist())
            cold = np.zeros(self._D.shape[1])
            beta0 = np.array([self._beta.get(p, cold) for p in parents])
            segs = np.array(list(batch), dtype=np.int64)
            beta, nll, _stab = newton_glm_windows(
                self._D, self._y, self.task, segs[:, 0], segs[:, 1], beta0
            )
            for seg, at, b, value in zip(batch, batch.values(), beta, nll.tolist()):
                self._beta[seg] = b
                self._cache[seg] = value
                out[at] = value
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
        # residual_code_regression term by term.  math.log, not np.log: the
        # two can differ in the last bit.
        sigma2 = np.maximum(total_stat / n, SIGMA2_FLOOR)
        residual = 0.5 * n * np.array(list(map(math.log, sigma2.tolist())))
    else:
        residual = total_stat
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

    Returns ``(cut position, segment index, left stat, right stat)`` for
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
    return int(cuts[ok[i]]), int(k[i]), left[i], right[i]


def _scan_one(
    data: Dataset,
    j: int,
    task: str,
    max_per: int,
    min_segment: int,
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
    # The first step's binary fits warm-start from this fit.
    seg_stats = segments.stats(bounds[:1], bounds[1:], bounds[:1], bounds[1:])
    chosen: list[int] = []
    while len(chosen) < max_per:
        step = _scan_step(
            segments, bounds, seg_stats, cuts, data.n, data.P, task, min_segment, log2
        )
        if step is None:
            break
        pos, k, left, right = step
        chosen.append(pos)
        bounds = np.insert(bounds, k + 1, pos + 1)
        seg_stats = np.concatenate([seg_stats[:k], [left, right], seg_stats[k + 1 :]])
    return [data.midpoint(j, p) for p in sorted(chosen)]


def scan_candidates(
    data: Dataset,
    task: str,
    max_per_predictor: int = DEFAULT_MAX_PER_PREDICTOR,
    min_segment: int | None = None,
) -> dict[int, list[float]]:
    """Candidate thresholds per predictor for seeding the swarm search.

    Returns a mapping from predictor index to an ascending list of midpoint
    thresholds; predictors contributing no candidates are omitted.

    Each predictor is scanned to its cap even when a break does not lower
    the one-predictor criterion: a break that pays off only jointly with a
    break on another predictor looks useless to every one-predictor score.
    """
    data.validate_task(task)
    if max_per_predictor < 1:
        raise InputError("max_per_predictor must be at least 1")
    if min_segment is None:
        min_segment = default_min_segment(data.P)
    elif min_segment < data.P + 2:
        raise InputError(f"min_segment must be at least P + 2 = {data.P + 2}")
    # log2[c] == math.log2(c), so vectorized code lengths match scalar ones.
    log2 = np.array([-np.inf] + [math.log2(c) for c in range(1, data.n + 1)])
    out: dict[int, list[float]] = {}
    for j in range(data.P):
        found = _scan_one(data, j, task, max_per_predictor, min_segment, log2)
        if found:
            out[j] = found
    return out
