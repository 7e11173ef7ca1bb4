"""Core domain types: datasets, change-point configurations, partitions, fits.

Everything in this module is structural: values in, values out, no fitting
and no search.  All containers are immutable after construction and safe to
share across threads.  Prediction lives here too, beside ``FittedModel``:
it needs only region assignment and each region's link, so a process that
only predicts loads neither the search nor ``scipy.linalg``.

A partition is computed from cut positions: ``_region_index`` compares
``Dataset.rank`` with them, one comparison of every row per cut, and
``partition_grid`` builds the grid from the region indices and counts.
The grid gathers no rows: the search gathers a region's rows only when it
fits that region, and ``PartitionGrid.memberships`` sorts them out of the
region indices on demand.  Threshold values (``min <= t < max`` on their
predictor) enter through ``induce_partition``, which maps them to cut
positions, and through ``assign_regions``, which places new rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
    from .mdl import MdlBreakdown

TASK_REGRESSION = "regression"
TASK_LOGISTIC = "logistic"
TASK_PROBIT = "probit"
TASKS = (TASK_REGRESSION, TASK_LOGISTIC, TASK_PROBIT)
CLASSIFICATION_TASKS = (TASK_LOGISTIC, TASK_PROBIT)


class PartwiseError(Exception):
    """Base class for all errors raised by this package."""


class InvalidConfigError(PartwiseError):
    """A change-point configuration is inconsistent with the data."""


class SingularFitError(PartwiseError):
    """A least-squares design is rank deficient for the requested mask."""


class InputError(PartwiseError):
    """User-supplied tabular input is malformed."""


class SchemaError(PartwiseError):
    """A model document and a data table disagree on columns."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class Dataset:
    """Observations ``(X, y)`` plus per-predictor sorted-order machinery.

    Parameters
    ----------
    X : array-like, shape (n, P)
        Predictor values.  Must be finite.
    y : array-like, shape (n,)
        Response.  Real valued for regression; exactly 0/1 for the
        classification tasks.
    column_names : sequence of str, optional
        Distinct predictor labels; defaults to ``x1..xP``.

    Notes
    -----
    Design vectors carry a leading 1 for the intercept, so masks and
    coefficient vectors have length ``P + 1`` with index 0 = intercept.
    ``design`` is that read-only ``(n, P + 1)`` matrix ``(1, X)``, built
    once (n * (P + 1) doubles), from which region designs are gathered.

    Thresholds are real values on the predictor scale.  The representable
    split points of predictor ``j`` are the midpoints between consecutive
    distinct sorted values; they are indexed by "cut positions": a cut at
    position ``k`` separates sorted values ``v[k]`` and ``v[k+1]``.

    ``rank[j, i]`` is the sorted position of the last value equal to
    ``X[i, j]``, so the cut at position ``k`` puts row ``i`` in the lower
    segment iff ``rank[j, i] <= k``.
    """

    def __init__(self, X, y, column_names: Sequence[str] | None = None):
        X = np.ascontiguousarray(X, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise InputError(f"X must be 2-D, got shape {X.shape}")
        n, P = X.shape
        if y.shape != (n,):
            raise InputError(f"y must have shape ({n},), got {y.shape}")
        if n == 0 or P == 0:
            raise InputError("need at least one observation and one predictor")
        if not np.isfinite(X).all():
            i, j = np.argwhere(~np.isfinite(X))[0]
            raise InputError(f"non-finite predictor value at row {i}, column {j}")
        if not np.isfinite(y).all():
            i = int(np.flatnonzero(~np.isfinite(y))[0])
            raise InputError(f"non-finite response value at row {i}")
        if column_names is None:
            column_names = tuple(f"x{j + 1}" for j in range(P))
        else:
            column_names = tuple(str(c) for c in column_names)
            if len(column_names) != P:
                raise InputError(
                    f"{len(column_names)} column names for {P} predictors"
                )
            if len(set(column_names)) != P:
                raise InputError("duplicate column names")
        self.X = _readonly(X)
        self.y = _readonly(y)
        self.design = _readonly(np.column_stack([np.ones(n), X]))
        self.n = n
        self.P = P
        self.column_names = column_names
        self.order = _readonly(np.argsort(X, axis=0, kind="stable").T)
        self.sorted_values = _readonly(np.sort(X, axis=0).T)
        self.rank = _readonly(
            np.stack(
                [
                    np.searchsorted(sv, X[:, j], side="right") - 1
                    for j, sv in enumerate(self.sorted_values)
                ]
            )
        )
        # Admissible cut positions: k such that sorted v[k] < v[k+1].
        self._cuts = tuple(
            _readonly(np.flatnonzero(sv[1:] > sv[:-1]).astype(np.int64))
            for sv in self.sorted_values
        )

    def validate_task(self, task: str) -> None:
        if task not in TASKS:
            raise InputError(f"unknown task {task!r}; expected one of {TASKS}")
        if task in CLASSIFICATION_TASKS:
            bad = np.flatnonzero((self.y != 0.0) & (self.y != 1.0))
            if bad.size:
                raise InputError(
                    f"classification response must be 0/1; row {int(bad[0])} "
                    f"has value {self.y[bad[0]]!r}"
                )

    # -- cut-position machinery -------------------------------------------

    def cut_positions(self, j: int) -> np.ndarray:
        """Admissible cut positions of predictor ``j`` (may be empty)."""
        return self._cuts[j]

    def midpoint(self, j: int, pos: int) -> float:
        """Threshold for the cut at ``pos``: the mean of ``v[pos]`` and
        ``v[pos+1]``, or ``v[pos]`` if that mean rounds up to ``v[pos+1]``."""
        sv = self.sorted_values[j]
        mid = 0.5 * (sv[pos] + sv[pos + 1])
        return float(sv[pos] if mid == sv[pos + 1] else mid)

    def snap_cut(self, j: int, pos: int) -> int | None:
        """Map an arbitrary order-statistic position to an admissible cut.

        Positions inside a run of tied values snap forward to the end of the
        run; positions past the last admissible cut snap back to it.  Returns
        None when the predictor is constant.
        """
        cuts = self._cuts[j]
        if cuts.size == 0:
            return None
        pos = max(0, min(int(pos), self.n - 2))
        k = int(np.searchsorted(cuts, pos, side="left"))
        if k == cuts.size:
            return int(cuts[-1])
        return int(cuts[k])

    def cut_of_threshold(self, j: int, t: float) -> int:
        """Cut position of threshold ``t``, which must satisfy ``min <= t < max``."""
        sv = self.sorted_values[j]
        c = int(np.searchsorted(sv, t, side="right"))
        if c == 0 or c == self.n:
            raise InvalidConfigError(
                f"threshold {t} outside the range [{sv[0]}, {sv[-1]}) "
                f"of predictor {j}"
            )
        return c - 1

    def floor_value(self, j: int, t: float) -> float:
        """Largest observed value of predictor ``j`` that is <= ``t``.

        Thresholds are identified only up to the partition they induce, so
        comparisons between thresholds are made after mapping each to the
        boundary order statistic of its lower segment.
        """
        sv = self.sorted_values[j]
        c = int(np.searchsorted(sv, t, side="right"))
        if c == 0:
            raise InvalidConfigError(
                f"threshold {t} below every value of predictor {j}"
            )
        return float(sv[c - 1])


@dataclass(frozen=True)
class ChangePointConfig:
    """Which predictors break, how many times, and at which thresholds.

    ``breaks`` maps predictor index -> strictly increasing threshold values
    (on the predictor scale).  Predictors with no thresholds are omitted.
    """

    breaks: tuple[tuple[int, tuple[float, ...]], ...]

    def __init__(self, breaks: Mapping[int, Sequence[float]]):
        items = []
        for j in sorted(breaks):
            ts = tuple(float(t) for t in breaks[j])
            if not ts:
                continue
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise InvalidConfigError(
                    f"thresholds for predictor {j} must be strictly increasing"
                )
            items.append((int(j), ts))
        object.__setattr__(self, "breaks", tuple(items))

    @property
    def break_predictors(self) -> tuple[int, ...]:
        return tuple(j for j, _ in self.breaks)

    @property
    def B(self) -> int:
        return len(self.breaks)

    def thresholds(self, j: int) -> tuple[float, ...]:
        for jj, ts in self.breaks:
            if jj == j:
                return ts
        return ()

    @property
    def num_regions(self) -> int:
        r = 1
        for _, ts in self.breaks:
            r *= len(ts) + 1
        return r

    def as_dict(self) -> dict[int, tuple[float, ...]]:
        return {j: ts for j, ts in self.breaks}


def _region_index(breaks, columns: np.ndarray) -> np.ndarray:
    """Region index of each row under the half-open convention.

    ``breaks`` is a sequence of ``(predictor, ascending breaks)`` pairs and
    ``columns[j]`` holds predictor ``j``'s entry for every row: either cut
    positions against ``Dataset.rank`` or thresholds against ``X.T``.  An
    entry equal to a break belongs to the lower segment.  Regions are
    numbered with the first (lowest-index) break predictor varying fastest.
    """
    idx = np.zeros(columns.shape[1], dtype=np.int64)
    stride = 1
    for j, ts in breaks:
        # A segment index is the number of breaks below the entry.  Counting
        # comparisons beats a binary search per row while a predictor has
        # few breaks (up to about 32).
        col = columns[j]
        for t in ts:
            idx += stride * (col > t)
        stride *= len(ts) + 1
    return idx


@dataclass(frozen=True)
class PartitionGrid:
    """The grid of regions induced by a configuration on a dataset.

    ``region_of[i]`` is the region index of observation ``i``; memberships
    and counts are derived from it.  ``segment_counts[b][z]`` is the number
    of observations whose value on break predictor ``b`` falls in that
    predictor's ``z``-th one-dimensional segment.
    """

    break_predictors: tuple[int, ...]
    thresholds: tuple[tuple[float, ...], ...]
    R: int
    region_of: np.ndarray
    region_counts: np.ndarray
    segment_counts: tuple[np.ndarray, ...]

    @property
    def n(self) -> int:
        return int(self.region_of.shape[0])

    @property
    def memberships(self) -> tuple[np.ndarray, ...]:
        """Per region, its rows in ascending order, sorted out of
        ``region_of`` on each access."""
        by_region = np.argsort(self.region_of, kind="stable")
        return tuple(np.split(by_region, np.cumsum(self.region_counts)[:-1]))

    def segments_of_region(self, r: int) -> tuple[int, ...]:
        """Per break predictor, the 1-D segment index of region ``r``."""
        out = []
        for ts in self.thresholds:
            out.append(r % (len(ts) + 1))
            r //= len(ts) + 1
        return tuple(out)

    def region_bounds(self, r: int) -> tuple[tuple[float, float], ...]:
        """Per break predictor, the half-open interval ``(lo, hi]`` of ``r``."""
        out = []
        for z, ts in zip(self.segments_of_region(r), self.thresholds):
            lo = -np.inf if z == 0 else ts[z - 1]
            hi = np.inf if z == len(ts) else ts[z]
            out.append((lo, hi))
        return tuple(out)


def induce_partition(data: Dataset, config: ChangePointConfig) -> PartitionGrid:
    """Partition ``data`` into the grid of regions defined by ``config``.

    Observation ``i`` lies in segment ``z`` of break predictor ``b`` iff
    ``k[z-1] < x[i, b] <= k[z]`` with ``-inf``/``+inf`` sentinels at the ends.
    Each threshold ``t`` must satisfy ``min <= t < max`` on its predictor; it
    is mapped to its cut position and the grid is built from cut positions,
    as the search builds it.

    Raises
    ------
    InvalidConfigError
        If any threshold falls outside ``[min, max)`` of its predictor.
    """
    for j in config.break_predictors:
        if not 0 <= j < data.P:
            raise InvalidConfigError(f"no predictor with index {j}")
    key = tuple(
        (j, tuple(data.cut_of_threshold(j, t) for t in ts))
        for j, ts in config.breaks
    )
    region_of = _region_index(key, data.rank)
    region_counts = np.bincount(region_of, minlength=config.num_regions)
    return partition_grid(config, region_of, region_counts)


def partition_grid(
    config: ChangePointConfig, region_of: np.ndarray, region_counts: np.ndarray
) -> PartitionGrid:
    """The grid of ``config``, given each row's region index and the count
    of rows in each region."""
    shape = tuple(len(ts) + 1 for _, ts in config.breaks)
    # Region r's segment on break b is digit b of r, first break fastest.
    cube = region_counts.reshape(shape, order="F")
    axes = range(len(shape))
    segment_counts = tuple(
        cube.sum(axis=tuple(a for a in axes if a != b)) for b in axes
    )
    return PartitionGrid(
        break_predictors=config.break_predictors,
        thresholds=tuple(ts for _, ts in config.breaks),
        R=math.prod(shape),
        region_of=_readonly(region_of),
        region_counts=_readonly(region_counts),
        segment_counts=segment_counts,
    )


def assign_region(thresholds: Mapping[int, Sequence[float]], x) -> int:
    """Region index of a single point under a threshold set.

    Points beyond the training range fall into the outermost segment; a
    value equal to a threshold belongs to the lower segment.  A non-finite
    coordinate raises SchemaError.
    """
    return int(assign_regions(thresholds, np.asarray(x)[None, :])[0])


def assign_regions(thresholds: Mapping[int, Sequence[float]], X) -> np.ndarray:
    """Vectorized :func:`assign_region` over the rows of ``X``.

    A non-finite entry anywhere in ``X`` raises SchemaError naming its row
    and column, as no segment holds it.
    """
    X = np.asarray(X, dtype=np.float64)
    finite = np.isfinite(X)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise SchemaError(f"non-finite predictor value at row {i}, column {j}")
    breaks = [(j, tuple(thresholds[j])) for j in sorted(thresholds)]
    return _region_index(breaks, X.T)


@dataclass
class RegionFit:
    """A fitted submodel for one region.

    ``mask`` selects the active columns of the implicit design
    ``(1, x_1, .., x_P)``; ``beta`` holds the coefficients of the selected
    columns in order.  ``fit_stat`` is the residual sum of squares for
    regression and the negative Bernoulli log-likelihood for classification.
    """

    mask: np.ndarray
    beta: np.ndarray
    fit_stat: float
    stabilized: bool = False

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        self.beta = np.asarray(self.beta, dtype=np.float64)
        if self.beta.shape != (int(self.mask.sum()),):
            raise ValueError("beta length must equal the mask popcount")

    @property
    def s(self) -> int:
        """Number of selected variables (intercept included)."""
        return int(self.mask.sum())

    def linear_predictor(self, X: np.ndarray) -> np.ndarray:
        """``x'beta`` for each row of the raw predictor matrix ``X``."""
        out = np.zeros(X.shape[0])
        if self.mask[0]:
            out += self.beta[0]
            rest = self.beta[1:]
        else:
            rest = self.beta
        cols = np.flatnonzero(self.mask[1:])
        if cols.size:
            out += X[:, cols] @ rest
        return out


@dataclass
class FittedModel:
    """A complete partition-wise model: configuration, fits, and score."""

    task: str
    config: ChangePointConfig
    column_names: tuple[str, ...]
    response_name: str
    region_fits: list[RegionFit]
    mdl: "MdlBreakdown"
    sigma2_hat: float | None
    converged: bool
    n_obs: int

    def __post_init__(self):
        if len(self.region_fits) != self.config.num_regions:
            raise ValueError(
                f"{len(self.region_fits)} fits for "
                f"{self.config.num_regions} regions"
            )


def link_inverse(task: str, t: np.ndarray) -> np.ndarray:
    """Success probability at linear predictor ``t``.

    ``scipy.special`` is imported on the first call, so a process that only
    predicts with regression models never loads scipy.
    """
    from scipy.special import expit, ndtr

    if task == TASK_LOGISTIC:
        return expit(t)
    return ndtr(t)


def predict(model: FittedModel, X) -> np.ndarray:
    """Point predictions for the rows of ``X``.

    Regression returns fitted values; classification returns success
    probabilities.  Rows beyond the training range use the outermost region.
    A non-finite value raises SchemaError naming its row and column.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(model.column_names):
        raise SchemaError(
            f"expected {len(model.column_names)} predictor columns, "
            f"got shape {X.shape}"
        )
    # assign_regions rejects a non-finite value, naming its row and column.
    regions = assign_regions(model.config.as_dict(), X)
    out = np.empty(X.shape[0])
    for r, fit in enumerate(model.region_fits):
        rows = regions == r
        if not rows.any():
            continue
        t = fit.linear_predictor(X[rows])
        if model.task in CLASSIFICATION_TASKS:
            out[rows] = link_inverse(model.task, t)
        else:
            out[rows] = t
    return out


def predict_labels(model: FittedModel, X) -> np.ndarray:
    """0/1 labels at probability threshold 0.5 (0.5 maps to 1)."""
    if model.task not in CLASSIFICATION_TASKS:
        raise ValueError("labels are only defined for classification models")
    return probability_labels(predict(model, X))


def probability_labels(probabilities: np.ndarray) -> np.ndarray:
    """0/1 labels of success probabilities at threshold 0.5 (0.5 maps to 1)."""
    return (probabilities >= 0.5).astype(np.int64)
