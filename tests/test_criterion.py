"""The criterion's bitwise form: one operation order for every caller.

``mdl.mdl_score`` is the one-model case of ``mdl.total_bits``, the array
function the scan scores a greedy step's cuts with.  Both must equal the
scalar criterion: every sum left to right, logs by ``math.log2`` and
``math.log``.  ``np.log2`` differs from ``math.log2`` in the last bit at some
counts on some builds (1,621, 3,242 and 6,484 among them), and a criterion
that mixed the two would break near-ties differently in the scan and in the
search.  These tests fit nothing.
"""

import math

import numpy as np
import pytest

from partwise import ChangePointConfig, Dataset, InputError, RegionFit, mdl_score
from partwise.mdl import SIGMA2_FLOOR, log2_counts, total_bits
from partwise.model import partition_grid

TASKS = ["regression", "logistic", "probit"]


def scalar_criterion(P, n, task, segment_counts, s, region_counts, stats):
    """The criterion term by term in plain Python floats, left to right."""
    B = len(segment_counts)
    structure = B * math.log2(P)
    for seg in segment_counts:
        structure = structure + math.log2(B + 1) + math.log2(len(seg))
        occupancy = 0.0
        for c in seg:
            occupancy += math.log2(c)
        structure += occupancy
    R = len(region_counts)
    region = 0.0
    for s_r, n_r in zip(s, region_counts):
        region += math.log2(R) + 0.5 * s_r * math.log2(n_r)
    stat = 0.0
    for v in stats:
        stat += v
    if task == "regression":
        residual = 0.5 * n * math.log(max(stat / n, SIGMA2_FLOOR))
    else:
        residual = stat
    return structure + region + residual


def table(n, P, seed=0):
    """A table of ``n`` rows whose predictor 0 is 0, 1, ..., n-1, so a
    threshold at ``c - 0.5`` puts exactly ``c`` rows below it."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, (n, P))
    X[:, 0] = np.arange(n)
    return Dataset(X, (rng.random(n) < 0.5).astype(float))


def fits_for(rng, P, R, full_mask=False):
    fits = []
    for _ in range(R):
        mask = np.ones(P + 1, dtype=bool) if full_mask else rng.random(P + 1) < 0.6
        fits.append(RegionFit(mask, np.zeros(int(mask.sum())), float(rng.uniform(0.0, 50.0))))
    return fits


def test_log2_counts_is_math_log2():
    counts = np.arange(1, 200_001)
    assert log2_counts(counts).tolist() == [math.log2(c) for c in range(1, 200_001)]
    awkward = [1621, 3242, 6484]
    assert [log2_counts(c) for c in awkward] == log2_counts(np.array(awkward)).tolist()


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize(
    "breaks, region_counts",
    [
        ({0: [1620.5]}, [1621, 3242]),
        # Two break predictors, each with segments of 1,621 and 3,242 rows.
        ({0: [0.5], 1: [0.5]}, [621, 1000, 1000, 2242]),
    ],
    ids=["one-break", "two-breaks"],
)
def test_mdl_score_is_the_scalar_criterion_at_awkward_counts(task, breaks, region_counts):
    P = 3
    region_counts = np.array(region_counts)
    d = table(int(region_counts.sum()), P)
    grid = partition_grid(ChangePointConfig(breaks), None, region_counts)
    assert {1621, 3242} <= set(np.concatenate(grid.segment_counts).tolist())
    rng = np.random.default_rng(7)
    for _ in range(50):
        fits = fits_for(rng, P, grid.R)
        got = mdl_score(d, grid, fits, task)
        want = scalar_criterion(
            P,
            d.n,
            task,
            [c.tolist() for c in grid.segment_counts],
            [f.s for f in fits],
            region_counts.tolist(),
            [f.fit_stat for f in fits],
        )
        assert got.total == want
        region = 0.0
        for f, n_r in zip(fits, region_counts.tolist()):
            region += math.log2(grid.R) + 0.5 * f.s * math.log2(n_r)
        assert got.region_param_code == region


@pytest.mark.parametrize("P", [3, 5, 7])
def test_mdl_score_equals_the_scans_criterion(P):
    # The scan scores a model breaking on one predictor under full masks
    # with total_bits; the search scores the same model with mdl_score.
    n = 20_000
    d = table(n, P, seed=P)
    rng = np.random.default_rng(100 + P)
    for trial in range(400):
        l = int(rng.integers(1, 4))
        cuts = np.sort(rng.choice(np.arange(1, n), l, replace=False))
        counts = np.diff(np.concatenate([[0], cuts, [n]]))
        if trial % 2 == 0:  # a region of 1,621 rows
            counts = np.array([1621] + [n - 1621 - (l - 1)] + [1] * (l - 1))
            counts = rng.permutation(counts)
        config = ChangePointConfig({0: (np.cumsum(counts)[:-1] - 0.5).tolist()})
        grid = partition_grid(config, None, counts)
        task = TASKS[trial % 3]
        fits = fits_for(rng, P, l + 1, full_mask=True)
        if trial % 50 == 0:  # a perfect fit: the variance floor
            fits = [RegionFit(f.mask, f.beta, 0.0) for f in fits]
        # As the scan calls it: one array per segment, over the models.
        counts, stats = counts[:, None], np.array([[f.fit_stat] for f in fits])
        scan = total_bits(P, n, task, [counts], [P + 1] * (l + 1), counts, stats)
        assert mdl_score(d, grid, fits, task).total == scan[0]


def test_mdl_score_rejects_an_unknown_task():
    d = table(40, 2)
    grid = partition_grid(ChangePointConfig({}), None, np.array([40]))
    fits = fits_for(np.random.default_rng(1), 2, 1)
    with pytest.raises(InputError, match="unknown task"):
        mdl_score(d, grid, fits, "banana")
