"""The search's cut-position path against the threshold-value path.

The search assigns rows to regions by comparing ``Dataset.rank`` with cut
positions.  The reference kept here is the threshold path it replaced: each
position becomes a threshold value and every row of ``X`` is searchsorted
against it.  On data with ties, a discrete predictor and keys that repeat a
position (leaving a segment empty), both paths must give the same regions,
counts and feasibility.
"""

import math

import numpy as np
import pytest

from partwise import ChangePointConfig, ConfigScorer, Dataset, assign_regions, induce_partition
from partwise.model import _region_index


def tied_dataset(seed):
    """A continuous, a coarsely rounded and a four-level predictor, shuffled."""
    rng = np.random.default_rng([seed, 17])
    n = int(rng.integers(8, 60))
    cols = [
        rng.uniform(-3.0, 3.0, n),
        np.round(rng.uniform(-3.0, 3.0, n), 1),
        rng.integers(0, 4, n).astype(float),
    ]
    X = np.column_stack([cols[i] for i in rng.permutation(3)])
    return Dataset(X, rng.normal(size=n))


def random_key(data, rng):
    """Ascending admissible positions per predictor; a position may repeat."""
    key = []
    for j in range(data.P):
        cuts = data.cut_positions(j)
        if cuts.size == 0 or rng.random() < 0.3:
            continue
        m = int(rng.integers(1, 4))
        ps = np.sort(rng.choice(cuts, size=m, replace=True))
        key.append((j, tuple(int(p) for p in ps)))
    return tuple(key)


def thresholds_of_key(data, key):
    """Strictly increasing thresholds inducing ``key``'s cuts.

    A position used once maps to its midpoint.  A position used m > 1 times
    maps to m distinct values in ``[v[p], v[p+1])``, each of which induces
    the same cut.
    """
    out = {}
    for j, ps in key:
        sv = data.sorted_values[j]
        ts = []
        for p in sorted(set(ps)):
            m = ps.count(p)
            if m == 1:
                ts.append(data.midpoint(j, p))
            else:
                ts.extend(sv[p] + (sv[p + 1] - sv[p]) * i / m for i in range(m))
        out[j] = ts
    return out


def float_region_index(thresholds, X):
    """Reference: searchsort every row of ``X`` against threshold values."""
    idx = np.zeros(X.shape[0], dtype=np.int64)
    stride = 1
    for j in sorted(thresholds):
        ts = np.asarray(thresholds[j], dtype=np.float64)
        idx += stride * np.searchsorted(ts, X[:, j], side="left")
        stride *= len(ts) + 1
    return idx


def float_segment_counts(thresholds, X):
    return [
        np.bincount(
            np.searchsorted(np.asarray(thresholds[j]), X[:, j], side="left"),
            minlength=len(thresholds[j]) + 1,
        )
        for j in sorted(thresholds)
    ]


@pytest.mark.parametrize("seed", range(40))
def test_key_path_matches_threshold_path(seed):
    data = tied_dataset(seed)
    rng = np.random.default_rng([seed, 29])
    scorer = ConfigScorer(data, "regression")
    keys = [random_key(data, rng) for _ in range(25)]
    for j in range(data.P):  # one position twice: the middle segment is empty
        cuts = data.cut_positions(j)
        if cuts.size:
            keys.append(((j, (int(cuts[0]), int(cuts[0]))),))
    keys += keys[:10]  # asked again, these answer from the feasibility memo
    for key in keys:
        thresholds = thresholds_of_key(data, key)
        ref = float_region_index(thresholds, data.X)
        R = int(np.prod([len(ps) + 1 for _, ps in key]))
        ref_counts = np.bincount(ref, minlength=R)

        assert np.array_equal(_region_index(key, data.rank), ref)
        assert np.array_equal(assign_regions(thresholds, data.X), ref)
        config = ChangePointConfig(thresholds)
        assert scorer.key_of_config(config) == key
        if all(len(set(ps)) == len(ps) for _, ps in key):
            assert scorer.config_of_key(key).as_dict() == {
                j: tuple(ts) for j, ts in thresholds.items()
            }
        else:
            assert ref_counts.min() == 0

        grid = induce_partition(data, config)
        assert grid.R == R
        assert np.array_equal(grid.region_of, ref)
        assert np.array_equal(grid.region_counts, ref_counts)
        want = float_segment_counts(thresholds, data.X)
        assert len(grid.segment_counts) == len(want)
        for got, w in zip(grid.segment_counts, want):
            assert np.array_equal(got, w)
        for r, rows in enumerate(grid.memberships):
            assert np.array_equal(rows, np.flatnonzero(ref == r))

        fresh = bool(ref_counts.min() >= data.P)
        assert (scorer.score_key(key) is not None) == fresh
        assert (scorer.score_key(key) is not None) == fresh


def test_one_region_pass_per_distinct_key(monkeypatch):
    """A fit assigns rows to regions once for each distinct key it asks
    the gate about, feasible or not, except a key with more regions than
    n / P, which is rejected without a pass; asking again costs no pass, and
    ``evaluations`` counts the feasible keys."""
    import partwise.model as model_mod
    import partwise.refine as refine_mod
    from partwise import BpsoParams, FitParams, fit_model

    passes = []
    real_index = model_mod._region_index

    def counted_index(breaks, columns):
        passes.append(breaks)
        return real_index(breaks, columns)

    asked, scorers = [], []
    real_gate = ConfigScorer.feasible

    def recorded_gate(self, key):
        asked.append(key)
        if self not in scorers:
            scorers.append(self)
        return real_gate(self, key)

    monkeypatch.setattr(model_mod, "_region_index", counted_index)
    monkeypatch.setattr(refine_mod, "_region_index", counted_index)
    monkeypatch.setattr(ConfigScorer, "feasible", recorded_gate)

    rng = np.random.default_rng(23)
    X = rng.uniform(0.0, 1.0, (60, 3))
    y = np.where(X[:, 0] <= 0.5, 0.0, 3.0) + X[:, 1] + rng.normal(0.0, 0.3, 60)
    params = FitParams(seed=1, swarm=BpsoParams(swarm_size=20, max_iter=10))
    outcome = fit_model(Dataset(X, y), "regression", params)

    (scorer,) = scorers
    crowded = {key for key in asked if math.prod(len(ps) + 1 for _, ps in key) * 3 > 60}
    assert crowded
    assert sorted(passes) == sorted(set(asked) - crowded)
    assert set(asked) == set(scorer._cache)
    rejected = [key for key, scored in scorer._cache.items() if scored is None]
    assert rejected
    assert any(asked.count(key) > 1 for key in rejected)
    assert outcome.evaluations == scorer.evaluations == len(scorer._cache) - len(rejected)
    before = len(passes)
    assert scorer.score_key(rejected[0]) is None
    assert len(passes) == before
