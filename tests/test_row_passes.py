"""The per-row passes of the search against the forms they replaced.

Each pass over all n rows has a cheaper form: compare-and-count region
indices, a region's rows gathered only when its menu is built, designs
gathered from ``Dataset.design``, packed-bitmap region keys, and a
regression scan that keeps prefix and suffix segment statistics.  The
references kept here are the earlier forms (searchsorted region indices,
an int64 stable sort of every key's region indices, a design built column
by column, and a fresh solve of every segment), and every comparison is
bitwise.
"""

import math

import numpy as np
import pytest

import partwise.refine as refine_mod
from partwise import ChangePointConfig, Dataset, select_features
from partwise.fitting import full_design
from partwise.model import _region_index, induce_partition, partition_grid
from partwise.mdl import SIGMA2_FLOOR, total_bits
from partwise.scan import _RegressionSegments, scan_candidates


def searchsorted_region_index(breaks, columns):
    idx = np.zeros(columns.shape[1], dtype=np.int64)
    stride = 1
    for j, ts in breaks:
        idx += stride * np.searchsorted(ts, columns[j], side="left")
        stride *= len(ts) + 1
    return idx


def int64_memberships(region_of, region_counts):
    by_region = np.argsort(region_of, kind="stable")
    return np.split(by_region, np.cumsum(region_counts)[:-1])


def built_design(data, rows):
    D = np.empty((rows.size, data.P + 1))
    D[:, 0] = 1.0
    D[:, 1:] = data.X[rows]
    return D


class TestRegionIndex:
    @pytest.mark.parametrize("seed", range(8))
    def test_ranks_against_cut_positions(self, seed):
        rng = np.random.default_rng([seed, 41])
        n, P = 300, 3
        X = np.column_stack(
            [rng.uniform(0, 1, n), np.round(rng.uniform(0, 1, n), 1), rng.integers(0, 5, n)]
        )
        data = Dataset(X, rng.normal(size=n))
        key = []
        for j in range(P):
            cuts = data.cut_positions(j)
            m = int(rng.integers(1, min(40, cuts.size) + 1))
            key.append((j, tuple(int(p) for p in np.sort(rng.choice(cuts, m, replace=False)))))
        got = _region_index(key, data.rank)
        assert got.dtype == np.int64
        assert np.array_equal(got, searchsorted_region_index(key, data.rank))

    @pytest.mark.parametrize("cuts_per_predictor", [1, 2, 3, 7, 16, 33, 40])
    def test_thresholds_with_entries_equal_to_a_break(self, cuts_per_predictor):
        rng = np.random.default_rng(cuts_per_predictor)
        n = 500
        breaks = []
        cols = []
        for j in range(2):
            ts = np.sort(rng.choice(np.linspace(-2, 2, 81), cuts_per_predictor, replace=False))
            # A third of the entries sit exactly on a break.
            col = np.where(rng.random(n) < 1 / 3, rng.choice(ts, n), rng.uniform(-3, 3, n))
            breaks.append((j, tuple(ts.tolist())))
            cols.append(col)
        columns = np.stack(cols)
        got = _region_index(breaks, columns)
        assert np.array_equal(got, searchsorted_region_index(breaks, columns))

    def test_signed_zeros(self):
        columns = np.array([[-0.0, 0.0, -1e-300, 1e-300, -1.0, 1.0]])
        for t in (0.0, -0.0):
            breaks = [(0, (t,))]
            got = _region_index(breaks, columns)
            assert got.tolist() == [0, 0, 0, 1, 0, 1]
            assert np.array_equal(got, searchsorted_region_index(breaks, columns))

    def test_no_breaks_is_one_region(self):
        assert _region_index((), np.zeros((2, 5))).tolist() == [0] * 5


class TestMemberships:
    @pytest.mark.parametrize(
        "sizes",
        [(256,), (16, 16), (257,), (65537,)],
        ids=["R256", "R16x16", "R257", "R65537"],
    )
    def test_match_int64_stable_sort(self, sizes):
        # 256 regions fit 8-bit keys, 257 need 16 bits and 65,537 need 32.
        R = math.prod(sizes)
        config = ChangePointConfig({j: range(s - 1) for j, s in enumerate(sizes)})
        rng = np.random.default_rng(R)
        region_of = rng.integers(0, R, 3 * R + 11)
        region_counts = np.bincount(region_of, minlength=R)
        grid = partition_grid(config, region_of, region_counts)
        want = int64_memberships(region_of, region_counts)
        assert grid.R == R
        assert len(grid.memberships) == R
        for got, ref in zip(grid.memberships, want):
            assert got.dtype == np.int64
            assert np.array_equal(got, ref)


class TestFullDesign:
    @pytest.mark.parametrize("seed", range(4))
    def test_bitwise_equal_to_built_design(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(200, 4)) * 10.0 ** rng.integers(-300, 300, (200, 4))
        X[::7, 1] = -0.0
        data = Dataset(X, rng.normal(size=200))
        for rows in (
            np.arange(200),
            np.sort(rng.choice(200, 57, replace=False)),
            rng.permutation(200)[:90],
            np.array([], dtype=np.int64),
        ):
            D = full_design(data, rows)
            ref = built_design(data, rows)
            assert D.flags.c_contiguous and D.flags.writeable
            assert D.dtype == ref.dtype and D.shape == ref.shape
            assert D.tobytes() == ref.tobytes()

    def test_design_is_read_only_and_whole(self):
        rng = np.random.default_rng(5)
        data = Dataset(rng.normal(size=(30, 3)), rng.normal(size=30))
        assert not data.design.flags.writeable
        assert data.design.tobytes() == built_design(data, np.arange(30)).tobytes()


class TestRegionKeys:
    def _data(self):
        # x2 is an increasing map of x1, so a cut on x2 can make the same
        # regions as a cut on x1; x3 orders the rows differently.
        rng = np.random.default_rng(12)
        x1 = rng.uniform(0, 1, 40)
        X = np.column_stack([x1, 2.0 * x1 + 1.0, rng.uniform(0, 1, 40)])
        return Dataset(X, rng.normal(size=40))

    def _grid(self, data, j, pos):
        return induce_partition(data, ChangePointConfig({j: [data.midpoint(j, pos)]}))

    def test_equal_row_sets_share_a_menu(self):
        data = self._data()
        cache = {}
        a = self._grid(data, 0, 19)
        b = self._grid(data, 1, 19)
        assert all(np.array_equal(p, q) for p, q in zip(a.memberships, b.memberships))
        select_features(data, "regression", a, region_cache=cache)
        menus = dict(cache)
        select_features(data, "regression", b, region_cache=cache)
        assert len(cache) == 2
        assert all(cache[k] is menus[k] for k in menus)

    def test_rows_are_gathered_only_for_built_menus(self, monkeypatch):
        data = self._data()
        gathered = []
        design = refine_mod.RegionDesign

        def recording_design(data, rows, task):
            gathered.append(rows)
            return design(data, rows, task)

        monkeypatch.setattr(refine_mod, "RegionDesign", recording_design)
        cache = {}
        a = self._grid(data, 0, 19)
        select_features(data, "regression", a, region_cache=cache)
        want = int64_memberships(a.region_of, a.region_counts)
        assert len(gathered) == len(want) == 2
        for got, ref in zip(gathered, want):
            assert got.dtype == np.int64
            assert np.array_equal(got, ref)
        # The same row sets under another predictor hit the cache.
        select_features(data, "regression", self._grid(data, 1, 19), region_cache=cache)
        assert len(gathered) == 2

    def test_different_rows_of_the_same_size_get_different_keys(self):
        data = self._data()
        cache = {}
        a = self._grid(data, 0, 19)
        c = self._grid(data, 2, 19)
        sizes = [m.size for m in a.memberships]
        assert sizes == [m.size for m in c.memberships] == [20, 20]
        select_features(data, "regression", a, region_cache=cache)
        select_features(data, "regression", c, region_cache=cache)
        assert len(cache) == 4
        assert all(len(k) == math.ceil(data.n / 8) for k in cache)


class TestMemoizedSegments:
    def _data(self, n=240, seed=3):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 10, (n, 3))
        y = np.where(X[:, 0] > 4, 2.0, -1.0) + X @ [0.5, -1.0, 2.0] + rng.normal(size=n)
        return Dataset(X, y)

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_kept_values_equal_fresh_solves(self, j):
        data = self._data()
        n = data.n
        seg = _RegressionSegments(data, j)
        b = np.arange(10, n - 9, 3)
        zeros, ends = np.zeros_like(b), np.full_like(b, n)
        seg.stats(zeros[::2], b[::2], zeros[::2], ends[::2])  # some prefixes
        seg.stats(b[1::2], ends[1::2], zeros[1::2], ends[1::2])  # some suffixes
        # A batch of seen and unseen prefixes and suffixes, interior
        # segments and the whole sample.
        lo = np.concatenate([zeros, b, b[:-5], [0]])
        hi = np.concatenate([b, ends, b[5:], [n]])
        solved = []
        stat = seg.stat
        seg.stat = lambda lo, hi: solved.append(len(lo)) or stat(lo, hi)
        got = seg.stats(lo, hi, lo, hi)
        unseen = b.size - b[::2].size + b.size - b[1::2].size + b[:-5].size + 1
        assert solved == [unseen]
        assert seg.stats(lo, hi, lo, hi).tobytes() == got.tobytes()
        assert solved == [unseen, b[:-5].size]  # interior segments are not kept
        fresh = _RegressionSegments(data, j)
        assert got.tobytes() == fresh.stat(lo, hi).tobytes()
        alone = [fresh.stat(lo[i : i + 1], hi[i : i + 1])[0] for i in range(lo.size)]
        assert got.tolist() == alone

    def test_three_step_scan_solves_fewer_than_six_per_cut(self, monkeypatch):
        data = self._data(n=400)
        requested, solved = [], []
        stats, stat = _RegressionSegments.stats, _RegressionSegments.stat

        def counting_stats(self, lo, hi, parent_lo, parent_hi):
            requested.append(len(lo))
            return stats(self, lo, hi, parent_lo, parent_hi)

        def counting_stat(self, lo, hi):
            solved.append(len(lo))
            return stat(self, lo, hi)

        monkeypatch.setattr(_RegressionSegments, "stats", counting_stats)
        monkeypatch.setattr(_RegressionSegments, "stat", counting_stat)
        data_1 = Dataset(data.X[:, :1], data.y)
        got = scan_candidates(data_1, "regression", 3)
        assert len(got[0]) == 3
        # The whole sample, then three greedy steps of two segments per cut.
        assert len(requested) == 4 and requested[0] == 1
        step_cuts = [r // 2 for r in requested[1:]]
        assert solved[:2] == [1, 2 * step_cuts[0]]
        # Each step-2 cut meets a kept prefix or suffix; so does each step-3
        # cut outside the middle segment.
        assert solved[2] == step_cuts[1]
        assert solved[3] < 2 * step_cuts[2]
        # Solving both sides of every cut afresh would take 6 per cut.
        assert sum(solved[1:]) < 2 * sum(step_cuts)


def test_regression_residual_code_is_the_scalar_one_bitwise():
    # np.log may differ from math.log in the last bit; the criterion the scan
    # takes from mdl must be the scalar one.
    n, P, m = 1000, 4, 200_000
    rng = np.random.default_rng(21)
    left = rng.integers(1, n, m)
    counts = np.column_stack([left, n - left])
    stats = rng.uniform(0.0, 5000.0, (m, 2))
    stats[::1000] = 0.0  # variance floor
    got = total_bits(P, n, "regression", [counts.T], [P + 1] * 2, counts.T, stats.T)
    half = 0.5 * (P + 1)
    want = []
    for (c0, c1), (s0, s1) in zip(counts.tolist(), stats.tolist()):
        region = (0.0 + (1.0 + half * math.log2(c0))) + (1.0 + half * math.log2(c1))
        occupancy = (0.0 + math.log2(c0)) + math.log2(c1)
        structural = math.log2(P) + 1.0 + 1.0 + occupancy
        residual = 0.5 * n * math.log(max(((0.0 + s0) + s1) / n, SIGMA2_FLOOR))
        want.append(structural + region + residual)
    assert got.tolist() == want
