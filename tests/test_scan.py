import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrs

from partwise import Dataset, InputError, scan_candidates
from partwise.fitting import COND_LIMIT, _cholesky
from partwise.mdl import SIGMA2_FLOOR
from partwise.scan import _BinarySegments, _RegressionSegments, default_min_segment
from partwise.simulate import SETTINGS, generate


class TestStopRules:
    def test_without_improvement_rule_fills_quota(self):
        # Pure noise: no break lowers the criterion, and the scan still
        # fills every predictor's quota.
        rng = np.random.default_rng(2)
        d = Dataset(rng.uniform(0, 1, (120, 2)), rng.normal(0, 1, 120))
        got = scan_candidates(d, "regression", max_per_predictor=2)
        assert set(got) == {0, 1}
        assert all(len(v) == 2 for v in got.values())

    def test_max_per_predictor_caps(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, 200)
        y = np.select(
            [x < 0.25, x < 0.5, x < 0.75], [0.0, 5.0, 10.0], default=15.0
        ) + rng.normal(0, 0.1, 200)
        d = Dataset(x.reshape(-1, 1), y)
        got = scan_candidates(d, "regression", max_per_predictor=2, min_segment=3)
        assert len(got[0]) == 2

    def test_min_segment_validated(self):
        rng = np.random.default_rng(4)
        d = Dataset(rng.uniform(0, 1, (50, 3)), rng.normal(0, 1, 50))
        with pytest.raises(InputError):
            scan_candidates(d, "regression", min_segment=2)


def brute_force_single_split(d: Dataset, min_segment: int):
    """Independent oracle: evaluate the one-predictor, one-cut criterion at
    every admissible position by explicit least squares and return the
    winning threshold (or None when no position is admissible).  The scan
    takes its first cut whether or not it beats the no-cut model."""
    n, P = d.n, d.P
    s_full = P + 1

    def seg_rss(rows):
        D = np.column_stack([np.ones(rows.size), d.X[rows]])
        beta, *_ = np.linalg.lstsq(D, d.y[rows], rcond=None)
        r = d.y[rows] - D @ beta
        return float(r @ r)

    def criterion(rss_parts, counts):
        l = len(counts) - 1
        total = 0.5 * n * math.log(max(sum(rss_parts) / n, SIGMA2_FLOOR))
        total += sum(
            math.log2(l + 1) + 0.5 * s_full * math.log2(c) for c in counts
        )
        total += (
            math.log2(P) + 1.0 + math.log2(l + 1) + sum(math.log2(c) for c in counts)
        )
        return total

    best = (math.inf, None)
    for j in range(P):
        order = d.order[j]
        for pos in d.cut_positions(j):
            bnd = pos + 1
            if bnd < min_segment or n - bnd < min_segment:
                continue
            rss = [seg_rss(order[:bnd]), seg_rss(order[bnd:])]
            val = criterion(rss, [bnd, n - bnd])
            if val < best[0]:
                best = (val, (j, d.midpoint(j, int(pos))))
    return best[1]


class TestStepOracle:
    def test_single_split_matches_brute_force(self):
        x = np.linspace(0.0, 1.0, 40)
        y = np.where(x < 0.5, 0.0, 10.0)
        d = Dataset(x.reshape(-1, 1), y)
        got = scan_candidates(d, "regression", max_per_predictor=1, min_segment=3)
        want = brute_force_single_split(d, min_segment=3)
        assert want is not None and want[0] == 0
        assert got == {0: [want[1]]}
        assert abs(want[1] - 0.5) < 0.02

    def test_first_candidate_matches_brute_force_on_noise(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            x = np.sort(rng.uniform(0, 1, 50))
            y = np.where(x <= x[24], 1.0, 4.0) + rng.normal(0, 0.5, 50)
            d = Dataset(x.reshape(-1, 1), y)
            got = scan_candidates(d, "regression", max_per_predictor=1, min_segment=3)
            want = brute_force_single_split(d, min_segment=3)
            if want is None:
                assert got == {}
            else:
                assert got[want[0]][0] == pytest.approx(want[1])


class TestProperties:
    def test_min_segment_respected(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            data = generate(SETTINGS["reg1"], 150, rng, sigma=1.0)
            got = scan_candidates(data, "regression", min_segment=12)
            for j, ts in got.items():
                positions = [data.cut_of_threshold(j, t) for t in ts]
                bounds = [0] + [p + 1 for p in sorted(positions)] + [data.n]
                for lo, hi in zip(bounds[:-1], bounds[1:]):
                    assert hi - lo >= 12

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        data = generate(SETTINGS["reg1"], 200, rng, sigma=1.0)
        a = scan_candidates(data, "regression")
        b = scan_candidates(data, "regression")
        assert a == b

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        data = generate(SETTINGS["reg1"], 150, rng, sigma=1.0)
        a = scan_candidates(data, "regression")
        perm = np.random.default_rng(1).permutation(data.n)
        data2 = Dataset(data.X[perm], data.y[perm])
        b = scan_candidates(data2, "regression")
        assert a == b


class TestSetting1Recovery:
    def test_candidates_near_truth(self):
        hits = 0
        trials = 20
        for seed in range(trials):
            rng = np.random.default_rng([seed, 2024])
            data = generate(SETTINGS["reg1"], 400, rng, sigma=1.0)
            got = scan_candidates(data, "regression")
            ok_x1 = 0 in got and any(abs(t - 4.0) <= 0.1 for t in got[0])
            ok_x3 = 2 in got and any(abs(t - 8.5) <= 0.1 for t in got[2])
            hits += ok_x1 and ok_x3
        assert hits >= 0.95 * trials


class TestClassificationScan:
    def test_logistic_step_found(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(0, 10, 300)
        p = np.where(x <= 5.0, 0.15, 0.9)
        y = (rng.random(300) < p).astype(float)
        d = Dataset(x.reshape(-1, 1), y)
        got = scan_candidates(d, "logistic", max_per_predictor=1)
        assert 0 in got
        assert abs(got[0][0] - 5.0) < 0.6

    def test_discrete_predictor_cut_at_level_midpoint(self):
        rng = np.random.default_rng(22)
        data = generate(SETTINGS["cls2"], 400, rng, link="logistic")
        got = scan_candidates(data, "logistic")
        assert 0 in got
        # cuts on the 7-level discrete predictor are between-level midpoints
        assert all(abs(t - round(t)) == pytest.approx(0.5) for t in got[0])
        assert any(t == pytest.approx(3.5) for t in got[0])


# -- reference: the scan scored one cut at a time ---------------------------


class _ReferenceRegressionSegments:
    """One LAPACK Cholesky solve per segment under ``_cholesky``'s rank rule,
    with the lstsq fallback; ``fallbacks`` lists the segments that took it."""

    def __init__(self, data, j):
        seg = _RegressionSegments(data, j)
        self._G, self._c, self._yy = seg._G, seg._c, seg._yy
        self.fallbacks = []

    def stat(self, lo, hi, parent=None):
        G = self._G[hi] - self._G[lo]
        c = self._c[hi] - self._c[lo]
        yy = self._yy[hi] - self._yy[lo]
        L, cond = _cholesky(G)
        if L is not None and cond <= COND_LIMIT:
            beta = dpotrs(L, c, lower=1)[0]
        else:
            self.fallbacks.append((lo, hi))
            beta = np.linalg.lstsq(G, c, rcond=None)[0]
        return max(float(yy - beta @ c), 0.0)


def _reference_mdl(n, P, boundaries, stats, task):
    segs = list(zip(boundaries[:-1], boundaries[1:]))
    l = len(segs) - 1
    total_stat = sum(stats[s] for s in segs)
    if task == "regression":
        residual = 0.5 * n * math.log(max(total_stat / n, SIGMA2_FLOOR))
    else:
        residual = total_stat
    s_full = P + 1
    counts = [hi - lo for lo, hi in segs]
    region = sum(math.log2(l + 1) + 0.5 * s_full * math.log2(c) for c in counts)
    structural = (
        math.log2(P) + math.log2(2) + math.log2(l + 1) + sum(math.log2(c) for c in counts)
    )
    return structural + region + residual


def reference_scan(data, task, max_per=3, min_segment=None):
    """``scan_candidates`` as a loop scoring one cut at a time; also returns
    how many segments took the lstsq fallback."""
    if min_segment is None:
        min_segment = default_min_segment(data.P)
    out, fallbacks = {}, 0
    for j in range(data.P):
        cuts = data.cut_positions(j)
        if cuts.size == 0:
            continue
        if task == "regression":
            segments = _ReferenceRegressionSegments(data, j)
        else:
            segments = _BinarySegments(data, j, task)
        stats = {}

        def stat(lo, hi, parent=None):
            if (lo, hi) not in stats:
                stats[(lo, hi)] = segments.stat(lo, hi, parent)
            return stats[(lo, hi)]

        boundaries = [0, data.n]
        stat(0, data.n)  # the first step's binary fits warm-start from it
        chosen = []
        while len(chosen) < max_per:
            best_pos, best_mdl = None, np.inf
            for pos in cuts.tolist():
                if pos in chosen:
                    continue
                b = pos + 1
                seg_idx = np.searchsorted(boundaries, b) - 1
                lo, hi = boundaries[seg_idx], boundaries[seg_idx + 1]
                if b - lo < min_segment or hi - b < min_segment:
                    continue
                stat(lo, b, parent=(lo, hi))
                stat(b, hi, parent=(lo, hi))
                m = _reference_mdl(
                    data.n, data.P, sorted(boundaries + [b]), stats, task
                )
                if m < best_mdl:
                    best_mdl, best_pos = m, pos
            if best_pos is None:
                break
            chosen.append(best_pos)
            boundaries = sorted(boundaries + [best_pos + 1])
        if task == "regression":
            fallbacks += len(segments.fallbacks)
        if chosen:
            out[j] = [data.midpoint(j, p) for p in sorted(chosen)]
    return out, fallbacks


def _singular_segments_data(seed):
    """x2 is exactly 0 wherever x1 < 4, so segments there have a singular
    Gram; the break at x1 = 2 has such a segment on its left."""
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(0, 10, 160)
    x2 = np.where(x1 < 4, 0.0, rng.uniform(0, 1, 160))
    y = np.where(x1 <= 2, 1.0, 4.0) + 0.5 * x1 + x2 + rng.normal(0, 0.3, 160)
    return Dataset(np.column_stack([x1, x2]), y)


class TestStackedRegressionScan:
    """The regression scan solves each step's segments in one stacked
    Cholesky solve; its candidates equal those of the cut-by-cut loop, which
    solves every segment through LAPACK on its own."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "n", [150, 400, pytest.param(1000, marks=pytest.mark.slow)]
    )
    @pytest.mark.parametrize("setting", ["reg1", "reg2"])
    def test_candidates_match_reference(self, setting, n, seed):
        rng = np.random.default_rng([seed, 91])
        data = generate(SETTINGS[setting], n, rng)
        want, _ = reference_scan(data, "regression")
        assert scan_candidates(data, "regression") == want


class TestStackedBinaryScan:
    """The binary scan fits each step's segments in one stacked solve; its
    candidates equal those of the cut-by-cut loop, which fits every segment
    through the scalar ``_BinarySegments.stat``."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "n", [150, 400, pytest.param(1000, marks=pytest.mark.slow)]
    )
    @pytest.mark.parametrize("task", ["probit", "logistic"])
    @pytest.mark.parametrize("setting", ["cls1", "cls2"])
    def test_candidates_match_reference(self, setting, task, n, seed):
        rng = np.random.default_rng([seed, 91])
        data = generate(SETTINGS[setting], n, rng, link=task)
        want, _ = reference_scan(data, task)
        assert scan_candidates(data, task) == want

    def test_stacked_solve_memory_stays_small(self):
        rng = np.random.default_rng([1, 91])
        data = generate(SETTINGS["cls1"], 400, rng, link="logistic")
        tracemalloc.start()
        try:
            scan_candidates(data, "logistic")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


class TestMatchesCutByCutReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "setting, task, n",
        [
            ("reg1", "regression", 300),
            ("reg2", "regression", 300),
            ("cls1", "probit", 200),
            ("cls2", "logistic", 200),  # x1 is discrete, with seven levels
        ],
    )
    def test_bundled_designs(self, setting, task, n, seed):
        rng = np.random.default_rng([seed, 77])
        kwargs = {"link": task} if task != "regression" else {"sigma": 1.0}
        data = generate(SETTINGS[setting], n, rng, **kwargs)
        want, _ = reference_scan(data, task)
        got = scan_candidates(data, task)
        assert got == want

    @pytest.mark.parametrize("seed", [3, 4])
    def test_singular_segment_gram_takes_lstsq(self, seed):
        data = _singular_segments_data(seed)
        want, fallbacks = reference_scan(data, "regression")
        assert fallbacks > 0
        got = scan_candidates(data, "regression")
        assert got == want

    @pytest.mark.parametrize("task, level", [("regression", 0.0), ("logistic", 1.0)])
    def test_exact_ties_take_the_first_cut(self, task, level):
        # A constant response scores every segment by its size alone, so the
        # cuts at b and n - b tie exactly and the first in cut order must win.
        rng = np.random.default_rng(8)
        data = Dataset(rng.uniform(0, 1, (90, 2)), np.full(90, level))
        want, _ = reference_scan(data, task)
        got = scan_candidates(data, task)
        assert got == want
        assert all(len(ts) == 3 for ts in got.values())

    @pytest.mark.parametrize("j", [0, 1])
    def test_segment_rss_matches_one_solve_each(self, j, monkeypatch):
        data = _singular_segments_data(5)
        ref = _ReferenceRegressionSegments(data, j)
        lo = np.arange(0, data.n - 12, 7)
        hi = np.minimum(lo + 12 + lo % 29, data.n)
        seg = _RegressionSegments(data, j)
        lstsq, fell_back = np.linalg.lstsq, []

        def recording_lstsq(G, c, rcond=None):
            fell_back.append(G.tobytes())
            return lstsq(G, c, rcond=rcond)

        monkeypatch.setattr(np.linalg, "lstsq", recording_lstsq)
        got = seg.stat(lo, hi)
        monkeypatch.undo()
        want = [ref.stat(int(a), int(b)) for a, b in zip(lo, hi)]
        assert ref.fallbacks
        assert fell_back == [(seg._G[b] - seg._G[a]).tobytes() for a, b in ref.fallbacks]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
