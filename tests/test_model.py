import numpy as np
import pytest

from partwise import (
    ChangePointConfig,
    ConfigScorer,
    Dataset,
    FitParams,
    InputError,
    InvalidConfigError,
    SchemaError,
    assign_region,
    assign_regions,
    estimator,
    fit_model,
    induce_partition,
)
from partwise.model import _region_index
from partwise.simulate import SETTINGS, generate

from conftest import random_config, random_dataset


class TestDataset:
    def test_order_sorts_each_predictor(self, simple_data):
        d = simple_data
        for j in range(d.P):
            v = d.X[d.order[j], j]
            assert np.all(np.diff(v) >= 0)
            assert sorted(d.order[j]) == list(range(d.n))
            assert np.array_equal(v, d.sorted_values[j])

    def test_rejects_non_finite(self):
        X = np.ones((4, 2))
        X[2, 1] = np.nan
        with pytest.raises(InputError, match="row 2, column 1"):
            Dataset(X, np.zeros(4))
        with pytest.raises(InputError, match="response"):
            Dataset(np.ones((4, 2)), np.array([0.0, np.inf, 0.0, 0.0]))

    def test_classification_requires_binary(self, simple_data):
        with pytest.raises(InputError, match="0/1"):
            simple_data.validate_task("logistic")
        simple_data.validate_task("regression")

    def test_cut_positions_skip_ties(self):
        d = Dataset(np.array([[0.0], [1.0], [1.0], [2.0]]), np.zeros(4))
        assert d.cut_positions(0).tolist() == [0, 2]
        assert d.midpoint(0, 0) == 0.5
        assert d.midpoint(0, 2) == 1.5
        assert d.snap_cut(0, 1) == 2  # inside the tie run, snaps forward
        assert d.snap_cut(0, 3) == 2  # top run snaps back
        assert d.cut_of_threshold(0, 1.5) == 2

    def test_rank_is_last_sorted_position_of_each_value(self):
        d = Dataset(np.array([[2.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]), np.zeros(4))
        assert d.rank.tolist() == [[3, 0, 2, 2], [3, 3, 0, 3]]
        for j in range(d.P):
            for k in d.cut_positions(j):
                below = d.rank[j] <= k
                assert np.array_equal(below, d.X[:, j] <= d.midpoint(j, int(k)))

    def test_floor_value(self):
        d = Dataset(np.array([[0.0], [1.0], [3.0], [4.0]]), np.zeros(4))
        assert d.floor_value(0, 2.7) == 1.0
        assert d.floor_value(0, 3.0) == 3.0


class TestConfig:
    def test_thresholds_must_increase(self):
        with pytest.raises(InvalidConfigError):
            ChangePointConfig({0: [2.0, 2.0]})
        with pytest.raises(InvalidConfigError):
            ChangePointConfig({0: [3.0, 1.0]})

    def test_empty_lists_dropped(self):
        cfg = ChangePointConfig({0: [], 2: [1.0]})
        assert cfg.break_predictors == (2,)
        assert cfg.B == 1
        assert cfg.num_regions == 2


class TestInducePartition:
    def test_no_breaks_single_region(self, simple_data):
        grid = induce_partition(simple_data, ChangePointConfig({}))
        assert grid.R == 1
        assert grid.region_counts.tolist() == [simple_data.n]

    def test_two_predictors_quadrants(self):
        X = np.array(
            [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0], [1.0, 1.0]]
        )
        d = Dataset(X, np.zeros(5))
        grid = induce_partition(d, ChangePointConfig({0: [1.0], 1: [1.0]}))
        assert grid.R == 4
        # region = seg(x1) + 2*seg(x2); x == threshold goes to the lower side
        assert grid.region_of.tolist() == [0, 1, 2, 3, 0]

    def test_setting1_truth_matches_quadrant_rule(self):
        rng = np.random.default_rng(5)
        data = generate(SETTINGS["reg1"], 300, rng, sigma=1.0)
        grid = induce_partition(
            data, ChangePointConfig({0: [4.0], 2: [8.5]})
        )
        assert grid.R == 4
        expect = (data.X[:, 0] > 4.0).astype(int) + 2 * (
            data.X[:, 2] > 8.5
        ).astype(int)
        assert np.array_equal(grid.region_of, expect)
        # memberships partition 0..n-1
        allmem = np.concatenate(grid.memberships)
        assert sorted(allmem) == list(range(data.n))

    def test_threshold_outside_range_rejected(self, simple_data):
        hi = simple_data.sorted_values[0][-1]
        with pytest.raises(InvalidConfigError):
            induce_partition(simple_data, ChangePointConfig({0: [hi + 1.0]}))
        with pytest.raises(InvalidConfigError):
            induce_partition(simple_data, ChangePointConfig({0: [hi]}))

    def test_threshold_at_minimum_accepted(self, simple_data):
        lo = simple_data.sorted_values[0][0]
        grid = induce_partition(simple_data, ChangePointConfig({0: [lo]}))
        assert grid.region_counts.tolist() == [1, simple_data.n - 1]
        with pytest.raises(InvalidConfigError):
            induce_partition(simple_data, ChangePointConfig({0: [np.nextafter(lo, -np.inf)]}))

    def test_partition_exhaustive_exclusive_random(self):
        rng = np.random.default_rng(99)
        for trial in range(300):
            data = random_dataset(trial % 7, n=40, P=3)
            cfg = random_config(data, rng)
            grid = induce_partition(data, cfg)
            assert grid.R == cfg.num_regions
            assert int(grid.region_counts.sum()) == data.n
            for counts in grid.segment_counts:
                assert int(counts.sum()) == data.n

    def test_segment_counts_match_definition(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
        d = Dataset(X, np.zeros(5))
        grid = induce_partition(d, ChangePointConfig({0: [1.5, 3.5]}))
        assert grid.segment_counts[0].tolist() == [2, 2, 1]

    def test_monotone_refinement(self):
        rng = np.random.default_rng(17)
        data = random_dataset(3, n=50, P=3)
        for _ in range(40):
            cfg = random_config(data, rng)
            grid = induce_partition(data, cfg)
            cuts = data.cut_positions(0)
            existing = {data.cut_of_threshold(0, t) for t in cfg.thresholds(0)}
            free = [c for c in cuts if int(c) not in existing]
            if not free:
                continue
            extra = data.midpoint(0, int(free[0]))
            refined_breaks = cfg.as_dict()
            refined_breaks[0] = tuple(
                sorted(set(refined_breaks.get(0, ())) | {extra})
            )
            refined = induce_partition(data, ChangePointConfig(refined_breaks))
            assert refined.R > grid.R
            # previously distinct regions never merge
            pairs = set()
            for i in range(data.n):
                for k in range(i + 1, data.n):
                    if grid.region_of[i] != grid.region_of[k]:
                        pairs.add((i, k))
            for i, k in list(pairs)[:200]:
                assert refined.region_of[i] != refined.region_of[k]

    def test_region_bounds(self):
        X = np.array([[0.0, 5.0], [2.0, 6.0], [4.0, 7.0]])
        d = Dataset(X, np.zeros(3))
        grid = induce_partition(d, ChangePointConfig({0: [1.0, 3.0]}))
        assert grid.region_bounds(0) == ((-np.inf, 1.0),)
        assert grid.region_bounds(1) == ((1.0, 3.0),)
        assert grid.region_bounds(2) == ((3.0, np.inf),)


class TestAssignRegion:
    def test_no_breaks_always_zero(self):
        assert assign_region({}, [1.0, 2.0]) == 0

    def test_boundary_value_goes_left(self):
        assert assign_region({0: [4.0]}, [4.0, 0.0]) == 0
        assert assign_region({0: [4.0]}, [4.000001, 0.0]) == 1

    def test_setting1_point_region4(self):
        # x1 > 4 and x3 > 8.5 is the highest region index
        thr = {0: [4.0], 2: [8.5]}
        assert assign_region(thr, [5.0, 0.0, 9.0, 0.0]) == 3

    def test_agrees_with_induce_partition(self):
        rng = np.random.default_rng(7)
        data = random_dataset(11, n=45, P=3)
        for _ in range(25):
            cfg = random_config(data, rng)
            grid = induce_partition(data, cfg)
            got = assign_regions(cfg.as_dict(), data.X)
            assert np.array_equal(got, grid.region_of)

    def test_out_of_range_uses_outermost(self):
        assert assign_region({0: [1.0]}, [-100.0]) == 0
        assert assign_region({0: [1.0]}, [100.0]) == 1

    def test_non_finite_entry_rejected(self):
        # No segment holds NaN or an infinity; the comparisons used to place
        # these rows in regions 2 and 0.
        thr = {0: (0.5,), 1: (1.0, 2.0)}
        X = [[np.nan, 1.5], [0.2, np.nan], [1.0, 3.0]]
        with pytest.raises(
            SchemaError, match="non-finite predictor value at row 0, column 0"
        ):
            assign_regions(thr, X)
        with pytest.raises(SchemaError, match="at row 0, column 1"):
            assign_regions(thr, X[1:])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(SchemaError, match="at row 0, column 1"):
                assign_region(thr, [0.2, bad])
            with pytest.raises(SchemaError, match="at row 1, column 1"):
                assign_regions({0: (0.5,)}, [[0.1, 0.2], [0.3, bad]])
        assert assign_regions(thr, X[2:]).tolist() == [5]


def _adjacent_double_data(kind):
    """A predictor whose cut separates two adjacent doubles ``a < b``.

    With ``a = 1.0`` the rounded mean of ``a`` and ``b`` is ``a``, the
    predictor's minimum.  With ``a = 0.125 + 2**-55`` it rounds up to ``b``,
    and a third value above ``b`` keeps ``b`` inside the range.
    """
    rng = np.random.default_rng(5)
    if kind == "mean_is_min":
        a = 1.0
        x1 = np.repeat([a, np.nextafter(a, 2.0)], 100)
    else:
        a = 0.125 + 2.0**-55
        b = np.nextafter(a, 1.0)
        assert 0.5 * (a + b) == b
        x1 = np.repeat([a, b, 0.25], [40, 20, 20])
    n = x1.size
    x2 = rng.uniform(-1.0, 1.0, n)
    y = np.where(x1 == a, 2.0 + x2, -2.0 - x2) + rng.normal(0, 0.1, n)
    return Dataset(np.column_stack([x1, x2]), y)


@pytest.mark.parametrize("kind", ["mean_is_min", "mean_rounds_up"])
class TestAdjacentDoubles:
    def test_midpoint_induces_its_cut(self, kind):
        d = _adjacent_double_data(kind)
        scorer = ConfigScorer(d, "regression")
        for j in range(d.P):
            for k in d.cut_positions(j):
                t = d.midpoint(j, int(k))
                assert d.sorted_values[j][k] <= t < d.sorted_values[j][k + 1]
                key = ((j, (int(k),)),)
                assert scorer.key_of_config(scorer.config_of_key(key)) == key

    def test_fit_succeeds_and_config_gives_the_scored_partition(self, kind, monkeypatch):
        d = _adjacent_double_data(kind)
        scored = []
        to_model = estimator._to_model

        def capture(data, task, sc, *args):
            scored.append(sc)
            return to_model(data, task, sc, *args)

        monkeypatch.setattr(estimator, "_to_model", capture)
        model = fit_model(d, "regression", FitParams(seed=3)).model
        assert model.config.B > 0
        key = scored[0].key
        got = assign_regions(model.config.as_dict(), d.X)
        assert np.array_equal(got, _region_index(key, d.rank))
        assert np.array_equal(got, induce_partition(d, model.config).region_of)
