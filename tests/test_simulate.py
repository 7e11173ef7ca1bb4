import numpy as np
import pytest

from partwise import ChangePointConfig, FittedModel, InputError, RegionFit
from partwise.mdl import MdlBreakdown
from partwise.simulate import (
    SETTINGS,
    TrialResult,
    evaluate_trial,
    generate,
    summarize_trials,
    trial_rng,
)


class TestGenerate:
    def test_reg1_ranges_and_betas(self):
        rng = np.random.default_rng(0)
        d = generate(SETTINGS["reg1"], 200, rng, sigma=0.0)
        assert d.n == 200 and d.P == 4
        assert d.X[:, 0].min() >= 0 and d.X[:, 0].max() <= 7
        assert d.X[:, 2].min() >= 5 and d.X[:, 2].max() <= 12
        # noise-free draws lie exactly on the region planes
        lo1 = d.X[:, 0] <= 4.0
        lo3 = d.X[:, 2] <= 8.5
        r1 = lo1 & lo3
        expect = (
            2.0 * d.X[r1, 0]
            - 2.0 * d.X[r1, 1]
            - 4.0 * d.X[r1, 2]
            + 1.0 * d.X[r1, 3]
        )
        assert np.allclose(d.y[r1], expect, atol=1e-12)

    def test_cls2_discrete_predictor(self):
        rng = np.random.default_rng(1)
        d = generate(SETTINGS["cls2"], 300, rng, link="logistic")
        vals = np.unique(d.X[:, 0])
        assert set(vals).issubset(set(range(7)))
        assert set(np.unique(d.y)) <= {0.0, 1.0}

    def test_cls1_link_probabilities(self):
        # with a huge sample the class-1 share approaches the link mean
        rng = np.random.default_rng(2)
        d = generate(SETTINGS["cls1"], 20000, rng, link="probit")
        from scipy.special import ndtr

        betas = np.asarray(SETTINGS["cls1"].true_betas)
        regions = (d.X[:, 0] > 10).astype(int) + (d.X[:, 0] > 20).astype(int)
        D = np.column_stack([np.ones(d.n), d.X])
        t = np.einsum("ij,ij->i", D, betas[regions])
        assert abs(d.y.mean() - ndtr(t).mean()) < 0.02

    def test_seeded_determinism(self):
        a = generate(SETTINGS["reg2"], 100, np.random.default_rng(7), sigma=2.0)
        b = generate(SETTINGS["reg2"], 100, np.random.default_rng(7), sigma=2.0)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_minimum_n(self):
        with pytest.raises(InputError):
            generate(SETTINGS["reg1"], 10, np.random.default_rng(0))

    @pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf")])
    def test_sigma_out_of_range_rejected(self, sigma):
        # 0 stays valid: noise-free recovery (test_io_cli's simulate smoke
        # test) draws with it.
        with pytest.raises(InputError, match="^sigma must be finite and at least 0"):
            generate(SETTINGS["reg1"], 60, np.random.default_rng(0), sigma=sigma)


def _model_for(setting, data, breaks, masks=None):
    cfg = ChangePointConfig(breaks)
    R = cfg.num_regions
    fits = []
    for r in range(R):
        mask = (
            np.asarray(masks[r], dtype=bool)
            if masks is not None
            else np.asarray(setting.true_betas[r]) != 0
        )
        fits.append(RegionFit(mask, np.zeros(int(mask.sum())), 1.0))
    task = "regression" if setting.is_regression else (setting.link or "logistic")
    return FittedModel(
        task=task,
        config=cfg,
        column_names=data.column_names,
        response_name="y",
        region_fits=fits,
        mdl=MdlBreakdown(0, 0, 0, 0, 0),
        sigma2_hat=1.0 if setting.is_regression else None,
        converged=True,
        n_obs=data.n,
    )


class TestEvaluateTrial:
    def test_truth_scores_perfect(self):
        setting = SETTINGS["reg1"]
        data = generate(setting, 120, np.random.default_rng(3), sigma=1.0)
        model = _model_for(setting, data, {0: [4.0], 2: [8.5]})
        res = evaluate_trial(setting, model, data)
        assert res.correct_BL
        assert all(e == 0.0 for _, ts in res.cp_errors for e in ts)
        assert all(res.region_masks_correct)

    def test_extra_break_predictor_is_incorrect(self):
        setting = SETTINGS["reg1"]
        data = generate(setting, 120, np.random.default_rng(4), sigma=1.0)
        model = _model_for(
            setting, data, {0: [4.0], 2: [8.5]}
        )
        bad_breaks = {0: [4.0], 1: [-3.0], 2: [8.5]}
        R = ChangePointConfig(bad_breaks).num_regions
        model_bad = FittedModel(
            task="regression",
            config=ChangePointConfig(bad_breaks),
            column_names=data.column_names,
            response_name="y",
            region_fits=[
                RegionFit(np.ones(5, dtype=bool), np.zeros(5), 1.0)
                for _ in range(R)
            ],
            mdl=MdlBreakdown(0, 0, 0, 0, 0),
            sigma2_hat=1.0,
            converged=True,
            n_obs=data.n,
        )
        res = evaluate_trial(setting, model_bad, data)
        assert not res.correct_BL
        assert res.cp_errors == ()

    def test_wrong_count_is_incorrect(self):
        setting = SETTINGS["cls1"]
        data = generate(setting, 120, np.random.default_rng(5), link="logistic")
        model = _model_for(setting, data, {0: [10.0]}, masks=[[1, 1, 1, 0]] * 2)
        assert not evaluate_trial(setting, model, data).correct_BL

    def test_quantized_error_is_zero_within_gap(self):
        # any threshold splitting the data identically compares as equal
        setting = SETTINGS["cls2"]
        data = generate(setting, 150, np.random.default_rng(6), link="logistic")
        model = _model_for(setting, data, {0: [3.5], 2: [0.0]})
        res = evaluate_trial(setting, model, data)
        assert res.correct_BL
        assert res.cp_errors[0][1][0] == 0.0  # 3.5 vs 3 on the discrete grid

    def test_mask_mismatch_detected(self):
        setting = SETTINGS["reg2"]
        data = generate(setting, 120, np.random.default_rng(7), sigma=1.0)
        masks = [list(np.asarray(b) != 0) for b in setting.true_betas]
        masks[1][0] = True  # spurious intercept in region 2
        model = _model_for(setting, data, {0: [6.0], 3: [1.5]}, masks=masks)
        res = evaluate_trial(setting, model, data)
        assert res.region_masks_correct == (True, False, True, True)


class TestSummaries:
    def test_summarize_counts_and_stats(self):
        results = [
            TrialResult(True, ((0, (0.1,)), (2, (0.0,))), (True, True, False, True), 5.0),
            TrialResult(True, ((0, (-0.1,)), (2, (0.0,))), (True, True, True, True), 6.0),
            TrialResult(False, (), (), 7.0),
        ]
        s = summarize_trials("reg1", 400, "sigma=1", results)
        assert s.trials == 3 and s.n_correct == 2
        assert s.pct_correct_BL == pytest.approx(2 / 3)
        cp = {(j, i): (m, se) for j, i, m, se in s.cp_stats}
        assert cp[(0, 0)][0] == pytest.approx(0.0)
        assert cp[(2, 0)][0] == pytest.approx(0.0)
        assert s.mask_accuracy == (1.0, 1.0, 0.5, 1.0)

    def test_trial_rng_streams_independent(self):
        a = trial_rng(1, 0).random(4)
        b = trial_rng(1, 1).random(4)
        assert not np.allclose(a, b)


def test_cls2_probit_trial_recovers_discrete_break_exactly():
    from partwise.simulate import run_trial

    res = run_trial("cls2", 400, seed=5, index=0, link="probit")
    assert res.correct_BL
    assert res.cp_errors[0][0] == 0  # the discrete predictor
    assert res.cp_errors[0][1][0] == 0.0


def test_worker_pool_does_not_change_results():
    from partwise.simulate import run_trials

    serial = run_trials("reg1", 120, 3, seed=9, sigma=1.0, threads=1)
    pooled = run_trials("reg1", 120, 3, seed=9, sigma=1.0, threads=2)
    for a, b in zip(serial, pooled):
        assert a.correct_BL == b.correct_BL
        assert a.cp_errors == b.cp_errors
        assert a.region_masks_correct == b.region_masks_correct


@pytest.mark.parametrize("trials", [0, -2])
def test_trial_count_below_one_rejected(trials):
    from partwise.simulate import run_trials

    with pytest.raises(InputError, match="trials"):
        run_trials("reg1", 120, trials)


@pytest.mark.parametrize("threads", [0, -3])
def test_thread_count_below_one_rejected(threads, monkeypatch):
    import partwise.simulate as simulate

    monkeypatch.setattr(simulate, "run_trial", lambda *a: pytest.fail("a trial ran"))
    with pytest.raises(InputError, match="^threads must be at least 1"):
        simulate.run_trials("reg1", 120, 2, threads=threads)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and runs
    nothing, returning each argument tuple in place of a result."""

    requested: list = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, args):
        return list(args)


@pytest.mark.parametrize(
    "threads, trials, workers", [(8, 2, 2), (3, 5, 3), (64, 3, 3)]
)
def test_worker_pool_capped_at_trial_count(monkeypatch, threads, trials, workers):
    import partwise.simulate as simulate

    monkeypatch.setattr(_RecordingPool, "requested", [])
    monkeypatch.setattr(simulate, "ProcessPoolExecutor", _RecordingPool)
    out = simulate.run_trials("reg1", 120, trials, threads=threads)
    assert _RecordingPool.requested == [workers]
    assert [a[3] for a in out] == list(range(trials))


def test_one_trial_runs_without_a_pool(monkeypatch):
    import partwise.simulate as simulate

    monkeypatch.setattr(_RecordingPool, "requested", [])
    monkeypatch.setattr(simulate, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(simulate, "run_trial", lambda *a: a)
    assert simulate.run_trials("reg1", 120, 1, threads=4) == [
        ("reg1", 120, 1, 0, None, None)
    ]
    assert _RecordingPool.requested == []
