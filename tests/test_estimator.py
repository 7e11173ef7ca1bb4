import numpy as np
import pytest

from partwise import Dataset, InputError, SchemaError, induce_partition, mdl_score
from partwise.estimator import FitParams, fit_model, predict, predict_labels
from partwise.simulate import SETTINGS, generate


class TestFitModel:
    def test_mdl_matches_recomputation(self):
        # the stored score must equal the criterion recomputed from the
        # stored configuration and fits on the training data
        rng = np.random.default_rng(2)
        data = generate(SETTINGS["reg1"], 150, rng, sigma=1.0)
        model = fit_model(data, "regression", FitParams(seed=4)).model
        grid = induce_partition(data, model.config)
        recomputed = mdl_score(data, grid, model.region_fits, model.task)
        assert model.mdl.total == pytest.approx(recomputed.total, abs=1e-9)

    def test_mdl_matches_recomputation_classification(self):
        rng = np.random.default_rng(3)
        data = generate(SETTINGS["cls2"], 200, rng, link="logistic")
        model = fit_model(data, "logistic", FitParams(seed=4)).model
        grid = induce_partition(data, model.config)
        recomputed = mdl_score(data, grid, model.region_fits, model.task)
        assert model.mdl.total == pytest.approx(recomputed.total, abs=1e-9)

    def test_sigma2_hat_consistency(self):
        rng = np.random.default_rng(5)
        data = generate(SETTINGS["reg2"], 150, rng, sigma=2.0)
        model = fit_model(data, "regression", FitParams(seed=1)).model
        rss = sum(f.fit_stat for f in model.region_fits)
        assert model.sigma2_hat == pytest.approx(rss / data.n)

    def test_tiny_sample_warns_and_degenerates(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(0, 1, (12, 2))
        y = rng.normal(0, 1, 12)
        data = Dataset(X, y)
        with pytest.warns(UserWarning, match="no-break"):
            out = fit_model(data, "regression", FitParams(seed=0))
        assert out.model.config.B == 0
        assert out.candidates == {}

    def test_fewer_rows_than_predictors_raises_input_error(self):
        # No region can hold P rows, so not even the no-break model is
        # feasible; the error comes before the scan.
        rng = np.random.default_rng(10)
        data = Dataset(rng.normal(size=(4, 6)), rng.normal(size=4))
        with pytest.raises(InputError, match="4 rows for 6 predictors"):
            fit_model(data, "regression", FitParams(seed=0))

    def test_as_many_rows_as_predictors_fits(self):
        rng = np.random.default_rng(11)
        data = Dataset(rng.normal(size=(4, 4)), rng.normal(size=4))
        with pytest.warns(UserWarning, match="no-break"):
            out = fit_model(data, "regression", FitParams(seed=0))
        assert out.model.config.B == 0
        assert out.evaluations == 1
        assert np.isfinite(out.model.mdl.total)

    def test_outcome_diagnostics(self):
        rng = np.random.default_rng(7)
        data = generate(SETTINGS["reg1"], 150, rng, sigma=1.0)
        out = fit_model(data, "regression", FitParams(seed=9))
        assert out.bpso_iterations >= 5
        assert out.evaluations >= 1
        assert out.bpso_converged == out.model.converged


class TestPredict:
    def test_labels_threshold(self):
        rng = np.random.default_rng(8)
        data = generate(SETTINGS["cls2"], 200, rng, link="logistic")
        model = fit_model(data, "logistic", FitParams(seed=2)).model
        p = predict(model, data.X)
        labels = predict_labels(model, data.X)
        assert np.array_equal(labels, (p >= 0.5).astype(int))
        assert set(np.unique(labels)) <= {0, 1}

    def test_labels_rejected_for_regression(self):
        rng = np.random.default_rng(9)
        data = generate(SETTINGS["reg1"], 120, rng, sigma=1.0)
        model = fit_model(data, "regression", FitParams(seed=2)).model
        with pytest.raises(ValueError):
            predict_labels(model, data.X)

    def test_non_finite_row_rejected(self):
        rng = np.random.default_rng(9)
        data = generate(SETTINGS["reg1"], 120, rng, sigma=1.0)
        model = fit_model(data, "regression", FitParams(seed=2)).model
        for bad in (np.nan, np.inf, -np.inf):
            X = data.X[:5].copy()
            X[3, 2] = bad
            X[4, 0] = bad
            with pytest.raises(
                SchemaError, match="non-finite predictor value at row 3, column 2"
            ):
                predict(model, X)
