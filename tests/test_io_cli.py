import argparse
import dataclasses
import json
import os

import numpy as np
import pytest

from partwise import (
    BpsoParams,
    Dataset,
    InputError,
    SchemaError,
    load_model,
    load_table,
    save_model,
    split_response,
)
from partwise.cli import _build_parser, main
from partwise.estimator import FitParams, fit_model, predict
from partwise.io import document_to_model, dumps_document, model_to_document
from partwise.simulate import SETTINGS, generate

from conftest import wide_reg1


def write_csv(path, header, rows, delim=","):
    with open(path, "w") as fh:
        fh.write(delim.join(header) + "\n")
        for r in rows:
            fh.write(delim.join(str(v) for v in r) + "\n")


@pytest.fixture
def reg_csv(tmp_path):
    rng = np.random.default_rng(42)
    data = generate(SETTINGS["reg1"], 120, rng, sigma=1.0)
    path = tmp_path / "train.csv"
    header = list(data.column_names) + ["y"]
    rows = np.column_stack([data.X, data.y])
    write_csv(path, header, rows.tolist())
    return str(path)


class TestLoadTable:
    def test_happy_path(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["a", "b"], [[1, 2.5], [3, 4]])
        header, table = load_table(str(p))
        assert header == ["a", "b"]
        assert table.shape == (2, 2)

    def test_non_numeric_cell_position(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["a", "b"], [[1, 2], [3, "oops"]])
        with pytest.raises(InputError, match="row 3, column 'b'"):
            load_table(str(p))

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["a"], [[1], ["inf"]])
        with pytest.raises(InputError, match="non-finite"):
            load_table(str(p))

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "t.csv"
        with open(p, "w") as fh:
            fh.write("a,b\n1,2\n3\n")
        with pytest.raises(InputError, match="row 3"):
            load_table(str(p))

    def test_missing_response(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["a", "b"], [[1, 2]])
        header, table = load_table(str(p))
        with pytest.raises(InputError, match="response column"):
            split_response(header, table, "z")

    def test_custom_delimiter(self, tmp_path):
        p = tmp_path / "t.tsv"
        write_csv(p, ["a", "b"], [[1, 2]], delim="\t")
        header, table = load_table(str(p), delim="\t")
        assert header == ["a", "b"]


class TestModelDocument:
    def _fit(self):
        rng = np.random.default_rng(11)
        data = generate(SETTINGS["reg1"], 150, rng, sigma=1.0)
        return data, fit_model(data, "regression", FitParams(seed=3)).model

    def test_round_trip_byte_identical(self, tmp_path):
        _, model = self._fit()
        p = tmp_path / "m.json"
        save_model(model, str(p))
        first = open(p, "rb").read()
        reloaded = load_model(str(p))
        save_model(reloaded, str(p))
        second = open(p, "rb").read()
        assert first == second

    def test_document_fields(self):
        _, model = self._fit()
        doc = model_to_document(model)
        assert doc["version"] == "partwise-v1"
        assert doc["task"] == "regression"
        assert set(doc["mdl"]) == {
            "predictor_code",
            "per_predictor_code",
            "region_param_code",
            "residual_code",
            "total",
        }
        assert len(doc["region_fits"]) == model.config.num_regions
        back = document_to_model(json.loads(dumps_document(doc)))
        assert back.mdl.total == model.mdl.total
        assert back.config.breaks == model.config.breaks

    def test_unknown_version_rejected(self):
        _, model = self._fit()
        doc = model_to_document(model)
        doc["version"] = "partwise-v999"
        with pytest.raises(SchemaError):
            document_to_model(doc)

    def test_predict_training_rss_matches_fit_stats(self):
        data, model = self._fit()
        preds = predict(model, data.X)
        rss = float(np.sum((data.y - preds) ** 2))
        stored = sum(f.fit_stat for f in model.region_fits)
        assert rss == pytest.approx(stored, abs=1e-8)

    def test_predict_column_mismatch(self):
        data, model = self._fit()
        with pytest.raises(SchemaError):
            predict(model, data.X[:, :2])


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    """A fitted model's document text and a CSV of its predictor rows.

    The columns have one-letter names, so a ``columns`` string that a loader
    split into characters would still name them.
    """
    rng = np.random.default_rng(11)
    drawn = generate(SETTINGS["reg1"], 150, rng, sigma=1.0)
    data = Dataset(drawn.X, drawn.y, column_names=("a", "b", "c", "d"))
    model = fit_model(data, "regression", FitParams(seed=3)).model
    assert model.config.B > 0
    root = tmp_path_factory.mktemp("saved")
    csv_path = root / "rows.csv"
    write_csv(csv_path, list(data.column_names), data.X.tolist())
    return dumps_document(model_to_document(model)), str(csv_path)


def _edit(change):
    def corrupt(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)

    return corrupt


def _edit_text(old, new):
    # For values json.dumps cannot write, such as an integer past Python's
    # string conversion limit, which json.load refuses.
    def corrupt(text):
        assert text.count(old) == 1
        return text.replace(old, new)

    return corrupt


def _rename_threshold_column(doc):
    name = next(iter(doc["thresholds"]))
    doc["thresholds"]["nope"] = doc["thresholds"].pop(name)


def _repeat_column(doc):
    # A name no break uses takes the first name, so the thresholds still
    # name known columns.
    j = next(j for j, c in enumerate(doc["columns"]) if c not in doc["thresholds"])
    doc["columns"][j] = doc["columns"][0]


def _nan_first_betas(doc):
    for rf in doc["region_fits"]:
        rf["beta"][:1] = [float("nan")]


def _infinite_last_threshold(doc):
    next(iter(doc["thresholds"].values()))[-1] = float("inf")


def _infinite_fit_stat(doc):
    doc["region_fits"][0]["fit_stat"] = float("-inf")


def _string_threshold(doc):
    # The first break has one threshold, so "5" split into characters
    # would still describe as many regions.
    name = next(iter(doc["thresholds"]))
    assert len(doc["thresholds"][name]) == 1
    doc["thresholds"][name] = "5"


CORRUPTIONS = {
    "truncated_json": lambda text: text[: len(text) // 2],
    "not_json": lambda text: "not a model\n",
    "not_an_object": lambda text: "[1, 2]",
    "missing_mdl": _edit(lambda d: d.pop("mdl")),
    "missing_mdl_total": _edit(lambda d: d["mdl"].pop("total")),
    "missing_columns": _edit(lambda d: d.pop("columns")),
    "missing_beta": _edit(lambda d: d["region_fits"][0].pop("beta")),
    "mask_too_long": _edit(lambda d: d["region_fits"][0]["mask"].append(True)),
    "mask_too_short": _edit(lambda d: d["region_fits"][0]["mask"].pop()),
    "beta_too_long": _edit(lambda d: d["region_fits"][0]["beta"].append(1.0)),
    "beta_not_numbers": _edit(lambda d: d["region_fits"][0].update(beta="abc")),
    "region_missing": _edit(lambda d: d["region_fits"].pop()),
    "region_extra": _edit(lambda d: d["region_fits"].append(d["region_fits"][0])),
    "unknown_column": _edit(_rename_threshold_column),
    "repeated_column": _edit(_repeat_column),
    "unknown_task": _edit(lambda d: d.update(task="ranking")),
    "nan_beta": _edit(_nan_first_betas),
    "infinite_threshold": _edit(_infinite_last_threshold),
    "negative_infinite_fit_stat": _edit(_infinite_fit_stat),
    "overflowing_fit_stat": lambda text: _edit(_infinite_fit_stat)(text).replace(
        "-Infinity", "-1e999"
    ),
    "overflowing_integer_fit_stat": lambda text: _edit(_infinite_fit_stat)(text).replace(
        "-Infinity", "1" + "0" * 400
    ),
    # Wrongly typed fields that a coercing loader would accept.
    "string_threshold": _edit(_string_threshold),
    "string_columns": _edit(lambda d: d.update(columns="".join(d["columns"]))),
    "string_converged": _edit(lambda d: d.update(converged="false")),
    "string_stabilized": _edit(lambda d: d["region_fits"][0].update(stabilized="no")),
    "list_response": _edit(lambda d: d.update(response=[d["response"]])),
    "boolean_n_obs": _edit(lambda d: d.update(n_obs=True)),
    # Well-typed values that no fit writes.
    "zero_n_obs": _edit(lambda d: d.update(n_obs=0)),
    "negative_n_obs": _edit(lambda d: d.update(n_obs=-150)),
    "n_obs_past_int64": _edit(lambda d: d.update(n_obs=2**63)),
    "huge_n_obs": _edit(lambda d: d.update(n_obs=10**400)),
    "n_obs_past_digit_limit": _edit_text('"n_obs": 150', '"n_obs": 1' + "0" * 5000),
    "null_regression_sigma2": _edit(lambda d: d.update(sigma2_hat=None)),
    "zero_regression_sigma2": _edit(lambda d: d.update(sigma2_hat=0.0)),
    "negative_regression_sigma2": _edit(lambda d: d.update(sigma2_hat=-1.5)),
    "logistic_with_sigma2": _edit(lambda d: d.update(task="logistic")),
    "probit_with_sigma2": _edit(lambda d: d.update(task="probit")),
}

# The field each wrongly typed or out-of-range document must be rejected
# for, as the error names it.
MISTYPED_FIELDS = {
    "string_threshold": "thresholds['a']",
    "string_columns": "columns",
    "repeated_column": "columns",
    "string_converged": "converged",
    "string_stabilized": "region fit 0: stabilized",
    "list_response": "response",
    "boolean_n_obs": "n_obs",
    "zero_n_obs": "n_obs",
    "negative_n_obs": "n_obs",
    "n_obs_past_int64": "n_obs",
    "huge_n_obs": "n_obs",
    "null_regression_sigma2": "sigma2_hat",
    "zero_regression_sigma2": "sigma2_hat",
    "negative_regression_sigma2": "sigma2_hat",
    "logistic_with_sigma2": "sigma2_hat",
    "probit_with_sigma2": "sigma2_hat",
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_predict_rejects_malformed_document(saved_model, tmp_path, capsys, corruption):
    text, csv_path = saved_model
    model_path = tmp_path / "model.json"
    model_path.write_text(CORRUPTIONS[corruption](text))
    out = str(tmp_path / "pred.csv")
    code = main(["predict", "--model", str(model_path), "--data", csv_path, "--out", out])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("corruption", sorted(MISTYPED_FIELDS))
def test_mistyped_field_is_named(saved_model, corruption):
    text, _ = saved_model
    doc = json.loads(CORRUPTIONS[corruption](text))
    with pytest.raises(SchemaError) as err:
        document_to_model(doc)
    assert str(err.value).startswith(f"{MISTYPED_FIELDS[corruption]} must be ")


def test_integer_numbers_load_as_floats(saved_model):
    # ``.17g`` writes a whole float without a decimal point.
    text, _ = saved_model
    doc = json.loads(text)
    name = next(iter(doc["thresholds"]))
    doc["thresholds"][name] = [5]
    doc["region_fits"][0]["fit_stat"] = 12
    doc["mdl"]["total"] = 90
    model = document_to_model(doc)
    assert model.config.breaks[0][1] == (5.0,)
    assert model.region_fits[0].fit_stat == 12.0
    assert model.mdl.total == 90.0


def test_predict_accepts_uncorrupted_document(saved_model, tmp_path):
    text, csv_path = saved_model
    model_path = tmp_path / "model.json"
    model_path.write_text(text)
    out = str(tmp_path / "pred.csv")
    assert main(["predict", "--model", str(model_path), "--data", csv_path, "--out", out]) == 0


OUT_OF_RANGE = {
    "swarm_size": ["fit", "--swarm-size", "2"],
    # The scan finds no candidates in the tiny table.
    "swarm_size_no_candidates": ["fit", "--swarm-size", "1", "--data", "{tiny}"],
    "max_cp_per_predictor": ["fit", "--max-cp-per-predictor", "0"],
    "min_segment": ["fit", "--min-segment", "1"],
    "simulate_n": ["simulate", "--setting", "reg1", "--n", "5", "--trials", "1"],
    "simulate_trials_0": ["simulate", "--setting", "reg1", "--trials", "0"],
    "simulate_trials_negative": ["simulate", "--setting", "reg1", "--trials", "-2"],
    "simulate_sigma_negative": ["simulate", "--setting", "reg1", "--sigma=-1", "--trials", "1"],
    "simulate_sigma_nan": ["simulate", "--setting", "reg1", "--sigma", "nan", "--trials", "1"],
    "max_iter_0": ["fit", "--max-iter", "0"],
    "max_iter_negative": ["fit", "--max-iter", "-4"],
}


def _tiny_csv(tmp_path):
    """A 15-row reg1 table: too few rows for a split of min_segment 10."""
    path = str(tmp_path / "tiny.csv")
    drawn = generate(SETTINGS["reg1"], 50, np.random.default_rng(5), sigma=1.0)
    write_csv(path, ["x1", "x2", "x3", "x4", "y"], np.column_stack([drawn.X, drawn.y])[:15])
    return path


# The tiny table warns that it admits no split before the swarm rejects it.
@pytest.mark.filterwarnings("ignore:n=15 < 2\\*min_segment:UserWarning")
@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_argument_exits_2(case, reg_csv, tmp_path, capsys):
    argv = OUT_OF_RANGE[case]
    if argv[0] == "fit":
        if "--data" not in argv:
            argv = argv + ["--data", reg_csv]
        argv = [_tiny_csv(tmp_path) if a == "{tiny}" else a for a in argv] + [
            "--response", "y", "--task", "regression", "--out", str(tmp_path / "m.json")
        ]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not os.path.exists(tmp_path / "m.json")


FIT = ["fit", "--response", "y", "--task", "regression"]

# Tokens are formatted with the paths of the test: the training table, a
# saved model, its predictor rows and a scratch directory.  A path under a
# missing directory cannot be written by any user, root included.
FILE_AND_DELIMITER_ERRORS = {
    "fit_missing_data": FIT + ["--data", "{dir}/nope.csv", "--out", "{dir}/m.json"],
    "fit_unwritable_out": FIT + ["--data", "{train}", "--out", "{dir}/no_dir/m.json"],
    "fit_out_is_directory": FIT + ["--data", "{train}", "--out", "{dir}"],
    "fit_empty_delim": FIT + ["--data", "{train}", "--out", "{dir}/m.json", "--delim", ""],
    "fit_two_char_delim": FIT + ["--data", "{train}", "--out", "{dir}/m.json", "--delim", ";;"],
    "predict_missing_model": ["predict", "--model", "{dir}/nope.json", "--data", "{rows}",
                              "--out", "{dir}/p.csv"],
    "predict_missing_data": ["predict", "--model", "{model}", "--data", "{dir}/nope.csv",
                             "--out", "{dir}/p.csv"],
    "predict_unwritable_out": ["predict", "--model", "{model}", "--data", "{rows}",
                               "--out", "{dir}/no_dir/p.csv"],
    "predict_two_char_delim": ["predict", "--model", "{model}", "--data", "{rows}",
                               "--out", "{dir}/p.csv", "--delim", ";;"],
    "simulate_threads_0": ["simulate", "--setting", "reg1", "--trials", "1", "--threads", "0"],
    "simulate_threads_negative": ["simulate", "--setting", "reg1", "--trials", "1",
                                  "--threads", "-3"],
    "simulate_unwritable_out": ["simulate", "--setting", "reg1", "--n", "60", "--trials", "1",
                                "--out", "{dir}/no_dir/t.csv"],
}


def _fit_model_not_called(*args, **kwargs):
    raise AssertionError("fit_model must not run")


@pytest.mark.parametrize("case", sorted(FILE_AND_DELIMITER_ERRORS))
def test_file_and_delimiter_errors_exit_2(
    case, reg_csv, saved_model, tmp_path, capsys, monkeypatch
):
    # Every case fails before the search starts, and leaves no new file.
    monkeypatch.setattr("partwise.estimator.fit_model", _fit_model_not_called)
    text, rows_csv = saved_model
    model_path = tmp_path / "model.json"
    model_path.write_text(text)
    before = sorted(os.listdir(tmp_path))
    paths = dict(train=reg_csv, model=str(model_path), rows=rows_csv, dir=str(tmp_path))
    code = main([tok.format(**paths) for tok in FILE_AND_DELIMITER_ERRORS[case]])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == before


def _fit_model_fails(*args, **kwargs):
    raise InputError("the fit failed")


@pytest.mark.parametrize("existing", [False, True])
def test_failed_fit_leaves_out_as_it_was(existing, reg_csv, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("partwise.estimator.fit_model", _fit_model_fails)
    out = tmp_path / "m.json"
    if existing:
        out.write_text("an earlier model\n")
    code = main(FIT + ["--data", reg_csv, "--out", str(out)])
    assert code == 2
    assert "the fit failed" in capsys.readouterr().err
    if existing:
        assert out.read_text() == "an earlier model\n"
    else:
        assert not out.exists()


def test_fit_with_fewer_rows_than_predictors_exits_2(tmp_path, capsys):
    data = tmp_path / "short.csv"
    write_csv(data, ["x1", "x2", "x3", "y"], [[0.5, 1.0, 2.0, 3.0], [1.5, 0.0, 4.0, 1.0]])
    out = tmp_path / "m.json"
    code = main(FIT + ["--data", str(data), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: 2 rows for 3 predictors")
    assert "Traceback" not in err
    assert not out.exists()


def test_fit_with_sixteen_predictors_exits_0(tmp_path, capsys):
    # reg1 plus 12 noise predictors: a key with a cut on every predictor
    # induces 4^16 regions, which the fit must reject without counting rows.
    wide = wide_reg1(12)
    data = tmp_path / "wide.csv"
    header = [f"x{j + 1}" for j in range(16)] + ["y"]
    write_csv(data, header, np.column_stack([wide.X, wide.y]).tolist())
    out = tmp_path / "m.json"
    code = main(FIT + ["--data", str(data), "--out", str(out), "--seed", "3"])
    assert code == 0, capsys.readouterr().err
    assert sorted(load_model(str(out)).config.as_dict()) == [0, 2]


class TestCli:
    def test_fit_predict_round_trip(self, reg_csv, tmp_path, capsys):
        model_path = str(tmp_path / "model.json")
        code = main(
            [
                "fit",
                "--data",
                reg_csv,
                "--response",
                "y",
                "--task",
                "regression",
                "--seed",
                "7",
                "--out",
                model_path,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mdl breakdown" in out
        assert os.path.exists(model_path)

        pred_path = str(tmp_path / "pred.csv")
        code = main(
            ["predict", "--model", model_path, "--data", reg_csv, "--out", pred_path]
        )
        assert code == 0
        preds = np.loadtxt(pred_path, skiprows=1)
        model = load_model(model_path)
        header, table = load_table(reg_csv)
        y = table[:, header.index("y")]
        rss = float(np.sum((y - preds) ** 2))
        assert rss == pytest.approx(
            sum(f.fit_stat for f in model.region_fits), abs=1e-8
        )

    def test_fit_deterministic_output(self, reg_csv, tmp_path):
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for p in (p1, p2):
            assert (
                main(
                    [
                        "fit",
                        "--data",
                        reg_csv,
                        "--response",
                        "y",
                        "--task",
                        "regression",
                        "--seed",
                        "5",
                        "--out",
                        p,
                    ]
                )
                == 0
            )
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_non_convergence_exit_code_still_writes_model(
        self, reg_csv, tmp_path, capsys
    ):
        # max-iter 1 cannot satisfy the five-iteration stall rule
        model_path = str(tmp_path / "m.json")
        code = main(
            [
                "fit",
                "--data",
                reg_csv,
                "--response",
                "y",
                "--task",
                "regression",
                "--max-iter",
                "1",
                "--seed",
                "2",
                "--out",
                model_path,
            ]
        )
        assert code == 3
        assert os.path.exists(model_path)
        assert not load_model(model_path).converged
        assert "without converging" in capsys.readouterr().err

    def test_missing_column_exit_code(self, reg_csv, tmp_path, capsys):
        code = main(
            [
                "fit",
                "--data",
                reg_csv,
                "--response",
                "nope",
                "--task",
                "regression",
                "--out",
                str(tmp_path / "m.json"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_binary_response_rejected(self, reg_csv, tmp_path, capsys):
        code = main(
            [
                "fit",
                "--data",
                reg_csv,
                "--response",
                "y",
                "--task",
                "logistic",
                "--out",
                str(tmp_path / "m.json"),
            ]
        )
        assert code == 2

    def test_logistic_predict_probability_half(self, tmp_path):
        # hand-built model: single region, empty coefficient vector -> t = 0
        doc = {
            "version": "partwise-v1",
            "task": "logistic",
            "n_obs": 10,
            "response": "y",
            "columns": ["x1"],
            "thresholds": {},
            "region_fits": [
                {"mask": [False, False], "beta": [], "fit_stat": 1.0,
                 "stabilized": False}
            ],
            "mdl": {
                "predictor_code": 0.0,
                "per_predictor_code": 0.0,
                "region_param_code": 0.0,
                "residual_code": 0.0,
                "total": 0.0,
            },
            "sigma2_hat": None,
            "converged": True,
        }
        mp = tmp_path / "m.json"
        mp.write_text(dumps_document(doc))
        dp = tmp_path / "d.csv"
        write_csv(dp, ["x1"], [[0.3], [99.0], [-99.0]])
        out = tmp_path / "p.csv"
        assert main(["predict", "--model", str(mp), "--data", str(dp), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "probability,label"
        for line in lines[1:]:
            p, lab = line.split(",")
            assert float(p) == 0.5
            assert lab == "1"

    def test_simulate_smoke(self, capsys):
        code = main(
            [
                "simulate",
                "--setting",
                "reg1",
                "--n",
                "120",
                "--sigma",
                "0",
                "--trials",
                "1",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pct_correct_BL" in out
        lines = [l for l in out.splitlines() if l]
        # exact recovery row under zero noise
        summary = dict(zip(lines[-2].split(","), lines[-1].split(",")))
        assert summary["pct_correct_BL"] == "1.0000"
        assert float(summary["cp_x1_1_mean"]) == 0.0

    def test_sigma_rejected_for_classification(self, capsys):
        code = main(
            ["simulate", "--setting", "cls2", "--sigma", "1", "--trials", "1"]
        )
        assert code == 2


def _subcommand_options(name):
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [opt for a in sub.choices[name]._actions for opt in a.option_strings]


def test_option_surface():
    # Every setting a user can change is listed here, so a new knob (or a
    # removed one) shows up as an edit of this test.
    assert [f.name for f in dataclasses.fields(BpsoParams)] == ["swarm_size", "max_iter"]
    assert [f.name for f in dataclasses.fields(FitParams)] == [
        "max_cp_per_predictor", "min_segment", "swarm", "seed",
    ]
    assert _subcommand_options("fit") == [
        "-h", "--help", "--data", "--response", "--task", "--max-cp-per-predictor",
        "--min-segment", "--swarm-size", "--max-iter", "--seed", "--delim", "--out",
    ]
    assert _subcommand_options("simulate") == [
        "-h", "--help", "--setting", "--n", "--sigma", "--link", "--trials", "--seed",
        "--threads", "--out",
    ]


def test_simulate_runs_one_process_by_default():
    args = _build_parser().parse_args(["simulate", "--setting", "reg1"])
    assert args.threads == 1
