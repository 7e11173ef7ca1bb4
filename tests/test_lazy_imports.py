"""The package loads only what a command uses.

``partwise`` resolves its public names on first access (PEP 562), and
``partwise predict`` needs only the model, its document format and table
ingestion.  Each import-floor case runs the CLI as ``python -m partwise.cli``
does, in a fresh interpreter, and reads ``sys.modules`` afterwards.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import partwise
from partwise.cli import main
from partwise.io import dumps_document

SRC = str(Path(partwise.__file__).resolve().parent.parent)

SEARCH_MODULES = (
    "partwise.estimator",
    "partwise.bpso",
    "partwise.refine",
    "partwise.scan",
    "partwise.fitting",
    "partwise.simulate",
)

# Runs the CLI module as ``-m`` would and writes the loaded module names.
RUN_CLI = """
import json, runpy, sys
out, sys.argv = sys.argv[1], ["partwise", *sys.argv[2:]]
try:
    runpy.run_module("partwise.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
with open(out, "w") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules)}, fh)
"""


def _run(tmp_path, code: str, *args: str) -> dict:
    out = tmp_path / "modules.json"
    path = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    subprocess.run(
        [sys.executable, "-c", code, str(out), *args],
        check=True, env=env, cwd=tmp_path, capture_output=True, timeout=120,
    )
    return json.loads(out.read_text())


def _model_document(task):
    """Two regions split at x = 0, one coefficient each."""
    return {
        "version": "partwise-v1",
        "task": task,
        "n_obs": 10,
        "response": "y",
        "columns": ["x"],
        "thresholds": {"x": [0.0]},
        "region_fits": [
            {"mask": [True, False], "beta": [-1.0], "fit_stat": 1.0, "stabilized": False},
            {"mask": [False, True], "beta": [2.0], "fit_stat": 1.0, "stabilized": False},
        ],
        "mdl": {
            "predictor_code": 0.0,
            "per_predictor_code": 0.0,
            "region_param_code": 0.0,
            "residual_code": 0.0,
            "total": 0.0,
        },
        "sigma2_hat": 1.0 if task == "regression" else None,
        "converged": True,
    }


def _predict_modules(tmp_path, task) -> set[str]:
    model = tmp_path / "m.json"
    model.write_text(dumps_document(_model_document(task)))
    data = tmp_path / "d.csv"
    data.write_text("x\n-1.5\n0.25\n3\n")
    out = tmp_path / "p.csv"
    run = _run(tmp_path, RUN_CLI, "predict", "--model", str(model),
               "--data", str(data), "--out", str(out))
    assert run["code"] == 0
    assert len(out.read_text().splitlines()) == 4
    return set(run["modules"])


def test_regression_predict_loads_no_search_and_no_scipy(tmp_path):
    mods = _predict_modules(tmp_path, "regression")
    assert {"partwise.model", "partwise.io", "partwise.mdl"} <= mods
    assert not [m for m in mods if m == "scipy" or m.startswith("scipy.")]
    assert not [m for m in SEARCH_MODULES if m in mods]


def test_probit_predict_loads_scipy_special_only(tmp_path):
    mods = _predict_modules(tmp_path, "probit")
    assert "scipy.special" in mods
    assert not [m for m in SEARCH_MODULES if m in mods]
    # Older scipy releases import scipy.linalg from scipy.special itself;
    # whatever scipy.special loads alone is its own floor, not the predict's.
    alone = set(_run(tmp_path, (
        "import json, sys\nimport numpy, scipy.special\n"
        "json.dump({'modules': sorted(sys.modules)}, open(sys.argv[1], 'w'))\n"
    ))["modules"])
    scipy_mods = {m for m in mods if m == "scipy" or m.startswith("scipy.")}
    assert scipy_mods <= alone
    if "scipy.linalg" not in alone:
        assert "scipy.linalg" not in mods


def _home(name):
    return importlib.import_module(partwise._HOME_OF[name])


@pytest.mark.parametrize("name", partwise.__all__)
def test_public_name_is_its_home_module_object(name):
    assert getattr(partwise, name) is getattr(_home(name), name)


def test_dir_lists_public_names():
    assert set(partwise.__all__) <= set(dir(partwise))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from partwise import *", namespace)
    for name in partwise.__all__:
        assert namespace[name] is getattr(_home(name), name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        partwise.no_such_name  # noqa: B018


def test_submodule_attribute_resolves_to_the_module():
    assert partwise.simulate is importlib.import_module("partwise.simulate")


def test_unknown_simulate_setting_exits_2_naming_the_settings(capsys):
    code = main(["simulate", "--setting", "bogus", "--trials", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: unknown --setting 'bogus'")
    for name in partwise.SETTINGS:
        assert name in err
    assert "Traceback" not in err


def test_simulate_help_lists_the_settings(capsys):
    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert f"({', '.join(sorted(partwise.SETTINGS))};" in out


def test_names_the_fit_and_predict_were_looked_up_by_still_resolve(tmp_path):
    # A fresh interpreter: a tracer that patched these names earlier in this
    # process leaves its own wrapper bound to them.
    got = _run(tmp_path, (
        "import json, sys\n"
        "import partwise.cli as cli, partwise.estimator as est, partwise.model as mod\n"
        "try:\n    cli.no_such_name\nexcept AttributeError as exc:\n    error = str(exc)\n"
        "json.dump({'fit': cli.fit_model is est.fit_model,\n"
        "           'assign': est.assign_regions is mod.assign_regions,\n"
        "           'error': error}, open(sys.argv[1], 'w'))\n"
    ))
    assert got == {
        "fit": True,
        "assign": True,
        "error": "module 'partwise.cli' has no attribute 'no_such_name'",
    }
