"""Table ingestion and prediction output against their per-cell forms.

``load_table`` parses a table body with numpy's C reader and walks it cell
by cell with ``float`` only when that reader refuses it; ``partwise
predict`` writes every prediction with one format.  The references kept
here are the earlier forms: a ``csv`` walk that converts each cell with
``float`` and an f-string per numpy scalar.  Accepted tables must give
bitwise-equal arrays, malformed ones the same InputError message, and the
predictions file the same bytes.
"""

import csv
import math
import random
import warnings

import numpy as np
import pytest

import partwise.cli as cli
import partwise.io as pio
from partwise import InputError, load_table
from partwise.estimator import predict
from partwise.io import dumps_document, load_model


def per_cell_load_table(path, delim=","):
    if len(delim) != 1:
        raise InputError(f"delimiter must be one character, got {delim!r}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delim)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise InputError(f"{path}: duplicate column names in header")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise InputError(
                    f"{path}: row {lineno} has {len(row)} cells, "
                    f"expected {len(header)}"
                )
            vals = []
            for name, cell in zip(header, row):
                try:
                    v = float(cell)
                except ValueError:
                    raise InputError(
                        f"{path}: row {lineno}, column {name!r}: "
                        f"non-numeric value {cell.strip()!r}"
                    ) from None
                if not math.isfinite(v):
                    raise InputError(
                        f"{path}: row {lineno}, column {name!r}: "
                        f"non-finite value {cell.strip()!r}"
                    )
                vals.append(v)
            rows.append(vals)
    if not rows:
        raise InputError(f"{path}: no data rows")
    return header, np.asarray(rows, dtype=np.float64)


def outcome(load, path, delim):
    """What ``load`` makes of a table; any warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            header, table = load(str(path), delim)
        except InputError as exc:
            return ("error", str(exc))
    return ("table", header, table.shape, table.dtype, table.tobytes())


def assert_same(path, delim=","):
    got = outcome(load_table, path, delim)
    assert got == outcome(per_cell_load_table, path, delim)
    return got


def _floats(rng, k):
    """Python floats of magnitudes 1e-300 to 1e300."""
    scales = 10.0 ** rng.integers(-300, 300, k)
    return (rng.standard_normal(k) * scales).tolist()


_rng = np.random.default_rng(0)
_REPR = "a,b\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(*[iter(_floats(_rng, 400))] * 2))
_G17 = "a,b\n" + "".join(f"{x:.17g},{y:.17g}\n" for x, y in zip(*[iter(_floats(_rng, 400))] * 2))

# Tables both forms accept, and on which numpy's reader is all that runs.
FAST = {
    "repr": _REPR,
    "g17": _G17,
    "integers": "a,b\n1,-2\n30,0\n-0,12345678901234567\n",
    "exponents": "a,b\n1e5,-2.5E-3\n+4e+2,.5e1\n7.,-.25\n",
    "signed_zero": "a,b\n-0.0,0.0\n-0,+0\n",
    "extremes": "a,b\n5e-324,1.7976931348623157e308\n-5e-324,-1.7976931348623157e308\n"
    "2.2250738585072009e-308,1e-400\n",
    "spaces": "a , b\n 1.5 , 2 \n3\t,\t4\n",
    "quoted": '"a","b"\n"1.5","2"\n"-3",4\n',
    "crlf": "a,b\r\n1,2\r\n3,4\r\n",
    "cr_only": "a,b\r1,2\r3,4\r",
    "no_final_newline": "a,b\n1,2\n3,4",
    "one_column": "a\n1\n2.5\n-3\n",
    "one_row": "a,b,c\n1,2,3\n",
    "blank_lines": "a,b\n\n1,2\n\n\r\n3,4\n\n",
    "unicode_space": "a,b\n1 ,\xa02\n",
}
# Tables both forms accept, which numpy's reader refuses and the walk reads.
WALKED = {
    "whitespace_line": "a,b\n1,2\n   \n3,4\n",
    "whitespace_line_one_column": "a\n1\n \t \n2\n",
    "underscore": "a,b\n1_0,2\n3,4_000\n",
    "non_ascii_digits": "a,b\n١٢,2\n3,٤.5\n",
}
# Tables both forms reject, with the same message.
MALFORMED = {
    "non_numeric": "a,b\n1,2\n3,oops\n",
    "empty_cell": "a,b\n1,\n",
    "nan": "a,b\n1,2\nnan,4\n",
    "inf": "a,b\n1,inf\n",
    "minus_inf": "a,b\n1,-inf\n",
    "infinity": "a,b\nInfinity,2\n",
    "overflow": "a,b\n1,2\n1e400,4\n",
    "ragged_short": "a,b\n1,2\n3\n",
    "ragged_long": "a,b\n1,2\n3,4,5\n",
    "trailing_delimiter": "a,b\n1,2,\n",
    "wider_than_header": "a,b\n1,2,3\n4,5,6\n",
    "narrower_than_header": "a,b,c\n1,2\n4,5\n",
    "blank_header": "\n1,2\n",
    "blank_header_only": "\n\n",
    "header_only": "a,b\n",
    "header_only_one_column": "a\n",
    "header_only_blank_lines": "a,b\n\n\n",
    "empty_file": "",
    "duplicate_header": "a,a\n1,2\n",
    "row_past_blank_lines": "a,b\n1,2\n\n\n3,x\n",
    "quoted_delimiter": 'a,b\n"1,5",2\n',
    "separator_char": "a,b\n1\x1c,2\n",
    "nul": "a,b\n1\x002,2\n",
    "hex": "a,b\n0x10,2\n",
    "space_inside": "a,b\n1 0,2\n",
}


def _write(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


@pytest.fixture
def walks(monkeypatch):
    """Count the calls of the per-cell walk inside ``load_table``."""
    calls = []
    walk = pio._walk_rows

    def counting(*args):
        calls.append(args[0])
        return walk(*args)

    monkeypatch.setattr(pio, "_walk_rows", counting)
    return calls


@pytest.mark.parametrize("name", sorted(FAST))
def test_accepted_table_bitwise_from_numpy_reader(name, tmp_path, walks):
    got = assert_same(_write(tmp_path, FAST[name]))
    assert got[0] == "table"
    assert walks == []


@pytest.mark.parametrize("name", sorted(WALKED))
def test_accepted_table_bitwise_from_walk(name, tmp_path, walks):
    got = assert_same(_write(tmp_path, WALKED[name]))
    assert got[0] == "table"
    assert len(walks) == 1


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_table_same_message(name, tmp_path):
    got = assert_same(_write(tmp_path, MALFORMED[name]))
    assert got[0] == "error"


def test_row_numbers_count_blank_lines(tmp_path):
    got = assert_same(_write(tmp_path, MALFORMED["row_past_blank_lines"]))
    assert got[1].endswith("row 5, column 'b': non-numeric value 'x'")


def test_header_only_reports_no_data_rows(tmp_path):
    got = assert_same(_write(tmp_path, MALFORMED["header_only"]))
    assert got[1].endswith(": no data rows")


@pytest.mark.parametrize("delim", ["\t", ";", " ", '"', "\n", "|"])
def test_other_delimiters(delim, tmp_path):
    rows = ["a", "b"], ["1.5", "-2"], ["3e1", "4"]
    assert_same(_write(tmp_path, "".join(delim.join(r) + "\n" for r in rows)), delim)
    assert_same(_write(tmp_path, "a\n1\n2\n", "one.csv"), delim)


def test_random_tables(tmp_path):
    """Tables of numbers and stray tokens: both forms agree on every one."""
    tokens = list("0123456789") * 4 + list('.e-+", \t\r\n_#') + [
        "nan", "inf", "1e400", "5e-324", "-0.0", "\x1d", "\x0c", "\x85",
        " ", "٣", "\r\n", "\n\n", '"1"2', ' "1" ',
    ]
    rng = random.Random(5)
    path = tmp_path / "r.csv"
    kinds = set()
    for _ in range(400):
        delim = rng.choice([",", ",", "\t", ";", " "])
        k = rng.randint(1, 3)
        lines = [delim.join(f"c{i}" for i in range(k))]
        for _ in range(rng.randint(0, 4)):
            cells = []
            for _ in range(k):
                if rng.random() < 0.7:
                    cells.append(repr(rng.uniform(-1e3, 1e3)))
                else:
                    cells.append("".join(rng.choices(tokens, k=rng.randint(0, 3))))
            cells = [f'"{c}"' if rng.random() < 0.2 else c for c in cells]
            lines.append(delim.join(cells))
        end = rng.choice(["\n", "\r\n", "\r"])
        with open(path, "w", newline="") as fh:
            fh.write(end.join(lines) + rng.choice([end, ""]))
        kinds.add(assert_same(path, delim)[0])
    assert kinds == {"table", "error"}


# -- cells over csv's field limit, text that is not UTF-8 -------------------

LIMIT = csv.field_size_limit()
LONG = " " * LIMIT + "1"  # one character over the limit
AT_LIMIT = " " * (LIMIT - 1) + "1"

# A cell over the limit fails wherever it is, with the row it is in.
OVER_LIMIT = {
    "fast_body": ("a,b\n" + LONG + ",2\n3,4\n", 2),
    "walked_body": ("a,b\n" + LONG + ",2\n3,1_0\n", 2),
    "after_walked_row": ("a,b\n1_0,2\n3,4\n" + LONG + ",5\n", 4),
    "one_column": ("a\n1\n" + LONG + "\n", 3),
    "quoted_across_lines": ('a,b\n"1' + "\n" * LIMIT + '",2\n3,4\n', 2),
    "header": ("a" + LONG + ",b\n1,2\n", 1),
    "unquoted_in_quoted_body": ('a,b\n"1",2\n' + LONG + ",3\n", 3),
}


@pytest.mark.parametrize("name", sorted(OVER_LIMIT))
def test_cell_over_field_limit_fails_on_every_path(name, tmp_path):
    text, row = OVER_LIMIT[name]
    path = _write(tmp_path, text)
    with pytest.raises(InputError, match=f"^{path}: row {row}: field larger than field limit"):
        load_table(str(path))


def test_quoted_cell_over_field_limit_with_space_delimiter(tmp_path):
    # numpy strips the spaces inside the quotes, so the space delimiter is
    # no cell end for the probe.
    path = _write(tmp_path, 'a b\n"' + LONG + '" 2\n3 4\n')
    with pytest.raises(InputError, match=f"^{path}: row 2: field larger than field limit"):
        load_table(str(path), " ")


# Bodies over the limit whose cells are all short: numpy parses them.
LONG_BODY_SHORT_CELLS = {
    "wide_lines": "".join(f"c{j}," for j in range(9000)) + "y\n"
    + ("1.2345678901234567," * 9000 + "2\n") * 3,
    "quoted_cells": "a,b\n" + '"1.5","-2.25"\n' * 20000,
    "quoted_one_column": "a\n" + '"1.5"\n' * 30000,
    "long_run_at_limit": "a,b\n" + AT_LIMIT + ",2\n" + "3,4\n" * 40000,
}


@pytest.mark.parametrize("name", sorted(LONG_BODY_SHORT_CELLS))
def test_long_body_with_short_cells_loads_from_numpy_reader(name, tmp_path, walks, monkeypatch):
    measured = []
    measure = pio._csv_within_field_limit
    monkeypatch.setattr(
        pio, "_csv_within_field_limit", lambda *args: measured.append(1) or measure(*args)
    )
    got = assert_same(_write(tmp_path, LONG_BODY_SHORT_CELLS[name]))
    assert got[0] == "table"
    assert walks == []
    # Only a body with no cell end in a window of half the limit is read by csv.
    assert len(measured) == (name == "quoted_one_column")


@pytest.mark.parametrize("last", ["3,4", "3,1_0"])
def test_cell_at_field_limit_loads(last, tmp_path):
    _, table = load_table(str(_write(tmp_path, f"a,b\n{AT_LIMIT},2\n{last}\n")))
    assert table.tolist() == [[1.0, 2.0], [3.0, float(last[2:].replace("_", ""))]]


@pytest.mark.parametrize(
    "raw, row, byte",
    [(b"x\n1\xff\n", 2, "0xff"), (b"\xffx\n1\n", 1, "0xff"), (b"x\n1\n2\xc3", 3, "0xc3")],
    ids=["body", "header", "truncated_at_end"],
)
def test_not_utf8_names_file_and_row(raw, row, byte, tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(raw)
    with pytest.raises(InputError, match=f"^{path}: row {row}: not valid UTF-8 \\(byte {byte}\\)$"):
        load_table(str(path))


@pytest.mark.parametrize("command", ["fit", "predict"])
@pytest.mark.parametrize(
    "text", [b"x,y\n1,2\xff\n", ("x,y\n" + LONG + ",2\n").encode()], ids=["not_utf8", "over_limit"]
)
def test_cli_rejects_table_with_exit_2(command, text, tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_bytes(text)
    model = tmp_path / "m.json"
    model.write_text(dumps_document(_identity_model_document("regression")))
    args = ["--data", str(data), "--out", str(tmp_path / "out")]
    if command == "fit":
        args += ["--response", "y", "--task", "regression"]
    else:
        args += ["--model", str(model)]
    assert cli.main([command] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}: row 2: ")
    assert "Traceback" not in err


# -- prediction output ----------------------------------------------------


def per_value_predictions_text(task, preds):
    lines = []
    if task == "regression":
        lines.append("prediction\n")
        for p in preds:
            lines.append(f"{p:.17g}\n")
    else:
        labels = (preds >= 0.5).astype(np.int64)
        lines.append("probability,label\n")
        for p, lab in zip(preds, labels):
            lines.append(f"{p:.17g},{lab}\n")
    return "".join(lines)


def _identity_model_document(task):
    """One region whose linear predictor is the single column ``x``."""
    return {
        "version": "partwise-v1",
        "task": task,
        "n_obs": 10,
        "response": "y",
        "columns": ["x"],
        "thresholds": {},
        "region_fits": [
            {"mask": [False, True], "beta": [1.0], "fit_stat": 1.0, "stabilized": False}
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


STRESS = np.concatenate(
    [
        [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308],
        [1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308, 0.1, 1 / 3],
        [1.0, -3.0, 2.0**53, 2.0**53 + 2, 12345678901234567.0, 0.5, 0.49999999999999994],
        [-745.0, -740.0, -40.0, 40.0, 1 - 2**-53],
        _floats(np.random.default_rng(3), 500),
    ]
)


@pytest.mark.parametrize("task", ["regression", "logistic", "probit"])
def test_predict_output_bytes(task, tmp_path):
    """The file matches the per-value loop on the model's own predictions."""
    model_path = tmp_path / "m.json"
    model_path.write_text(dumps_document(_identity_model_document(task)))
    data_path = _write(tmp_path, "x\n" + "".join(f"{v!r}\n" for v in STRESS.tolist()), "d.csv")
    out = tmp_path / "p.csv"
    args = ["predict", "--model", str(model_path), "--data", str(data_path)]
    assert cli.main(args + ["--out", str(out)]) == 0
    preds = predict(load_model(str(model_path)), STRESS[:, None])
    assert out.read_bytes() == per_value_predictions_text(task, preds).encode()


@pytest.mark.parametrize("task", ["regression", "logistic"])
def test_predict_output_bytes_of_any_value(task, tmp_path, monkeypatch):
    """Values no identity model yields (-0.0, 1e300 probabilities) format alike."""
    monkeypatch.setattr(cli, "predict", lambda model, X: STRESS.copy())
    model_path = tmp_path / "m.json"
    model_path.write_text(dumps_document(_identity_model_document(task)))
    data_path = _write(tmp_path, "x\n" + "0\n" * STRESS.size, "d.csv")
    out = tmp_path / "p.csv"
    args = ["predict", "--model", str(model_path), "--data", str(data_path)]
    assert cli.main(args + ["--out", str(out)]) == 0
    assert out.read_bytes() == per_value_predictions_text(task, STRESS).encode()
