"""Delimited-table ingestion and the model document format.

Model documents are JSON with version tag ``partwise-v1``.  Floats are
written with 17 significant digits so load/re-serialize round trips are
byte identical.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from typing import Sequence

import numpy as np

from .mdl import MdlBreakdown
from .model import (
    ChangePointConfig,
    Dataset,
    FittedModel,
    InputError,
    RegionFit,
    SchemaError,
    TASK_REGRESSION,
    TASKS,
)

DOCUMENT_VERSION = "partwise-v1"


def load_table(path: str, delim: str = ",") -> tuple[list[str], np.ndarray]:
    """Read a delimited UTF-8 text file with a header row into floats.

    A cell holds one number as ``float`` reads it, optionally quoted and
    surrounded by spaces; blank lines are skipped.  The body is parsed by
    numpy's C reader in one pass.  Only when that reader refuses it, finds no
    rows or yields a non-finite value are the rows walked cell by cell: the
    walk accepts the few spellings ``float`` takes and numpy does not (a
    whitespace-only line, ``1_0``, non-ASCII digits), and a non-numeric or
    non-finite cell raises InputError naming the file row (the header is row
    1) and the column.  A cell longer than ``csv.field_size_limit()``
    raises InputError wherever it is, header or body.  A file that is not
    valid UTF-8, or a delimiter that is not one character, raises
    InputError too.
    """
    if len(delim) != 1:
        raise InputError(f"delimiter must be one character, got {delim!r}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh, delimiter=delim)
            try:
                header = next(reader)
            except StopIteration:
                raise InputError(f"{path}: empty file") from None
            except csv.Error as exc:
                raise InputError(f"{path}: row 1: {exc}") from None
            header = [h.strip() for h in header]
            if len(set(header)) != len(header):
                raise InputError(f"{path}: duplicate column names in header")
            body = fh.read()
    except UnicodeDecodeError:
        raise InputError(_not_utf8(path)) from None
    table = _parse_body(body, delim)
    if (
        table is None
        or table.shape[0] == 0
        or table.shape[1] != len(header)
        or not np.isfinite(table).all()
    ):
        table = _walk_rows(path, header, body, delim)
    return header, table


def _not_utf8(path: str) -> str:
    """The message for a file that does not decode as UTF-8, naming the row."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        row = raw.count(b"\n", 0, exc.start) + 1
        return f"{path}: row {row}: not valid UTF-8 (byte {raw[exc.start]:#04x})"
    return f"{path}: not valid UTF-8"


def _within_field_limit(body: str, delim: str) -> bool:
    """Whether no cell of ``body`` that numpy may accept is over csv's limit.

    A long cell lies in a run of more than the limit characters without a
    cell end, and such a run holds a whole window of half the limit that
    starts at a multiple of it: a few ``find`` calls per window look for one,
    and only a run found that way is measured.  Outside quotes the delimiter
    and a line break end a cell.  A quoted cell may hold either; one that
    holds the delimiter is no number, so numpy refuses it and the walk
    measures it.  In a quoted body only the delimiter ends a cell, then, and
    a long run is measured by csv itself.  That fails for a delimiter a
    number may hold, such as a space, so such a quoted body is measured by
    csv at once.
    """
    limit = csv.field_size_limit()
    if len(body) <= limit:
        return True
    quoted = '"' in body
    if quoted and (delim.isspace() or delim in "0123456789+-.eE"):
        return _csv_within_field_limit(body, delim)
    ends = (delim,) if quoted else (delim, "\n", "\r")
    step = max(limit // 2, 1)
    for a in range(0, len(body) - step + 1, step):
        if any(body.find(e, a, a + step) >= 0 for e in ends):
            continue
        start = max(body.rfind(e, 0, a) for e in ends) + 1
        stop = min((i for i in (body.find(e, a + step) for e in ends) if i >= 0),
                   default=len(body))
        if stop - start > limit:
            return _csv_within_field_limit(body, delim) if quoted else False
    return True


def _csv_within_field_limit(body: str, delim: str) -> bool:
    """Whether csv reads every cell of ``body`` within its field limit."""
    try:
        for _ in csv.reader(io.StringIO(body, newline=""), delimiter=delim):
            pass
    except csv.Error:
        return False
    return True


def _parse_body(body: str, delim: str) -> np.ndarray | None:
    """The body rows as one array from numpy's reader, or None if it refuses."""
    # numpy strips the separators \x1c-\x1f around a number as whitespace,
    # and ``float`` does not: such a body is left to the walk.  numpy has no
    # cell length limit: a body that may hold a cell over csv's is left to
    # the walk too, which rejects that cell as the header read does.
    if any(c in body for c in "\x1c\x1d\x1e\x1f") or not _within_field_limit(body, delim):
        return None
    try:
        with warnings.catch_warnings():
            # A header-only file is reported as "no data rows" by the walk.
            warnings.filterwarnings(
                "ignore", "loadtxt: input contained no data", UserWarning
            )
            return np.loadtxt(
                io.StringIO(body, newline=""),
                dtype=np.float64,
                delimiter=delim,
                comments=None,
                quotechar='"',
                ndmin=2,
            )
    except (ValueError, TypeError):
        # TypeError: numpy refuses a delimiter such as '"' or a newline.
        return None


def _walk_rows(path: str, header: list[str], body: str, delim: str) -> np.ndarray:
    """The body rows after the header, parsed cell by cell with ``float``."""
    reader = csv.reader(io.StringIO(body, newline=""), delimiter=delim)
    rows = []
    lineno = 1
    try:
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
    except csv.Error as exc:
        # The reader failed on the row after the last one it returned.
        raise InputError(f"{path}: row {lineno + 1}: {exc}") from None
    if not rows:
        raise InputError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def split_response(
    header: list[str], table: np.ndarray, response: str
) -> tuple[Dataset, str]:
    """Split a table into a Dataset (all other columns) and the response."""
    if response not in header:
        raise InputError(
            f"response column {response!r} not found; columns are {header}"
        )
    ri = header.index(response)
    cols = [i for i in range(len(header)) if i != ri]
    if not cols:
        raise InputError("need at least one predictor column besides the response")
    names = [header[i] for i in cols]
    return Dataset(table[:, cols], table[:, ri], names), response


def align_columns(
    header: list[str], table: np.ndarray, names: Sequence[str]
) -> np.ndarray:
    """Reorder a table's columns to a model's predictor names."""
    missing = [c for c in names if c not in header]
    if missing:
        raise SchemaError(f"data is missing model columns {missing}")
    return table[:, [header.index(c) for c in names]]


# -- model documents -----------------------------------------------------


def _emit(obj, out: list[str]) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(k))
            out.append(": ")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _emit(v, out)
        out.append("]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, float):
        out.append(format(obj, ".17g"))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif obj is None:
        out.append("null")
    else:
        out.append(json.dumps(obj))


def dumps_document(doc: dict) -> str:
    out: list[str] = []
    _emit(doc, out)
    out.append("\n")
    return "".join(out)


def model_to_document(model: FittedModel) -> dict:
    return {
        "version": DOCUMENT_VERSION,
        "task": model.task,
        "n_obs": model.n_obs,
        "response": model.response_name,
        "columns": list(model.column_names),
        "thresholds": {
            model.column_names[j]: list(ts) for j, ts in model.config.breaks
        },
        "region_fits": [
            {
                "mask": [bool(b) for b in fit.mask],
                "beta": [float(b) for b in fit.beta],
                "fit_stat": float(fit.fit_stat),
                "stabilized": bool(fit.stabilized),
            }
            for fit in model.region_fits
        ],
        "mdl": {
            "predictor_code": model.mdl.predictor_code,
            "per_predictor_code": model.mdl.per_predictor_code,
            "region_param_code": model.mdl.region_param_code,
            "residual_code": model.mdl.residual_code,
            "total": model.mdl.total,
        },
        "sigma2_hat": model.sigma2_hat,
        "converged": model.converged,
    }


_DOCUMENT_KEYS = (
    "version",
    "task",
    "n_obs",
    "response",
    "columns",
    "thresholds",
    "region_fits",
    "mdl",
    "sigma2_hat",
    "converged",
)
_REGION_FIT_KEYS = ("mask", "beta", "fit_stat", "stabilized")
_MDL_KEYS = (
    "predictor_code",
    "per_predictor_code",
    "region_param_code",
    "residual_code",
    "total",
)


def _require(obj, keys: Sequence[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise SchemaError(f"{where} is missing keys {missing}")


def _number(value, where: str) -> float:
    # A JSON integer is a number too: ``.17g`` writes 5.0 as ``5``.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"{where}: {value} overflows a double") from None


def _flag(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"{where} must be true or false, got {value!r}")
    return value


def _text(value, where: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{where} must be a string, got {value!r}")
    return value


def _list_of(check, value, where: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{where} must be a list, got {value!r}")
    return [check(v, where) for v in value]


def document_to_model(doc: dict) -> FittedModel:
    """Rebuild a model from its document; a malformed one raises SchemaError.

    Every field must have its JSON type: nothing is coerced.  ``n_obs`` must
    lie in ``[1, 2**63 - 1]``, and ``sigma2_hat`` must be a finite positive
    number in a regression model and null in a classification one.
    """
    _require(doc, _DOCUMENT_KEYS, "model document")
    if doc["version"] != DOCUMENT_VERSION:
        raise SchemaError(
            f"unsupported model document version {doc['version']!r}"
        )
    if doc["task"] not in TASKS:
        raise SchemaError(f"unknown task {doc['task']!r}")
    n_obs = doc["n_obs"]
    if isinstance(n_obs, bool) or not isinstance(n_obs, int):
        raise SchemaError(f"n_obs must be an integer, got {n_obs!r}")
    if not 1 <= n_obs <= 2**63 - 1:
        raise SchemaError(f"n_obs must be between 1 and 2**63 - 1, got {n_obs}")
    sigma2 = doc["sigma2_hat"]
    if doc["task"] == TASK_REGRESSION:
        sigma2 = _number(sigma2, "sigma2_hat")
        if not (math.isfinite(sigma2) and sigma2 > 0.0):
            raise SchemaError(
                f"sigma2_hat must be finite and positive in a regression "
                f"model, got {sigma2!r}"
            )
    elif sigma2 is not None:
        raise SchemaError(
            f"sigma2_hat must be null in a {doc['task']} model, got {sigma2!r}"
        )
    columns = tuple(_list_of(_text, doc["columns"], "columns"))
    thresholds = doc["thresholds"]
    _require(thresholds, (), "thresholds")
    name_to_idx = {c: j for j, c in enumerate(columns)}
    unknown = [c for c in thresholds if c not in name_to_idx]
    if unknown:
        raise SchemaError(f"thresholds name unknown columns {unknown}")
    config = ChangePointConfig(
        {
            name_to_idx[c]: _list_of(_number, ts, f"thresholds[{c!r}]")
            for c, ts in thresholds.items()
        }
    )
    region_fits = doc["region_fits"]
    if not isinstance(region_fits, list):
        raise SchemaError("region_fits must be a list")
    if len(region_fits) != config.num_regions:
        raise SchemaError(
            f"{len(region_fits)} region fits for {config.num_regions} regions"
        )
    fits = []
    for r, rf in enumerate(region_fits):
        where = f"region fit {r}"
        _require(rf, _REGION_FIT_KEYS, where)
        mask = np.array(_list_of(_flag, rf["mask"], f"{where}: mask"), dtype=bool)
        beta = np.array(_list_of(_number, rf["beta"], f"{where}: beta"), dtype=np.float64)
        if mask.shape != (len(columns) + 1,):
            raise SchemaError(
                f"{where}: mask must have {len(columns) + 1} entries"
            )
        if beta.shape != (int(mask.sum()),):
            raise SchemaError(
                f"{where}: {beta.size} coefficients for "
                f"{int(mask.sum())} selected columns"
            )
        fits.append(
            RegionFit(
                mask,
                beta,
                _number(rf["fit_stat"], f"{where}: fit_stat"),
                stabilized=_flag(rf["stabilized"], f"{where}: stabilized"),
            )
        )
    m = doc["mdl"]
    _require(m, _MDL_KEYS, "mdl breakdown")
    mdl = MdlBreakdown(**{k: _number(m[k], f"mdl {k}") for k in _MDL_KEYS})
    return FittedModel(
        task=doc["task"],
        config=config,
        column_names=columns,
        response_name=_text(doc["response"], "response"),
        region_fits=fits,
        mdl=mdl,
        sigma2_hat=sigma2,
        converged=_flag(doc["converged"], "converged"),
        n_obs=n_obs,
    )


def save_model(model: FittedModel, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_document(model_to_document(model)))


def _finite_float(token: str) -> float:
    """A JSON number or constant (``NaN``, ``Infinity``, ``-Infinity``) as a
    float; SchemaError unless it is finite."""
    value = float(token)
    if not math.isfinite(value):
        raise SchemaError(f"non-finite number {token} in model document")
    return value


def load_model(path: str) -> FittedModel:
    """Read a model document; invalid JSON or a malformed document raises SchemaError.

    ``save_model`` writes only finite numbers, so ``NaN``, ``Infinity``,
    ``-Infinity`` and numbers that overflow a double are rejected too.  So
    is an integer longer than Python's integer string limit (4,300 digits
    by default), which ``json`` refuses with a ValueError.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError too
            raise SchemaError(f"{path}: not a JSON model document: {exc}") from None
    return document_to_model(doc)
