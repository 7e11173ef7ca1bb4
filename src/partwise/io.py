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
    TASKS,
)

DOCUMENT_VERSION = "partwise-v1"


def load_table(path: str, delim: str = ",") -> tuple[list[str], np.ndarray]:
    """Read a delimited text file with a header row into floats.

    A cell holds one number as ``float`` reads it, optionally quoted and
    surrounded by spaces; blank lines are skipped.  The body is parsed by
    numpy's C reader in one pass.  Only when that reader refuses it, finds no
    rows or yields a non-finite value are the rows walked cell by cell: the
    walk accepts the few spellings ``float`` takes and numpy does not (a
    whitespace-only line, ``1_0``, non-ASCII digits), and a non-numeric or
    non-finite cell raises InputError naming the file row (the header is row
    1) and the column.  A delimiter that is not one character raises
    InputError too.
    """
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
        body = fh.read()
    table = _parse_body(body, delim)
    if (
        table is None
        or table.shape[0] == 0
        or table.shape[1] != len(header)
        or not np.isfinite(table).all()
    ):
        table = _walk_rows(path, header, body, delim)
    return header, table


def _parse_body(body: str, delim: str) -> np.ndarray | None:
    """The body rows as one array from numpy's reader, or None if it refuses."""
    # numpy strips the separators \x1c-\x1f around a number as whitespace,
    # and ``float`` does not: such a body is left to the walk.
    if any(c in body for c in "\x1c\x1d\x1e\x1f"):
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


def document_to_model(doc: dict) -> FittedModel:
    """Rebuild a model from its document; a malformed one raises SchemaError."""
    _require(doc, _DOCUMENT_KEYS, "model document")
    if doc["version"] != DOCUMENT_VERSION:
        raise SchemaError(
            f"unsupported model document version {doc['version']!r}"
        )
    if doc["task"] not in TASKS:
        raise SchemaError(f"unknown task {doc['task']!r}")
    try:
        columns = tuple(str(c) for c in doc["columns"])
        name_to_idx = {c: j for j, c in enumerate(columns)}
        unknown = [c for c in doc["thresholds"] if c not in name_to_idx]
        if unknown:
            raise SchemaError(f"thresholds name unknown columns {unknown}")
        config = ChangePointConfig(
            {name_to_idx[c]: ts for c, ts in doc["thresholds"].items()}
        )
        if len(doc["region_fits"]) != config.num_regions:
            raise SchemaError(
                f"{len(doc['region_fits'])} region fits for "
                f"{config.num_regions} regions"
            )
        fits = []
        for r, rf in enumerate(doc["region_fits"]):
            _require(rf, _REGION_FIT_KEYS, f"region fit {r}")
            mask = np.asarray(rf["mask"], dtype=bool)
            beta = np.asarray(rf["beta"], dtype=np.float64)
            if mask.shape != (len(columns) + 1,):
                raise SchemaError(
                    f"region fit {r}: mask must have {len(columns) + 1} entries"
                )
            if beta.shape != (int(mask.sum()),):
                raise SchemaError(
                    f"region fit {r}: {beta.size} coefficients for "
                    f"{int(mask.sum())} selected columns"
                )
            fits.append(
                RegionFit(
                    mask, beta, float(rf["fit_stat"]), stabilized=bool(rf["stabilized"])
                )
            )
        m = doc["mdl"]
        _require(m, _MDL_KEYS, "mdl breakdown")
        mdl = MdlBreakdown(**{k: float(m[k]) for k in _MDL_KEYS})
        sigma2 = doc["sigma2_hat"]
        return FittedModel(
            task=doc["task"],
            config=config,
            column_names=columns,
            response_name=str(doc["response"]),
            region_fits=fits,
            mdl=mdl,
            sigma2_hat=None if sigma2 is None else float(sigma2),
            converged=bool(doc["converged"]),
            n_obs=int(doc["n_obs"]),
        )
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise SchemaError(f"malformed model document: {exc}") from None


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
    ``-Infinity`` and numbers that overflow a double are rejected too.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaError(f"{path}: not a JSON model document: {exc}") from None
    return document_to_model(doc)
