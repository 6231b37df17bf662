"""Plain-text matrix and vector formats.

Two interchangeable formats are supported everywhere:

* ``csv``: headerless comma-separated rows, one matrix row per line.  A
  vector is a single line (a one-row file), though a single-column file is
  accepted on read.  Lines starting with ``#`` and blank lines are skipped.
* ``structured``: JSON-encoded; a matrix is an object
  ``{"rows": m, "cols": n, "data": [[...], ...]}`` (extra keys are ignored)
  and a vector is a flat array ``[x1, x2, ...]``.

Readers sniff the format from the first non-whitespace character, so callers
never declare the input format explicitly.  All floats are written with
``repr``, the shortest string that round-trips to the same double.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import FormatError
from .validation import _as_array


def float_repr(x: float) -> str:
    """Shortest decimal string that parses back to exactly the same float."""
    return repr(float(x))


def _parse_csv(text: str) -> np.ndarray:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        row = []
        for token in stripped.split(","):
            try:
                row.append(float(token))  # float() ignores the whitespace around a token
            except ValueError:
                raise FormatError(f"line {lineno}: {token.strip()!r} is not a number") from None
        rows.append(row)
    if not rows:
        raise FormatError("no data rows found")
    for k, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise FormatError(
                f"ragged rows: row 0 has {len(rows[0])} values, row {k} has {len(row)}"
            )
    return np.array(rows)


def _json_number(value, where: str) -> float:
    if type(value) not in (int, float):  # json.loads gives exact types; a bool is no number
        raise FormatError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise FormatError(f"{where}: integer is beyond the float range") from None


def _load_json(text: str):
    """``json.loads``, with malformed or too deeply nested text as :class:`FormatError`."""
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal over Python's digit limit
        raise FormatError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise FormatError("invalid JSON: nested too deeply") from None


def _parse_json_matrix(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise FormatError("matrix JSON must be an object with rows/cols/data")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise FormatError(f"matrix JSON is missing {key!r}")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if any(type(v) is not int or v < 1 for v in (rows, cols)):
        raise FormatError("rows and cols must be positive integers")
    if not isinstance(data, list) or len(data) != rows:
        raise FormatError(f"data must be a list of {rows} rows")
    return np.array([_json_row(row, i, cols) for i, row in enumerate(data)])


def _json_row(row, i, cols):
    if not isinstance(row, list) or len(row) != cols:
        raise FormatError(f"data row {i} must be a list of {cols} numbers")
    return [_json_number(value, f"data[{i}][{j}]") for j, value in enumerate(row)]


def parse_matrix(text: str) -> np.ndarray:
    """Parse a matrix from csv or structured text, sniffing the format."""
    head = text.lstrip()[:1]
    if head == "{":
        return _parse_json_matrix(_load_json(text))
    if head == "[":
        raise FormatError("matrix JSON must be an object with rows/cols/data")
    return _parse_csv(text)


def parse_vector(text: str) -> np.ndarray:
    """Parse a vector: a flat JSON array, or a one-row (or one-column) csv."""
    head = text.lstrip()[:1]
    if head == "[":
        obj = _load_json(text)
        if not isinstance(obj, list) or not obj:
            raise FormatError("vector JSON must be a non-empty flat array")
        return np.array([_json_number(v, f"[{k}]") for k, v in enumerate(obj)])
    if head == "{":
        raise FormatError("vector JSON must be a flat array, not an object")
    arr = _parse_csv(text)
    if 1 in arr.shape:
        return arr.reshape(-1)
    raise FormatError(f"expected a vector, got a {arr.shape[0]}x{arr.shape[1]} matrix")


def format_matrix(matrix, fmt: str = "csv") -> str:
    """Serialize a matrix to csv or structured text (with a trailing newline)."""
    arr = _as_array(matrix, "matrix")
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={arr.ndim}")
    return _render(fmt, _matrix_object(arr), arr)


def _matrix_object(arr: np.ndarray) -> dict:
    """The structured format's ``{"rows", "cols", "data"}`` object of a 2-D float array."""
    return {"rows": arr.shape[0], "cols": arr.shape[1], "data": arr.tolist()}


def format_vector(vector, fmt: str = "csv") -> str:
    """Serialize a vector to a single csv line or a flat structured array."""
    vec = _as_array(vector, "vector")
    if vec.ndim != 1:
        raise ValueError(f"expected a 1-D array, got ndim={vec.ndim}")
    return _render(fmt, vec.tolist(), [vec])


def _render(fmt: str, record, rows, comments=()) -> str:
    """The one writer: ``record`` as one JSON line, or as csv lines.

    ``structured`` is ``json.dumps(record)``.  ``csv`` is a ``# key,values``
    line for each key of ``record`` named in ``comments``, then one line per
    row of ``rows``, a header row included.  A csv field is a float by
    :func:`float_repr`, a bool as true/false, a sequence joined by commas,
    and anything else by ``str``.
    """
    if fmt == "structured":
        return json.dumps(record) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [(f"# {key}", record[key]) for key in comments] + list(rows)
    return "\n".join(map(_csv_field, lines)) + "\n"


def _csv_field(value) -> str:
    if isinstance(value, float):  # the common case first
        return float_repr(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return ",".join(map(_csv_field, value))
    return str(value).lower() if isinstance(value, bool) else str(value)
