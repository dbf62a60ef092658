"""Complex matrices to and from the config's dict form, and read from two
on-disk formats:

* JSON: ``{"rows": m, "cols": n, "re": [...], "im": [...]}`` with entries in
  row-major order.
* CSV: a one-line ``rows,cols`` header followed by one ``re,im`` pair per
  line, row-major.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DimensionError


def matrix_to_dict(matrix: np.ndarray) -> dict:
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim {a.ndim}")
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": a.real.ravel().tolist(),
        "im": a.imag.ravel().tolist(),
    }


def matrix_from_dict(data: dict) -> np.ndarray:
    try:
        rows, cols = data["rows"], data["cols"]
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise DimensionError(f"matrix dict missing or malformed field: {exc}") from exc
    for name, value in (("rows", rows), ("cols", cols)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise DimensionError(f"matrix dict {name}: expected an integer, got {value!r}")
    if re.shape != (rows * cols,) or im.shape != (rows * cols,):
        raise DimensionError(
            f"matrix dict declares {rows}x{cols} but carries "
            f"{re.size} real / {im.size} imaginary entries"
        )
    if not np.all(np.isfinite(re)) or not np.all(np.isfinite(im)):
        raise DimensionError("matrix entries must be finite")
    return (re + 1j * im).reshape(rows, cols)


def load_matrix_json(path) -> np.ndarray:
    return matrix_from_dict(json.loads(Path(path).read_text()))


def load_matrix_csv(path) -> np.ndarray:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise DimensionError("empty matrix CSV file")
    try:
        rows, cols = (int(tok) for tok in lines[0].split(","))
    except ValueError as exc:
        raise DimensionError("matrix CSV header must be 'rows,cols'") from exc
    if len(lines) - 1 != rows * cols:
        raise DimensionError(
            f"matrix CSV declares {rows}x{cols} but has {len(lines) - 1} entries"
        )
    entries = np.array(
        [[float(tok) for tok in ln.split(",")] for ln in lines[1:]], dtype=float
    )
    if entries.shape[1] != 2:
        raise DimensionError("each matrix CSV entry line must be 're,im'")
    return matrix_from_dict({"rows": rows, "cols": cols, "re": entries[:, 0], "im": entries[:, 1]})


def load_matrix(path) -> np.ndarray:
    """Load a matrix, dispatching on the file extension (.json or .csv)."""
    suffix = Path(path).suffix.lower()
    if suffix == ".json":
        return load_matrix_json(path)
    if suffix == ".csv":
        return load_matrix_csv(path)
    raise DimensionError(f"unknown matrix file extension {suffix!r} (use .json or .csv)")
