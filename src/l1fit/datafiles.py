"""Plain-text matrix and vector files.

Matrix files carry a header line ``m n`` followed by m rows of n decimals;
vector files carry ``m`` followed by one decimal per line.  Lines starting
with ``#`` (and blank lines) are comments; a data line beyond the count
the header declares is an error.  Values are written with 17 significant
digits, so a write/read round trip is bit-exact.
"""

from __future__ import annotations

import numpy as np

__all__ = ["read_matrix", "read_vector", "write_matrix", "write_vector"]


def _data_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            yield lineno, text


def _parse_floats(text: str, lineno: int, path) -> list[float]:
    values = []
    for token in text.split():
        try:
            val = float(token)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: not a number: {token!r}") from None
        if not np.isfinite(val):
            raise ValueError(f"{path}: line {lineno}: non-finite value: {token!r}")
        values.append(val)
    return values


def _read(path, header: str, noun: str) -> np.ndarray:
    """The data rows of a file whose header line is ``header``: 'm n' or 'm' (n = 1).

    ``noun`` names the m rows in messages; a data line after the m-th is an
    error, so a file that holds more than it declares is never truncated.
    """
    lines = _data_lines(path)
    lineno, text = next(lines, (0, None))
    if text is None:
        raise ValueError(f"{path}: empty file")
    try:
        dims = [int(part) for part in text.split()]
    except ValueError:
        dims = []
    if len(dims) != len(header.split()):
        raise ValueError(f"{path}: line {lineno}: expected header {header!r}, got {text!r}")
    if min(dims) < 1:
        raise ValueError(f"{path}: line {lineno}: dimensions must be positive")
    m, n = dims if len(dims) == 2 else (dims[0], 1)
    rows = []
    for lineno, text in lines:
        if len(rows) == m:
            raise ValueError(f"{path}: line {lineno}: data beyond the {m} {noun} the header declares")
        row = _parse_floats(text, lineno, path)
        if len(row) != n:
            raise ValueError(f"{path}: line {lineno}: expected {n} value{'s' * (n > 1)}, got {len(row)}")
        rows.append(row)
    if len(rows) != m:
        raise ValueError(f"{path}: expected {m} {noun}, found {len(rows)}")
    return np.array(rows, dtype=float)


def read_matrix(path) -> np.ndarray:
    return _read(path, "m n", "data rows")


def read_vector(path) -> np.ndarray:
    return _read(path, "m", "entries").ravel()


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_matrix(path, A) -> None:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{A.shape[0]} {A.shape[1]}\n")
        for row in A:
            fh.write(" ".join(_fmt(v) for v in row) + "\n")


def write_vector(path, v) -> None:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError("expected a 1-d vector")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{v.size}\n")
        for val in v:
            fh.write(_fmt(val) + "\n")
