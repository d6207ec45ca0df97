"""MatrixMarket and CSV readers/writers for dense nonnegative matrices.

The loader always reads the format from the file: MatrixMarket when its
first line is the MatrixMarket banner, CSV otherwise. It accepts both the
coordinate and the array variant of MatrixMarket (real or integer, general
symmetry), densifying coordinate files; the writer emits the array variant.
Values are saved with 17 significant digits so a save/load round trip is
exact. Parse and validation failures carry the
offending line number or entry position.
"""
from __future__ import annotations

import numpy as np

from .errors import MatrixFileError
from .matrices import NonnegMatrix, as_matrix_array

FORMATS = ("matrixmarket", "csv")

_MM_BANNER = "%%MatrixMarket"


def save_matrix(matrix, path, format: str = "matrixmarket") -> None:
    """Write a matrix to ``path`` in the requested format."""
    arr = as_matrix_array(matrix)
    if format == "matrixmarket":
        _save_mm_array(arr, path)
    elif format == "csv":
        _save_csv(arr, path)
    else:
        raise ValueError(f"format must be one of {FORMATS}, got {format!r}")


def load_matrix(path) -> NonnegMatrix:
    """Read a matrix: MatrixMarket if the file starts with its banner, else
    CSV."""
    with open(path) as fh:
        first = fh.readline()
    return _load_mm(path) if first.startswith(_MM_BANNER) else _load_csv(path)


def _save_mm_array(arr: np.ndarray, path) -> None:
    m, n = arr.shape
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{m} {n}\n")
        # The array variant lists entries in column-major order.
        for j in range(n):
            for i in range(m):
                fh.write(f"{arr[i, j]:.17g}\n")


def _save_csv(arr: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        for row in arr:
            fh.write(",".join(f"{x:.17g}" for x in row))
            fh.write("\n")


def _entry_value(token: str, path, lineno: int, i: int, j: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise MatrixFileError(
            f"{path}:{lineno}: cannot parse value {token!r}") from None
    if not np.isfinite(value):
        raise MatrixFileError(f"{path}:{lineno}: non-finite value {token!r}")
    if value < 0:
        raise MatrixFileError(
            f"{path}:{lineno}: negative entry {value!r} at row {i + 1}, "
            f"column {j + 1}")
    return value


def _load_mm(path) -> NonnegMatrix:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith(_MM_BANNER):
        raise MatrixFileError(f"{path}:1: missing MatrixMarket banner")
    fields = lines[0].split()
    if (len(fields) != 5 or fields[1] != "matrix"
            or fields[2] not in ("coordinate", "array")
            or fields[3] not in ("real", "integer")
            or fields[4] != "general"):
        raise MatrixFileError(
            f"{path}:1: unsupported MatrixMarket header {lines[0]!r} (need "
            "'matrix coordinate|array real|integer general')")
    layout = fields[2]

    body = [(k + 1, line) for k, line in enumerate(lines)
            if k > 0 and line.strip() and not line.lstrip().startswith("%")]
    if not body:
        raise MatrixFileError(f"{path}: missing size line")
    size_lineno, size_line = body[0]
    tokens = size_line.split()
    expected = 3 if layout == "coordinate" else 2
    if len(tokens) != expected or not all(t.isdigit() for t in tokens):
        raise MatrixFileError(
            f"{path}:{size_lineno}: malformed size line {size_line!r}")
    if layout == "coordinate":
        m, n, nnz = (int(t) for t in tokens)
    else:
        m, n = (int(t) for t in tokens)
        nnz = m * n
    if m < 1 or n < 1:
        raise MatrixFileError(f"{path}:{size_lineno}: dimensions must be positive")
    entries = body[1:]
    if len(entries) != nnz:
        raise MatrixFileError(
            f"{path}: expected {nnz} entries, found {len(entries)}")

    out = np.zeros((m, n))
    if layout == "coordinate":
        seen = np.zeros((m, n), dtype=bool)
        for lineno, line in entries:
            tokens = line.split()
            if len(tokens) != 3:
                raise MatrixFileError(
                    f"{path}:{lineno}: expected 'row col value', got {line!r}")
            try:
                i, j = int(tokens[0]) - 1, int(tokens[1]) - 1
            except ValueError:
                raise MatrixFileError(
                    f"{path}:{lineno}: bad indices in {line!r}") from None
            if not (0 <= i < m and 0 <= j < n):
                raise MatrixFileError(
                    f"{path}:{lineno}: index ({i + 1}, {j + 1}) outside "
                    f"{m}x{n}")
            if seen[i, j]:
                raise MatrixFileError(
                    f"{path}:{lineno}: duplicate entry for ({i + 1}, {j + 1})")
            seen[i, j] = True
            out[i, j] = _entry_value(tokens[2], path, lineno, i, j)
    else:
        for k, (lineno, line) in enumerate(entries):
            j, i = divmod(k, m)
            tokens = line.split()
            if len(tokens) != 1:
                raise MatrixFileError(
                    f"{path}:{lineno}: expected one value per line, got {line!r}")
            out[i, j] = _entry_value(tokens[0], path, lineno, i, j)
    return NonnegMatrix(out)


def _load_csv(path) -> NonnegMatrix:
    rows = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split(",")
            if width is None:
                width = len(tokens)
            elif len(tokens) != width:
                raise MatrixFileError(
                    f"{path}:{lineno}: expected {width} columns, found "
                    f"{len(tokens)}")
            i = len(rows)
            rows.append([
                _entry_value(tok.strip(), path, lineno, i, j)
                for j, tok in enumerate(tokens)
            ])
    if not rows:
        raise MatrixFileError(f"{path}: empty matrix file")
    return NonnegMatrix(np.array(rows))
