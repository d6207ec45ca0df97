"""MatrixMarket and CSV readers/writers for dense nonnegative matrices.

The loader reads the file once and takes the format from its text:
MatrixMarket when its first line starts with the ``%%MatrixMarket`` banner,
CSV otherwise. It accepts the coordinate and the array variant of
MatrixMarket, real or integer, general symmetry, with the four keywords
after the banner in any case (as NIST's reference reader ``mmio.c``
lowercases them); coordinate files are densified. The writer emits the
array variant with 17 significant digits, so a save/load round trip is
exact.

The entries of a file are parsed in one bulk call to ``np.loadtxt``,
NumPy's C text reader (NumPy >= 1.23; the package requires 1.24), and then
checked as arrays: the entry count, the index range, duplicate coordinates,
finite and nonnegative values. Its float parse gives the bits of Python's
``float()``. When the parse or a check fails, a second pass over the lines
finds the first faulty line in file order and raises
:class:`~klnmf.errors.MatrixFileError` with its line number, the same
message for the same file as a line-by-line reader gives. What the text
reader sets as the language of a file:

- lines end at ``\\n``, ``\\r\\n`` or ``\\r``; other Unicode line breaks
  are whitespace inside a line;
- a number is ASCII, without the ``_`` digit separators that Python's
  ``int()`` and ``float()`` accept (MatrixMarket has no such literal);
- a MatrixMarket comment is a whole line starting with ``%``: an entry
  line with a ``%`` after its first token is rejected, as before, although
  ``np.loadtxt`` would drop the rest of the line as a comment.

A file that is not text in the locale's encoding is a
:class:`~klnmf.errors.MatrixFileError` as well.
"""
from __future__ import annotations

import io
import math
import re
import warnings

import numpy as np

from .errors import MatrixFileError
from .matrices import NonnegMatrix, as_matrix_array

FORMATS = ("matrixmarket", "csv")

_MM_BANNER = "%%MatrixMarket"
_MM_HEADER = (("matrix",), ("coordinate", "array"), ("real", "integer"),
              ("general",))
_COORDINATE = np.dtype([("row", np.int64), ("col", np.int64),
                        ("value", np.float64)])
# A line that is neither blank nor a MatrixMarket comment.
_DATA_LINE = re.compile(r"^[^\S\n]*[^%\s].*", re.MULTILINE)
# A data line with a '%' after its first character.
_TRAILING_COMMENT = re.compile(r"^[^\S\n]*[^%\s][^\n]*%", re.MULTILINE)
# A line of blanks after the first line: np.loadtxt skips it in a
# whitespace-separated file, but reads it as a row of one field in a CSV.
_BLANK_LINE = re.compile(r"\n[^\S\n]+$", re.MULTILINE)


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
    CSV.

    The entries are parsed by one ``np.loadtxt`` call and validated as
    arrays; a file that fails raises :class:`MatrixFileError` naming its
    first faulty line (see the module docstring for the accepted language).
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise MatrixFileError(
            f"{path}: not a text file ({exc.reason} at byte {exc.start})") from None
    if text.startswith(_MM_BANNER):
        return NonnegMatrix(_load_mm(path, text))
    return NonnegMatrix(_load_csv(path, text))


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


def _parse(text: str, **options) -> np.ndarray | None:
    """``np.loadtxt`` of ``text``, or None where it rejects a line."""
    with warnings.catch_warnings():
        # NumPy 1.x reads an integer written as a float ('2.0') with a
        # DeprecationWarning, where Python's int() rejects it.
        warnings.simplefilter("error", DeprecationWarning)
        # A body without entries is checked by its entry count.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        try:
            return np.loadtxt(io.StringIO(text), **options)
        except (ValueError, DeprecationWarning):
            return None


def _nonnegative(values: np.ndarray) -> bool:
    return bool(np.isfinite(values).all() and not (values < 0).any())


def _load_mm(path, text: str) -> np.ndarray:
    header = text.partition("\n")[0]
    fields = [f.lower() for f in header.split()]
    if len(fields) != 5 or any(f not in allowed
                               for f, allowed in zip(fields[1:], _MM_HEADER)):
        raise MatrixFileError(
            f"{path}:1: unsupported MatrixMarket header {header!r} (need "
            "'matrix coordinate|array real|integer general')")
    layout = fields[2]

    size = _DATA_LINE.search(text, len(header) + 1)
    if size is None:
        raise MatrixFileError(f"{path}: missing size line")
    size_lineno = text.count("\n", 0, size.start()) + 1
    tokens = size.group().split()
    expected = 3 if layout == "coordinate" else 2
    if len(tokens) != expected or not all(t.isascii() and t.isdigit()
                                          for t in tokens):
        raise MatrixFileError(
            f"{path}:{size_lineno}: malformed size line {size.group()!r}")
    m, n = int(tokens[0]), int(tokens[1])
    nnz = int(tokens[2]) if layout == "coordinate" else m * n
    if m < 1 or n < 1:
        raise MatrixFileError(f"{path}:{size_lineno}: dimensions must be positive")

    body = text[size.end() + 1:]
    out = None
    if "%" not in body or not _TRAILING_COMMENT.search(body):
        if layout == "coordinate":
            parsed = _parse(body, dtype=_COORDINATE, comments="%", ndmin=1)
            if parsed is not None and parsed.size == nnz:
                out = _densify(parsed, m, n)
        else:
            # ndmin=2 keeps one line of two values from reading as two entries.
            parsed = _parse(body, comments="%", ndmin=2)
            if parsed is not None and parsed.shape == (nnz, 1):
                out = _unstack(parsed, m, n)
    if out is None:
        raise _mm_fault(path, text, size_lineno, layout, m, n, nnz)
    return out


def _densify(records: np.ndarray, m: int, n: int) -> np.ndarray | None:
    """The m×n matrix of coordinate records, or None if one is out of
    range, repeats a position or has a value that is not finite and
    nonnegative."""
    rows, cols = records["row"] - 1, records["col"] - 1
    if not ((rows >= 0) & (rows < m) & (cols >= 0) & (cols < n)).all():
        return None
    flat = rows * n + cols
    ordered = np.sort(flat)
    if (ordered[1:] == ordered[:-1]).any() or not _nonnegative(records["value"]):
        return None
    out = np.zeros((m, n))
    out.reshape(-1)[flat] = records["value"]
    return out


def _unstack(column: np.ndarray, m: int, n: int) -> np.ndarray | None:
    """The m×n matrix of the array variant's column-major entries, or None
    if one is not finite and nonnegative."""
    if not _nonnegative(column):
        return None
    return np.ascontiguousarray(column.reshape(n, m).T)


def _load_csv(path, text: str) -> np.ndarray:
    if not text or text.isspace():
        raise MatrixFileError(f"{path}: empty matrix file")
    first = text.partition("\n")[0]
    if first.isspace():
        text = text[len(first):]
    text = _BLANK_LINE.sub("\n", text)
    parsed = _parse(text, delimiter=",", comments=None, ndmin=2)
    if parsed is not None and _nonnegative(parsed):
        return parsed
    raise _csv_fault(path, text)


# The locators below run only once a parse or a check has failed. Each walks
# the lines in file order with the checks of the bulk path, one line at a
# time, and returns the error of the first line that fails one.


def _number(token: str, kind: type):
    """``kind(token)`` in the language of ``np.loadtxt``: ASCII, without
    digit separators."""
    if not token.isascii() or "_" in token:
        raise ValueError(token)
    return kind(token)


def _value_fault(token: str, path, lineno: int, i: int, j: int):
    try:
        value = _number(token, float)
    except ValueError:
        return MatrixFileError(f"{path}:{lineno}: cannot parse value {token!r}")
    if not math.isfinite(value):
        return MatrixFileError(f"{path}:{lineno}: non-finite value {token!r}")
    if value < 0:
        return MatrixFileError(
            f"{path}:{lineno}: negative entry {value!r} at row {i + 1}, "
            f"column {j + 1}")
    return None


def _mm_fault(path, text, size_lineno, layout, m, n, nnz) -> MatrixFileError:
    entries = [(lineno, line)
               for lineno, line in enumerate(text.split("\n"), start=1)
               if lineno > size_lineno and line.strip()
               and not line.lstrip().startswith("%")]
    if len(entries) != nnz:
        return MatrixFileError(
            f"{path}: expected {nnz} entries, found {len(entries)}")
    seen = set()
    for k, (lineno, line) in enumerate(entries):
        tokens = line.split()
        if layout == "array":
            j, i = divmod(k, m)
            if len(tokens) != 1:
                return MatrixFileError(
                    f"{path}:{lineno}: expected one value per line, got {line!r}")
        else:
            if len(tokens) != 3:
                return MatrixFileError(
                    f"{path}:{lineno}: expected 'row col value', got {line!r}")
            try:
                i, j = _number(tokens[0], int) - 1, _number(tokens[1], int) - 1
            except ValueError:
                return MatrixFileError(f"{path}:{lineno}: bad indices in {line!r}")
            if not (0 <= i < m and 0 <= j < n):
                return MatrixFileError(
                    f"{path}:{lineno}: index ({i + 1}, {j + 1}) outside {m}x{n}")
            if (i, j) in seen:
                return MatrixFileError(
                    f"{path}:{lineno}: duplicate entry for ({i + 1}, {j + 1})")
            seen.add((i, j))
        fault = _value_fault(tokens[-1], path, lineno, i, j)
        if fault is not None:
            return fault
    return MatrixFileError(f"{path}: cannot parse the entries")


def _csv_fault(path, text) -> MatrixFileError:
    width = None
    i = 0
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        tokens = line.split(",")
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            return MatrixFileError(
                f"{path}:{lineno}: expected {width} columns, found {len(tokens)}")
        for j, token in enumerate(tokens):
            fault = _value_fault(token.strip(), path, lineno, i, j)
            if fault is not None:
                return fault
        i += 1
    return MatrixFileError(f"{path}: cannot parse the entries")
