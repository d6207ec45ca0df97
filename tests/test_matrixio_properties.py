"""The readers against the files they must read back and reject.

A property round trip writes random matrices in every layout the loader
reads and checks that each load is bitwise the matrix written; a table of
files with one fault each pins the exact error of each check, with its
line number.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klnmf import MatrixFileError, load_matrix, save_matrix

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)

VALUES = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300,
                     1.7976931348623157e308, 1.0, 3.0]),
    st.integers(0, 10**9).map(float),
    st.floats(min_value=0.0, max_value=1e300, allow_nan=False,
              allow_infinity=False),
)


@st.composite
def matrices(draw):
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    values = draw(st.lists(VALUES, min_size=m * n, max_size=m * n))
    return np.array(values).reshape(m, n)


def noise(draw):
    """A line the reader skips: a comment or a blank line."""
    return draw(st.sampled_from(["% a comment", "%", "", "   ", "\t",
                                 "  % indented comment"]))


def assert_bitwise(loaded, M):
    values = loaded.values
    assert values.dtype == np.float64 and values.flags.c_contiguous
    assert values.shape == M.shape
    np.testing.assert_array_equal(values.view(np.uint64), M.view(np.uint64))


@SETTINGS
@given(M=matrices(), format=st.sampled_from(["matrixmarket", "csv"]))
def test_written_matrices_load_bitwise(tmp_path_factory, M, format):
    path = tmp_path_factory.mktemp("rt") / "m"
    save_matrix(M, path, format=format)
    assert_bitwise(load_matrix(path), M)


@SETTINGS
@given(M=matrices(), data=st.data())
def test_coordinate_files_load_bitwise(tmp_path_factory, M, data):
    # Entries in any order, explicit zeros or not, values in shortest,
    # 17-digit or integer form, with comment and blank lines anywhere
    # after the banner.
    m, n = M.shape
    cells = [(i, j) for i in range(m) for j in range(n)
             if M[i, j] != 0 or data.draw(st.booleans())]
    cells = data.draw(st.permutations(cells))
    form = data.draw(st.sampled_from([lambda x: repr(float(x)),
                                      "{:.17g}".format]))
    lines = [f"{m} {n} {len(cells)}"]
    lines += [f"{i + 1} {j + 1} {form(M[i, j])}" for i, j in cells]
    for _ in range(data.draw(st.integers(0, 4))):
        lines.insert(data.draw(st.integers(0, len(lines))), noise(data.draw))
    # Neither reader checks that the values of an integer file are integers.
    field = data.draw(st.sampled_from(["real", "integer"]))
    text = "\n".join([f"%%MatrixMarket matrix coordinate {field} general"]
                     + lines)
    path = tmp_path_factory.mktemp("coo") / "m.mtx"
    path.write_text(text + data.draw(st.sampled_from(["", "\n"])))
    assert_bitwise(load_matrix(path), M)


@SETTINGS
@given(M=matrices(), data=st.data())
def test_csv_with_blank_lines_and_spaces_loads_bitwise(tmp_path_factory, M,
                                                       data):
    lines = [", ".join(repr(float(x)) for x in row) for row in M]
    for _ in range(data.draw(st.integers(0, 3))):
        lines.insert(data.draw(st.integers(0, len(lines))),
                     data.draw(st.sampled_from(["", " ", "\t "])))
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    path.write_text("\n".join(lines) + "\n")
    assert_bitwise(load_matrix(path), M)


COORDINATE = "%%MatrixMarket matrix coordinate real general\n"
ARRAY = "%%MatrixMarket matrix array real general\n"

# One file per fault, with the exact message the line-by-line reader gave.
FAULTS = {
    "mm-banner": (
        "%%matrixmarket matrix coordinate real general\n2 2 1\n1 1 1\n",
        "{path}:1: cannot parse value "
        "'%%matrixmarket matrix coordinate real general'"),
    "mm-header": (
        "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 1 1\n",
        "{path}:1: unsupported MatrixMarket header '%%MatrixMarket matrix "
        "coordinate complex general' (need 'matrix coordinate|array "
        "real|integer general')"),
    "mm-header-words": (
        "%%MatrixMarket matrix coordinate real\n2 2 1\n1 1 1\n",
        "{path}:1: unsupported MatrixMarket header '%%MatrixMarket matrix "
        "coordinate real' (need 'matrix coordinate|array real|integer "
        "general')"),
    "mm-size": (COORDINATE + "% c\n\n2 2\n1 1 1\n",
                "{path}:4: malformed size line '2 2'"),
    "mm-size-missing": (COORDINATE + "% c\n", "{path}: missing size line"),
    "mm-dimensions": (COORDINATE + "2 0 1\n1 1 1\n",
                      "{path}:2: dimensions must be positive"),
    "mm-count": (COORDINATE + "2 2 2\n1 1 1\n% c\n",
                 "{path}: expected 2 entries, found 1"),
    "mm-count-array": (ARRAY + "2 2\n1\n2\n3\n",
                       "{path}: expected 4 entries, found 3"),
    "mm-tokens": (COORDINATE + "2 2 2\n1 1 1\n2 2 1 % note\n",
                  "{path}:4: expected 'row col value', got '2 2 1 % note'"),
    "mm-tokens-array": (ARRAY + "1 2\n1\n2 3\n",
                        "{path}:4: expected one value per line, got '2 3'"),
    "mm-bad-index": (COORDINATE + "2 2 2\n1 1 1\n2 a 1\n",
                     "{path}:4: bad indices in '2 a 1'"),
    "mm-float-index": (COORDINATE + "2 2 2\n1 1 1\n2.0 1 1\n",
                       "{path}:4: bad indices in '2.0 1 1'"),
    "mm-range": (COORDINATE.replace("real", "integer") + "2 3 2\n1 1 1\n1 4 1\n",
                 "{path}:4: index (1, 4) outside 2x3"),
    "mm-range-zero": (COORDINATE + "2 3 2\n0 1 1\n1 3 1\n",
                      "{path}:3: index (0, 1) outside 2x3"),
    "mm-duplicate": (COORDINATE + "2 2 3\n1 2 1\n2 2 1\n1 2 3\n",
                     "{path}:5: duplicate entry for (1, 2)"),
    "mm-value": (COORDINATE + "2 2 2\n1 1 1\n2 2 1e\n",
                 "{path}:4: cannot parse value '1e'"),
    "mm-value-array": (ARRAY + "1 2\n1\nx\n",
                       "{path}:4: cannot parse value 'x'"),
    "mm-non-finite": (COORDINATE + "2 2 2\n1 1 1\n2 2 nan\n",
                      "{path}:4: non-finite value 'nan'"),
    "mm-non-finite-array": (ARRAY + "2 1\ninf\n1\n",
                            "{path}:3: non-finite value 'inf'"),
    "mm-negative": (COORDINATE + "2 2 2\n1 1 1\n2 1 -2.5\n",
                    "{path}:4: negative entry -2.5 at row 2, column 1"),
    "mm-negative-array": (ARRAY + "2 2\n1\n2\n-3\n4\n",
                          "{path}:5: negative entry -3.0 at row 1, column 2"),
    "mm-first-fault-first": (COORDINATE + "2 2 2\n1 1 -1\n1 1 1\n",
                             "{path}:3: negative entry -1.0 at row 1, column 1"),
    "csv-width": ("1,2\n\n3,4,5\n", "{path}:3: expected 2 columns, found 3"),
    "csv-value": ("1,2\n3, x\n", "{path}:2: cannot parse value 'x'"),
    "csv-trailing-comma": ("1,2,\n3,4,\n", "{path}:1: cannot parse value ''"),
    "csv-non-finite": ("1,2\n3,-inf\n", "{path}:2: non-finite value '-inf'"),
    "csv-negative": ("1,2\n3,-0.5\n",
                     "{path}:2: negative entry -0.5 at row 2, column 2"),
    "csv-empty": (" \n\n", "{path}: empty matrix file"),
}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_each_fault_raises_its_message(tmp_path, name):
    text, message = FAULTS[name]
    path = tmp_path / "bad"
    path.write_text(text)
    with pytest.raises(MatrixFileError) as info:
        load_matrix(path)
    assert str(info.value) == message.format(path=path)
