import warnings

import numpy as np
import pytest

from klnmf import MatrixFileError, NonnegMatrix, load_matrix, save_matrix


class TestRoundTrips:
    @pytest.mark.parametrize("format", ["matrixmarket", "csv"])
    def test_identity_round_trips_exactly(self, tmp_path, format):
        path = tmp_path / f"eye.{format}"
        save_matrix(np.eye(2), path, format=format)
        loaded = load_matrix(path)
        np.testing.assert_array_equal(loaded.values, np.eye(2))

    @pytest.mark.parametrize("format", ["matrixmarket", "csv"])
    def test_random_values_round_trip_bitwise(self, tmp_path, format, rng):
        M = rng.uniform(0.0, 5.0, size=(7, 3))
        M[rng.random(M.shape) < 0.3] = 0.0
        path = tmp_path / f"m.{format}"
        save_matrix(M, path, format=format)
        np.testing.assert_array_equal(load_matrix(path).values, M)

    def test_format_sniffing(self, tmp_path):
        mm = tmp_path / "a.any"
        save_matrix(np.ones((2, 2)), mm, format="matrixmarket")
        assert load_matrix(mm).shape == (2, 2)
        csv = tmp_path / "b.any"
        save_matrix(np.ones((2, 3)), csv, format="csv")
        assert load_matrix(csv).shape == (2, 3)

    def test_accepts_nonneg_matrix_objects(self, tmp_path):
        path = tmp_path / "m.mtx"
        save_matrix(NonnegMatrix(np.ones((2, 2))), path)
        assert load_matrix(path).shape == (2, 2)


class TestCoordinateLoading:
    def test_sparse_entries_densified(self, tmp_path):
        path = tmp_path / "coo.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment line\n"
            "2 2 1\n"
            "1 1 5.0\n"
        )
        loaded = load_matrix(path)
        np.testing.assert_array_equal(loaded.values, [[5.0, 0.0], [0.0, 0.0]])

    def test_integer_field_accepted(self, tmp_path):
        path = tmp_path / "coo.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate integer general\n"
            "2 2 2\n"
            "1 1 5\n"
            "2 2 7\n"
        )
        loaded = load_matrix(path)
        np.testing.assert_array_equal(loaded.values, [[5.0, 0.0], [0.0, 7.0]])

    def test_duplicate_entry_rejected_with_line(self, tmp_path):
        path = tmp_path / "coo.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 1 5.0\n"
            "1 1 6.0\n"
        )
        with pytest.raises(MatrixFileError, match=":4"):
            load_matrix(path)

    def test_out_of_bounds_index_rejected(self, tmp_path):
        path = tmp_path / "coo.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n"
            "3 1 5.0\n"
        )
        with pytest.raises(MatrixFileError, match=r"\(3, 1\)"):
            load_matrix(path)


class TestValidationErrors:
    def test_negative_entry_names_position(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("1.0,2.0\n3.0,-1.0\n")
        with pytest.raises(MatrixFileError, match="row 2, column 2"):
            load_matrix(path)

    def test_negative_entry_in_matrixmarket(self, tmp_path):
        path = tmp_path / "neg.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n"
            "2 1 -5.0\n"
        )
        with pytest.raises(MatrixFileError, match="negative entry"):
            load_matrix(path)

    def test_malformed_header_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket tensor coordinate real general\n2 2 0\n")
        with pytest.raises(MatrixFileError, match=":1"):
            load_matrix(path)

    def test_malformed_size_line_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% comment\n"
            "2 x 1\n"
        )
        with pytest.raises(MatrixFileError, match=":3"):
            load_matrix(path)

    def test_unparseable_value_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,zebra\n")
        with pytest.raises(MatrixFileError, match=":2"):
            load_matrix(path)

    def test_ragged_csv_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(MatrixFileError, match="columns"):
            load_matrix(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(MatrixFileError, match="empty"):
            load_matrix(path)

    def test_wrong_entry_count_rejected(self, tmp_path):
        path = tmp_path / "short.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real general\n"
            "2 2\n"
            "1.0\n1.0\n1.0\n"
        )
        with pytest.raises(MatrixFileError, match="expected 4 entries"):
            load_matrix(path)


class TestTextReader:
    """What the one bulk parse accepts, rejects and costs."""

    def test_non_text_file_is_a_matrix_file_error(self, tmp_path):
        path = tmp_path / "binary.csv"
        path.write_bytes(bytes.fromhex("fffe312c320a"))
        with pytest.raises(MatrixFileError, match=str(path)):
            load_matrix(path)

    @pytest.mark.parametrize("header", [
        "%%MatrixMarket matrix coordinate Real General",
        "%%MatrixMarket MATRIX COORDINATE INTEGER GENERAL",
    ])
    def test_banner_keywords_in_any_case(self, tmp_path, header):
        path = tmp_path / "coo.mtx"
        path.write_text(header + "\n2 2 1\n2 1 4\n")
        np.testing.assert_array_equal(load_matrix(path).values,
                                      [[0.0, 0.0], [4.0, 0.0]])

    def test_banner_itself_is_exact(self, tmp_path):
        # As in mmio.c: a lowercase banner is no MatrixMarket file, so the
        # file is read as CSV and its first line does not parse.
        path = tmp_path / "coo.mtx"
        path.write_text("%%matrixmarket matrix coordinate real general\n"
                        "2 2 1\n2 1 4\n")
        with pytest.raises(MatrixFileError, match=":1: cannot parse value"):
            load_matrix(path)

    @pytest.mark.parametrize("entry, message", [
        ("1 1 1_0", r":3: cannot parse value '1_0'"),
        ("1_0 1 1", r":3: bad indices in '1_0 1 1'"),
        ("1 1 ١", r":3: cannot parse value '١'"),
    ])
    def test_numbers_are_ascii_without_digit_separators(self, tmp_path, entry,
                                                        message):
        # Python's int() and float() read these; MatrixMarket has no such
        # literal, and np.loadtxt rejects them.
        path = tmp_path / "coo.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        f"20 20 1\n{entry}\n", encoding="utf-8")
        with pytest.raises(MatrixFileError, match=message):
            load_matrix(path)

    @pytest.mark.parametrize("layout, body, message", [
        ("coordinate", "2 2 1\n1 1 5.0 % note\n", "expected 'row col value'"),
        ("coordinate", "2 2 1\n1 1 5.0%\n", "cannot parse value '5.0%'"),
        ("array", "1 1\n5.0 % note\n", "expected one value per line"),
    ])
    def test_comment_after_an_entry_rejected(self, tmp_path, layout, body,
                                             message):
        path = tmp_path / "m.mtx"
        path.write_text(f"%%MatrixMarket matrix {layout} real general\n"
                        + body)
        with pytest.raises(MatrixFileError, match=":3: " + message):
            load_matrix(path)

    def test_size_line_digits_are_ascii(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 ² 0\n", encoding="utf-8")
        with pytest.raises(MatrixFileError, match=":2: malformed size line"):
            load_matrix(path)

    def test_empty_coordinate_file_loads_silently(self, tmp_path):
        path = tmp_path / "zero.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "% no entries\n3 2 0\n% none here either\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(load_matrix(path).values,
                                          np.zeros((3, 2)))

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        mm = tmp_path / "a.mtx"
        mm.write_text("%%MatrixMarket matrix array real general\n \n"
                      "% c\n2 1\n\t\n  % c\n1.5\n   \n2\n")
        np.testing.assert_array_equal(load_matrix(mm).values, [[1.5], [2.0]])
        csv = tmp_path / "a.csv"
        csv.write_text("  \n1, 2\n \t\n3 ,4\n \n")
        np.testing.assert_array_equal(load_matrix(csv).values,
                                      [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("name, text", [
        ("coo.mtx", "%%MatrixMarket matrix coordinate integer general\n"
                    "% c\n3 2 2\n3 1 4\n\n1 2 7\n"),
        ("arr.mtx", "%%MatrixMarket matrix array real general\n"
                    "2 2\n1\n2\n% c\n3\n4\n"),
        ("m.csv", "1,2\n3,4\n5,6\n"),
    ])
    def test_a_valid_file_is_parsed_by_one_bulk_call(self, tmp_path,
                                                     monkeypatch, name, text):
        # No line-by-line pass runs on a file without a fault, and the
        # array is C-contiguous float64.
        import klnmf.matrixio as matrixio
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt",
                            lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
        for locator in ("_mm_fault", "_csv_fault"):
            monkeypatch.setattr(matrixio, locator, None)
        path = tmp_path / name
        path.write_text(text)
        values = load_matrix(path).values
        assert calls == [1]
        assert values.dtype == np.float64 and values.flags.c_contiguous
