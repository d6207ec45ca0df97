import numpy as np
import pytest

from klnmf import Factorization, NonnegMatrix, ProblemInstance, ShapeError


class TestNonnegMatrix:
    def test_accepts_and_freezes(self):
        m = NonnegMatrix([[1.0, 0.0], [2.5, 3.0]])
        assert m.shape == (2, 2)
        assert m.rows == 2 and m.cols == 2
        with pytest.raises(ValueError):
            m.values[0, 0] = -1.0

    def test_rejects_negative_naming_position(self):
        with pytest.raises(ValueError, match=r"\(1, 0\)"):
            NonnegMatrix([[0.0, 1.0], [-2.0, 3.0]])

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            NonnegMatrix([[np.nan]])
        with pytest.raises(ValueError):
            NonnegMatrix([[np.inf]])

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            NonnegMatrix([1.0, 2.0])

    def test_row_major_contiguous(self):
        m = NonnegMatrix(np.asfortranarray(np.ones((3, 4))))
        assert m.values.flags["C_CONTIGUOUS"]

    def test_does_not_alias_input(self):
        src = np.ones((2, 2))
        m = NonnegMatrix(src)
        src[0, 0] = 7.0
        assert m.values[0, 0] == 1.0

    def test_array_copies_only_when_asked(self):
        m = NonnegMatrix([[1.0, 0.0], [2.5, 3.0]])
        copied = np.array(m)
        assert copied.flags.writeable
        assert not np.shares_memory(copied, m.values)
        np.testing.assert_array_equal(copied, m.values)
        assert np.shares_memory(np.asarray(m), m.values)
        assert np.shares_memory(np.asarray(m, dtype=np.float64), m.values)


class TestProblemInstance:
    def test_rank_bounds(self):
        V = NonnegMatrix(np.ones((3, 5)))
        ProblemInstance(V=V, rank=3)
        with pytest.raises(ValueError):
            ProblemInstance(V=V, rank=4)
        with pytest.raises(ValueError):
            ProblemInstance(V=V, rank=0)

    def test_epsilon_nonnegative(self):
        V = NonnegMatrix(np.ones((2, 2)))
        ProblemInstance(V=V, rank=1, epsilon=0.0)
        with pytest.raises(ValueError):
            ProblemInstance(V=V, rank=1, epsilon=-1e-9)


class TestFactorization:
    def test_conforming_shapes(self):
        Factorization(np.ones((3, 2)), np.ones((2, 4)))
        with pytest.raises(ShapeError):
            Factorization(np.ones((3, 2)), np.ones((3, 4)))

    def test_product(self):
        pair = Factorization(np.ones((2, 1)), [[1.0, 2.0]])
        np.testing.assert_array_equal(pair.product(), [[1.0, 2.0], [1.0, 2.0]])
        assert pair.rank == 1
