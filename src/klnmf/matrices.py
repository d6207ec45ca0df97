"""Validated dense matrix containers shared by all solvers.

Entries are checked (finite, nonnegative) once at construction; solver
inner loops operate on plain arrays and never re-validate. A data matrix
builds its support, the nonzeros every solver reads, once, on first use,
and every run and thread on the matrix shares it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ShapeError


def _validated_array(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, order="C")
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    if np.any(arr < 0):
        i, j = np.argwhere(arr < 0)[0]
        raise ValueError(f"negative entry {arr[i, j]!r} at ({i}, {j})")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class NonnegMatrix:
    """Dense nonnegative matrix stored row-major, read-only after construction."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _validated_array(self.values))

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @cached_property
    def support(self):
        """The :class:`~klnmf.objective.Support` of the matrix, built on
        first use. Two threads may both build it; the builds are equal."""
        from .objective import Support
        return Support(self.values)

    def __array__(self, dtype=None, copy=None):
        # NumPy 1 never passes copy, and its np.array rejects copy=None.
        if copy is None:
            return np.asarray(self.values, dtype=dtype)
        return np.array(self.values, dtype=dtype, copy=copy)

    def __repr__(self):
        return f"NonnegMatrix(shape={self.rows}x{self.cols})"


def as_matrix_array(x) -> np.ndarray:
    """Return a float64 2-D array for ``x`` (NonnegMatrix or array-like).

    NonnegMatrix inputs pass through unchecked; raw arrays are checked for
    NaN/inf.
    """
    if isinstance(x, NonnegMatrix):
        return x.values
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite (no NaN/inf)")
    return arr


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A KL NMF problem: data matrix, target rank, factor lower bound."""

    V: NonnegMatrix
    rank: int
    epsilon: float = 0.0

    def __post_init__(self):
        if not isinstance(self.V, NonnegMatrix):
            object.__setattr__(self, "V", NonnegMatrix(self.V))
        m, n = self.V.shape
        if not 1 <= self.rank <= min(m, n):
            raise ValueError(f"rank must be in [1, {min(m, n)}], got {self.rank}")
        if not self.epsilon >= 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")


@dataclass(frozen=True, eq=False)
class Factorization:
    """A factor pair (W, H) with conforming inner dimension."""

    W: NonnegMatrix
    H: NonnegMatrix

    def __post_init__(self):
        if not isinstance(self.W, NonnegMatrix):
            object.__setattr__(self, "W", NonnegMatrix(self.W))
        if not isinstance(self.H, NonnegMatrix):
            object.__setattr__(self, "H", NonnegMatrix(self.H))
        if self.W.cols != self.H.rows:
            raise ShapeError(
                f"factor shapes do not conform: {self.W.shape} x {self.H.shape}"
            )

    @property
    def rank(self) -> int:
        return self.W.cols

    def product(self) -> np.ndarray:
        return self.W.values @ self.H.values
