"""The extended-valued KL objective and its first-order quantities.

All logarithms are natural (the objective is the Poisson negative
log-likelihood up to constants), with the conventions 0*log(0) = 0 and
a*log(0) = -inf for a > 0.
"""
from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInputError, NonDifferentiableError, ShapeError
from .matrices import NonnegMatrix, as_matrix_array

#: Relative-error denominators at most this fraction of sum(V) are treated as
#: degenerate; both scale linearly with V, so the test is scale-free.
NORMALIZER_FLOOR = 1e-12

#: Data with at least this share of nonzeros is dense for :func:`support_ratio`:
#: its ratio V/WH is one divide over the whole matrix, which writes exact
#: zeros off the support. Sparser data is divided on its support only, by a
#: gather and a scatter. With one BLAS thread on a 2-vCPU x86-64 VM the two
#: ways cost the same between densities 0.2 and 0.3 for sizes from 200x200
#: to 1000x1000; above 0.3 the whole-matrix divide is faster at every size
#: (at 0.9 by 3.6x on 200x200), and at 0.05 the gather is (by 3x).
DENSE_RATIO_DENSITY = 0.3

#: Data with at least this share of nonzeros is dense for the Newton slices
#: of :mod:`klnmf.scalar_newton`: each slice divides over the whole matrix
#: and reduces with BLAS matrix-vector products. Sparser data keeps the
#: slices on its support. With one BLAS thread on a 2-vCPU x86-64 VM, an sn
#: sweep costs the same both ways between densities 0.55 and 0.65, on
#: 200x200 rank 10 and on 600x400 rank 5: the whole-matrix sweep takes
#: 1.09-1.14 times as long at 0.55, 0.68-0.83 times at 0.65 and 0.57-0.70
#: times at 0.85. On 20x20 to 40x30 rank 4 the two ways cost about the same
#: at every density.
DENSE_SLICE_DENSITY = 0.6


class ExtendedObjective:
    """KL objective value in [0, +inf] with the infinite state explicit.

    Values are built through :meth:`finite` / :meth:`infinite`; the infinite
    state is detected before any logarithm is taken, so IEEE infinities never
    arise from summation. Comparisons order the infinite state above every
    finite value. Finite values may be slightly negative (round-off only).
    """

    __slots__ = ("_value",)

    def __init__(self, value: float):
        value = float(value)
        if math.isnan(value):
            raise ValueError("objective value cannot be NaN")
        if value == -math.inf:
            raise ValueError("objective value cannot be -inf")
        self._value = value

    @classmethod
    def finite(cls, value: float) -> "ExtendedObjective":
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"finite objective required, got {value}")
        return cls(value)

    @classmethod
    def infinite(cls) -> "ExtendedObjective":
        return cls(math.inf)

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self._value)

    @property
    def value(self) -> float:
        if not self.is_finite:
            raise ValueError("objective is +infinity; check is_finite first")
        return self._value

    def as_float(self) -> float:
        """The value with the infinite state mapped to IEEE +inf."""
        return self._value

    def __eq__(self, other):
        if isinstance(other, ExtendedObjective):
            return self._value == other._value
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, ExtendedObjective):
            return self._value < other._value
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, ExtendedObjective):
            return self._value <= other._value
        return NotImplemented

    def __hash__(self):
        return hash(self._value)

    def __repr__(self):
        if not self.is_finite:
            return "ExtendedObjective(+inf)"
        return f"ExtendedObjective({self._value!r})"


class RelativeError(NamedTuple):
    """Relative error value plus a flag for a degenerate normalizer.

    When ``degenerate`` is set the value is the raw (unnormalized) objective.
    """

    value: float
    degenerate: bool


def _conforming(V, W, H):
    """V, W and H as float arrays, checked to conform."""
    V = as_matrix_array(V)
    W = as_matrix_array(W)
    H = as_matrix_array(H)
    m, n = V.shape
    if W.shape[0] != m or H.shape[1] != n or W.shape[1] != H.shape[0]:
        raise ShapeError(
            f"shapes do not conform: V={V.shape}, W={W.shape}, H={H.shape}"
        )
    return V, W, H


def support_ratio(V: np.ndarray, WH: np.ndarray,
                  objective: "KLObjective | None" = None) -> np.ndarray:
    """V / WH on the support of V, exact zeros elsewhere.

    Raises NonDifferentiableError, naming the (i, j) entry, if WH vanishes
    where V is positive. ``objective`` is the :class:`KLObjective` of V,
    built here when absent, and the result is its ``ratio`` buffer, which
    the next call on the same object overwrites. On dense data (see
    ``DENSE_RATIO_DENSITY``) whose product is positive everywhere the ratio
    is one divide over the whole matrix, where 0 / WH is exactly +0.0;
    otherwise only the support is read and written. Both ways divide each
    nonzero of V by the same product entry, so they give the same bits.
    """
    if objective is None:
        objective = KLObjective(V)
    support = objective.support
    # min() is NaN, and so not positive, if the product has a NaN.
    if support.dense and WH.shape == support.shape and WH.min() > 0:
        return np.divide(support.V, WH, out=objective.ratio)
    wh = objective.gather(WH)
    if wh.size and wh.min() <= 0:
        raise NonDifferentiableError.at(
            *support.caller_entry(np.argmax(wh <= 0)))
    np.divide(support.values, wh, out=wh)
    objective.ratio.reshape(-1)[support.index] = wh
    return objective.ratio


def kl_divergence(V, W, H) -> ExtendedObjective:
    """Sum over entries of WH - V*log(WH) + V*log(V) - V.

    Entries with V == 0 contribute exactly their WH term; the result is the
    infinite state as soon as V > 0 meets WH == 0.
    """
    V, W, H = _conforming(V, W, H)
    return KLObjective(V).of_product(W @ H)


def kl_normalizer(V) -> float:
    """Sum of V * log(V / row_mean) with 0*log(0) = 0.

    This is the denominator used to turn objectives into relative errors; it
    is 0 for row-uniform data, which callers must guard.
    """
    return support_of(V).normalizer


def relative_error(V, W, H) -> RelativeError:
    """KL objective divided by the data normalizer.

    An infinite objective propagates as an infinite relative error; a
    near-zero normalizer (|.| <= NORMALIZER_FLOOR * sum(V)) yields the raw
    objective with the degenerate flag set.
    """
    V, W, H = _conforming(V, W, H)
    objective = KLObjective(V)
    obj = objective.of_product(W @ H)
    return RelativeError(objective.relative(obj),
                         obj.is_finite and objective.support.degenerate_normalizer)


def optimal_scale(V, W, H) -> float:
    """The multiplier of W that minimizes the objective along alpha * WH.

    Equals sum(V) / sum(WH); the pair is scaled exactly when this is 1.
    """
    V, W, H = _conforming(V, W, H)
    total_wh = float(W.sum(axis=0) @ H.sum(axis=1))
    if total_wh <= 0:
        raise DegenerateInputError("product sums to zero; optimal scale undefined")
    return float(V.sum()) / total_wh


def _grad_H(ratio, W) -> np.ndarray:
    return W.sum(axis=0)[:, None] - W.T @ ratio


def grad_W(V, W, H) -> np.ndarray:
    """Entrywise partial derivatives of the objective with respect to W.

    grad[i, k] = sum_j H[k, j] - sum_{j: V[i,j] > 0} V[i, j] H[k, j] / WH[i, j],
    the H gradient of the transposed problem V.T ~ H.T W.T.
    """
    V, W, H = _conforming(V, W, H)
    return _grad_H(support_ratio(V, W @ H).T, H.T).T


def grad_H(V, W, H) -> np.ndarray:
    """Entrywise partial derivatives with respect to H."""
    V, W, H = _conforming(V, W, H)
    return _grad_H(support_ratio(V, W @ H), W)


def kkt_residual(V, W, H, epsilon: float = 0.0,
                 objective: "KLObjective | None" = None,
                 WH: np.ndarray | None = None) -> float:
    """Largest violation of the first-order optimality system at (W, H).

    Each entry x with partial derivative g contributes
    max(-g, |(x - epsilon) * g|): the first term penalizes a descent
    direction into the feasible region, the second a nonzero derivative away
    from the bound. The result is 0 iff every entry satisfies both
    conditions exactly; non-differentiable points return +inf. A caller
    that holds the :class:`KLObjective` of V and the product W @ H passes
    them, and its arrays are then used as they are.
    """
    if objective is None:
        V, W, H = _conforming(V, W, H)
    try:
        ratio = support_ratio(V, W @ H if WH is None else WH, objective)
    except NonDifferentiableError:
        return math.inf
    gw = _grad_H(ratio.T, H.T).T
    gh = _grad_H(ratio, W)

    def worst(x, g):
        return max(float(np.max(-g)), float(np.max(np.abs((x - epsilon) * g))))

    return max(worst(W, gw), worst(H, gh), 0.0)


def perturbation_bound(V, rank: int, epsilon: float) -> float:
    """Allowed excess of the bounded-factor optimum over the unbounded one.

    Returns (min(n + m*rank, m + n*rank) * sqrt(sum(V)) + m*n*epsilon) * epsilon
    for an m-by-n data matrix.
    """
    V = as_matrix_array(V)
    m, n = V.shape
    nu = float(V.sum())
    return (min(n + m * rank, m + n * rank) * math.sqrt(nu) + m * n * epsilon) * epsilon


class _Order(NamedTuple):
    """The nonzeros in the order one half of a Newton sweep reduces over,
    indexed in that half's orientation. ``rows`` picks the entry of the W
    column of a slice. Each entry of a row of H with data owns a contiguous
    segment of the nonzeros: ``segments`` lists those entries and ``starts``
    where their segments begin, and ``owners`` gives the position in
    ``segments`` of each nonzero's entry. ``empty`` lists the entries
    without data; when there is none (``full``), ``segments`` is every entry
    in order."""

    values: np.ndarray
    rows: np.ndarray
    owners: np.ndarray
    starts: np.ndarray
    segments: np.ndarray
    empty: np.ndarray
    full: bool


def _order(values, rows, cols, width):
    new = np.diff(cols, prepend=-1) != 0
    starts = np.flatnonzero(new)
    segments = cols[starts]
    empty = np.setdiff1d(np.arange(width), segments)
    return _Order(values, rows, np.cumsum(new) - 1, starts, segments, empty,
                  empty.size == 0)


class Support:
    """The nonzeros of one data matrix: everything every solver reads of it.

    ``V`` is the data itself, not a copy; ``index`` is the flat row-major
    index of its nonzeros and ``values`` their values. ``sums`` holds the
    column and the row sums of V, indexed by ``SolverState.transposed``.
    ``dense`` says whether :func:`support_ratio` may divide over the whole
    matrix, and ``dense_slices`` whether the Newton slices do. Built on
    first use: the logarithm constants of the objective; for the Newton
    sweeps ``by_col``, the position of each nonzero in row-major order
    listed column by column, ``orders``, which give the slices on sparse
    data their layout, and ``curvature``, the read-only curvature constants
    of every sweep; and for the slices on dense data ``contiguous``, which
    adds a read-only C-contiguous copy of V.T (and of V, when V itself is
    not C-contiguous).

    Nothing here is written once built and nothing is scratch, so a
    :class:`~klnmf.matrices.NonnegMatrix` builds its support once and every
    run and thread on the matrix shares it (see :func:`support_of`).
    """

    def __init__(self, V):
        V = as_matrix_array(V)
        self.V = V
        self.shape = V.shape
        self.index = np.flatnonzero(V > 0)
        self.values = np.take(V, self.index)
        self.sums = (V.sum(axis=0), V.T.sum(axis=0))
        self.dense = (self.index.size > 0
                      and self.index.size >= DENSE_RATIO_DENSITY * V.size)
        # The index stays writeable: np.take copies a read-only index on
        # every call, and that copy costs more than the gather itself.
        for array in (self.values, *self.sums):
            array.flags.writeable = False

    # The constants below take logarithms of the data; they are computed on
    # first use, so that the steps that build a support for one ratio only
    # do not pay for them.

    @cached_property
    def constant(self) -> float:
        """Sum of V*log(V) - V, the part of the objective that the product
        does not change."""
        return float(self.values @ np.log(self.values)) - float(self.values.sum())

    @cached_property
    def normalizer(self) -> float:
        means = (self.sums[1] / self.shape[1])[self.index // self.shape[1]]
        return float(self.values @ np.log(self.values / means))

    @cached_property
    def degenerate_normalizer(self) -> bool:
        return abs(self.normalizer) <= NORMALIZER_FLOOR * float(self.values.sum())

    @property
    def dense_slices(self) -> bool:
        """Whether the Newton slices run over the whole matrix (see
        ``DENSE_SLICE_DENSITY``)."""
        return (self.index.size > 0
                and self.index.size >= DENSE_SLICE_DENSITY * self.V.size)

    @cached_property
    def contiguous(self) -> tuple[np.ndarray, np.ndarray]:
        """V and V.T, each C-contiguous, indexed by
        ``SolverState.transposed``: the data of the two halves of a dense
        Newton sweep. Each is V, or a view of it, when V already has that
        layout, and a copy otherwise; all but V itself are read-only."""
        contiguous = tuple(np.ascontiguousarray(A) for A in (self.V, self.V.T))
        for A in contiguous:
            if A is not self.V:
                A.flags.writeable = False
        return contiguous

    @cached_property
    def by_col(self) -> np.ndarray:
        return np.argsort(self.index % self.shape[1], kind="stable")

    @cached_property
    def orders(self) -> tuple[_Order, _Order]:
        """The nonzeros ordered for both halves of a Newton sweep, indexed
        by ``SolverState.transposed``: the H half reads them column by
        column, the W half row by row."""
        rows, cols = np.divmod(self.index, self.shape[1])
        by_col = self.by_col
        col_values = self.values[by_col]
        col_values.flags.writeable = False
        return (_order(col_values, rows[by_col], cols[by_col], self.shape[1]),
                _order(self.values, cols, rows, self.shape[0]))

    @cached_property
    def curvature(self) -> tuple[np.ndarray, np.ndarray]:
        """The curvature constants of the rows and of the columns of V (see
        :func:`~klnmf.scalar_newton.self_concordant_constants`), from the
        minima of the segments of the orders."""
        by_cols, by_rows = self.orders
        curvature = np.zeros(self.shape[0]), np.zeros(self.shape[1])
        for c, order in zip(curvature, (by_rows, by_cols)):
            c[order.segments] = 1.0 / np.sqrt(
                np.minimum.reduceat(order.values, order.starts))
            c.flags.writeable = False
        return curvature

    def caller_entry(self, position, in_column_order: bool = False):
        """(i, j) in V of the nonzero at ``position`` of the row-major order,
        or of the column order of the H half."""
        if in_column_order:
            position = self.by_col[position]
        i, j = divmod(int(self.index[position]), self.shape[1])
        return i, j


def support_of(V) -> Support:
    """The :class:`Support` of V: the one a :class:`NonnegMatrix` keeps, or
    a fresh one for a raw array."""
    return V.support if isinstance(V, NonnegMatrix) else Support(V)


class KLObjective:
    """The objective of one data matrix, with the scratch to evaluate it in.

    The one evaluation of the objective: ``run()`` calls it on its cached
    product at every sweep without recomputing the support or the
    normalizer, and :func:`kl_divergence` and :func:`relative_error` call it
    on a fresh product. ``support`` is the :class:`Support` of the data,
    shared by every object made for the same :class:`NonnegMatrix`; its
    ``dense`` alone picks the ratio path.

    The object itself is scratch, allocated on first use: an nnz-length
    vector that every product is gathered into; ``ratio``, the m×n result of
    :func:`support_ratio`, which stays exactly zero off the support; and
    ``slice_scratch``, two m·n buffers of the Newton slices on dense data,
    which do not keep that property. So an evaluation makes no fresh
    temporary of either size, a returned ratio is overwritten by the next
    call, and one object must not be shared across threads; each run makes
    its own.
    """

    def __init__(self, V):
        self.support = support_of(V)

    @cached_property
    def ratio(self) -> np.ndarray:
        return np.zeros(self.support.shape)

    @cached_property
    def _wh(self) -> np.ndarray:
        return np.empty_like(self.support.values)

    @cached_property
    def slice_scratch(self) -> np.ndarray:
        """Two m·n buffers for the dense Newton slices: their ratio, and
        the product of a W half, copied in C order."""
        return np.empty((2, self.support.V.size))

    def gather(self, WH: np.ndarray) -> np.ndarray:
        """WH on the support, written into the object's nnz-length scratch."""
        support = self.support
        if WH.shape != support.shape:
            raise ShapeError(f"product of shape {WH.shape}, data {support.shape}")
        # The index is in range by construction; take(out=) with the default
        # mode="raise" would buffer a fresh copy of its output on every call.
        return np.take(WH, support.index, out=self._wh, mode="clip")

    def of_product(self, WH: np.ndarray) -> ExtendedObjective:
        wh = self.gather(WH)
        if wh.size and float(wh.min()) <= 0.0:
            return ExtendedObjective.infinite()
        support = self.support
        total = float(WH.sum()) + support.constant
        if wh.size:
            total -= float(support.values @ np.log(wh, out=wh))
        return ExtendedObjective.finite(total)

    def relative(self, objective: ExtendedObjective) -> float:
        if not objective.is_finite:
            return math.inf
        if self.support.degenerate_normalizer:
            return objective.value
        return objective.value / self.support.normalizer
