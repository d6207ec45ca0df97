"""The extended-valued KL objective and its first-order quantities.

All logarithms are natural (the objective is the Poisson negative
log-likelihood up to constants), with the conventions 0*log(0) = 0 and
a*log(0) = -inf for a > 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInputError, NonDifferentiableError, ShapeError
from .matrices import NonnegMatrix, as_matrix_array

#: Relative-error denominators at most this fraction of sum(V) are treated as
#: degenerate; both scale linearly with V, so the test is scale-free.
NORMALIZER_FLOOR = 1e-12

#: Data with at least this share of nonzeros is dense: :func:`support_ratio`
#: divides over the whole matrix, which writes exact zeros off the support,
#: :meth:`KLObjective.of_product` takes the logarithm of the whole product,
#: and the Newton slices of :mod:`klnmf.scalar_newton` divide over the whole
#: matrix and reduce with BLAS matrix-vector products. Sparser data does
#: each on its support only. With one BLAS thread on a 2-vCPU x86-64 VM, as
#: a ratio of the whole-matrix time to the support time:
#:
#: - an sn sweep, on 200x200 rank 10 and 600x400 rank 5: 1.09-1.14 at
#:   density 0.55, 0.68-0.83 at 0.65 and 0.57-0.70 at 0.85; on 20x20 to
#:   40x30 rank 4, about 1 at every density. The two ways round differently.
#: - the log pass, on 100x80 to 600x400: 1.1-2.3 between 0.3 and 0.5,
#:   0.98-1.24 at 0.6 and 0.67-0.96 at 0.9.
#: - the ratio: below 1 from about 0.3 up. Both ways give the same bits.
#:
#: On the benchmark's matrices the shared threshold costs the log pass
#: nothing. Min of 7x5000 calls of :meth:`KLObjective.of_product` at the
#: initial products, whole-matrix against gathered: the plan's m003 (30x20,
#: 0.607) 5.7 against 6.6 us and m004 (0.603) 5.8 against 6.6 us, above the
#: threshold; m005 (0.578) 5.8 against 6.7 us, below it; klbench's
#: dense-poisson (0.896) 56 against 78 us. The plan's matrices at 1.0 lie
#: above it, and those at 0.08 and sparse-counts (0.0435) below.
DENSE_DENSITY = 0.6


@dataclass(frozen=True, order=True, slots=True)
class ExtendedObjective:
    """KL objective value in [0, +inf] with the infinite state explicit.

    Values are built through :meth:`finite` / :meth:`infinite`; the infinite
    state is detected before any logarithm is taken, so IEEE infinities never
    arise from summation. Equality, ordering and hashing compare the one
    field, which orders the infinite state above every finite value. Finite
    values may be slightly negative (round-off only).
    """

    _value: float

    def __post_init__(self):
        value = float(self._value)
        if math.isnan(value):
            raise ValueError("objective value cannot be NaN")
        if value == -math.inf:
            raise ValueError("objective value cannot be -inf")
        object.__setattr__(self, "_value", value)

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
    built here when absent, and the result is one of its buffers, which
    the next call on the same object may overwrite. Where
    :meth:`Support.whole_matrix` allows, the ratio is one divide over the
    whole matrix into its ``work``, where 0 / WH is exactly +0.0; otherwise
    only the support of its ``ratio`` is read and written. Both ways divide
    each nonzero of V by the same product entry, so they give the same bits.
    """
    if objective is None:
        objective = KLObjective(V)
    support = objective.support
    if support.whole_matrix(WH):
        return np.divide(support.V, WH, out=objective.work)
    wh = objective.gather(WH)
    if wh.size and wh.min() <= 0:
        raise NonDifferentiableError.at(
            *divmod(int(support.index[np.argmax(wh <= 0)]), support.shape[1]))
    np.divide(support.values, wh, out=wh)
    objective.ratio.reshape(-1)[support.index] = wh
    return objective.ratio


def kl_divergence(V, W, H) -> ExtendedObjective:
    """Sum over entries of WH - V*log(WH) + V*log(V) - V.

    Entries with V == 0 contribute exactly their WH term; the result is the
    infinite state as soon as V > 0 meets WH == 0. The value is
    :meth:`KLObjective.of_factors`, bitwise what ``run()`` records for the
    same factors.
    """
    V, W, H = _conforming(V, W, H)
    return KLObjective(V).of_factors(W, H)


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
    obj = objective.of_factors(W, H)
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
    indexed in that half's orientation. ``flat`` is the row-major index in V
    of each nonzero and ``rows`` picks the entry of the W column of a slice.
    Each entry of a row of H with data owns a contiguous segment of the
    nonzeros: ``segments`` lists those entries and ``starts`` where their
    segments begin, and ``owners`` gives the position in ``segments`` of
    each nonzero's entry. ``empty`` lists the entries without data."""

    flat: np.ndarray
    values: np.ndarray
    rows: np.ndarray
    owners: np.ndarray
    starts: np.ndarray
    segments: np.ndarray
    empty: np.ndarray


def _order(flat, values, rows, cols, width):
    new = np.diff(cols, prepend=-1) != 0
    starts = np.flatnonzero(new)
    segments = cols[starts]
    return _Order(flat, values, rows, np.cumsum(new) - 1, starts, segments,
                  np.setdiff1d(np.arange(width), segments))


class Support:
    """The nonzeros of one data matrix: everything every solver reads of it.

    ``V`` is the data itself, not a copy; ``index`` is the flat row-major
    index of its nonzeros and ``values`` their values. ``sums`` holds the
    column and the row sums of V, indexed by ``SolverState.transposed``.
    ``dense`` says whether the data is dense (see ``DENSE_DENSITY``): then
    the ratio, the log pass of the objective and the Newton slices run over
    the whole matrix, the first two where :meth:`whole_matrix` allows. Built
    on first use: the logarithm constants of the objective; ``vmax``, the
    largest entry of V, which dense ccd sweeps read; ``curvature``,
    the read-only curvature constants of every Newton sweep, computed from
    V; ``orders``, which give the Newton slices on sparse data their
    layout and the index in V of each nonzero they read; and
    ``column_major``, the same indices for a product in Fortran order. Only
    sparse data builds the orders: the slices on dense data read V itself,
    and V.T as a view.

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
                      and self.index.size >= DENSE_DENSITY * V.size)
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

    def whole_matrix(self, WH: np.ndarray) -> bool:
        """Whether a pass over the product ``WH`` may run over the whole
        matrix: on dense data, with a product of V's shape that is positive
        everywhere (its min() is NaN, and so not positive, if it has a
        NaN)."""
        return self.dense and WH.shape == self.shape and WH.min() > 0

    @cached_property
    def vmax(self) -> float:
        """The largest entry of V (0.0 without data): with the factors, it
        bounds V/WH^2 in a dense ccd half (see
        :func:`~klnmf.scalar_newton._floor_idle`)."""
        return float(self.values.max(initial=0.0))

    @cached_property
    def orders(self) -> tuple[_Order, _Order]:
        """The nonzeros ordered for both halves of a Newton sweep, indexed
        by ``SolverState.transposed``: the H half reads them column by
        column, the W half row by row."""
        rows, cols = np.divmod(self.index, self.shape[1])
        by_col = np.argsort(cols, kind="stable")
        col_values = self.values[by_col]
        col_values.flags.writeable = False
        return (_order(self.index[by_col], col_values, rows[by_col],
                       cols[by_col], self.shape[1]),
                _order(self.index, self.values, cols, rows, self.shape[0]))

    @cached_property
    def column_major(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``flat`` of each of :attr:`orders` as a column-major index:
        where a Fortran-ordered product of V's shape keeps each nonzero.
        Built on first use, by a Newton sweep on such a product."""
        m, n = self.shape
        return tuple(cols * m + rows for rows, cols in
                     (np.divmod(order.flat, n) for order in self.orders))

    @cached_property
    def curvature(self) -> tuple[np.ndarray, np.ndarray]:
        """The curvature constants of the rows and of the columns of V (see
        :func:`~klnmf.scalar_newton.self_concordant_constants`): 1/sqrt of
        the smallest positive entry of each, and 0.0 for one without data.
        Computed from V itself, so dense data never builds the orders."""
        curvature = tuple(1.0 / np.sqrt(np.min(self.V, axis=a, initial=np.inf,
                                                where=self.V > 0)) for a in (1, 0))
        for c in curvature:
            c.flags.writeable = False
        return curvature


def support_of(V) -> Support:
    """The :class:`Support` of V: the one a :class:`NonnegMatrix` keeps, or
    a fresh one for a raw array."""
    return V.support if isinstance(V, NonnegMatrix) else Support(V)


class KLObjective:
    """The objective of one data matrix, with the scratch to evaluate it in.

    The one evaluation of the objective: ``run()`` calls :meth:`of_product`
    on its cached product and factor sums at its start and after every
    sweep, without recomputing the support or the normalizer, and
    :func:`kl_divergence`, :func:`relative_error`, ``klnmf solve`` and the
    failure trace of :func:`~klnmf.benchmark.execute` call
    :meth:`of_factors`, which forms the same product and sums from the
    factors. ``support`` is the :class:`Support` of the data, shared by
    every object made for the same :class:`NonnegMatrix`; its ``dense``
    alone picks the path of the ratio, the log pass and the Newton slices.

    The object itself is scratch, allocated on first use: ``_wh``, an
    nnz-length vector that a product is gathered into, on its own for
    ``mu``, ``bmd`` and dense data, and on sparse data for a Newton run row
    0 of the (4, nnz) block of :attr:`newton`; ``ratio``, the m×n
    result of :func:`support_ratio` on its support path, which stays
    exactly zero off the support; ``work``, a buffer of V's shape and
    memory layout that keeps nothing between calls: the whole-matrix ratio
    of :func:`support_ratio`, the ratio of a dense Newton slice (transposed
    on a W half) and the logarithms of :meth:`of_product`; and
    :attr:`newton`, the workspace of the Newton sweeps. A run allocates
    only the buffers its paths use, so an evaluation or a sweep makes no
    fresh temporary of size nnz or m·n, a returned ratio is overwritten by
    the next call, and one object must not be shared across threads; each
    run makes its own.
    """

    def __init__(self, V):
        self.support = support_of(V)

    @cached_property
    def ratio(self) -> np.ndarray:
        return np.zeros(self.support.shape)

    @cached_property
    def _wh(self) -> np.ndarray:
        return np.empty(self.support.index.size)

    @cached_property
    def work(self) -> np.ndarray:
        return np.empty_like(self.support.V)

    @cached_property
    def newton(self) -> tuple[tuple, tuple]:
        """What each half of a Newton sweep reads and writes besides the
        factors and the product, indexed by ``SolverState.transposed``.

        On dense data (``Support.dense``) a half has (V, R, c, w, ww,
        scratch): V and the ratio buffer ``work``, both transposed on the W
        half; the curvature constants c of the entries of a row of the
        half's H; the column w of W of a slice and its square ww; and f1,
        f2, s, lam and step, one entry per entry of that row.
        Otherwise it has (order, c, scratch, vectors): the half's order of
        the nonzeros (``Support.orders``); the constants of the entries of a
        row of H with data; f1, f2, s, lam, step and the row's entries
        there; and four nnz-length vectors that both halves share, the rows
        of one C-contiguous (4, nnz) block allocated here: ``_wh`` (row 0,
        which replaces any vector :meth:`gather` built before), which
        carries the product at the nonzeros, the ratio, a work vector and
        the column of W there.
        """
        support = self.support
        c_rows, c_cols = support.curvature
        if support.dense:
            # R keeps V's layout, not the half's: then the W half of (V, W, H)
            # and the H half of (V.T, H.T, W.T) run their matrix-vector
            # products over R in one memory order, bitwise.
            return tuple((V, R, c, *np.empty((2, V.shape[0])),
                          tuple(np.empty((5, V.shape[1]))))
                         for V, R, c in ((support.V, self.work, c_cols),
                                         (support.V.T, self.work.T, c_rows)))
        vectors = tuple(np.empty((4, support.index.size)))
        self._wh = vectors[0]
        return tuple((order, c[order.segments],
                      tuple(np.empty((6, order.segments.size))), vectors)
                     for order, c in zip(support.orders, (c_cols, c_rows)))

    def gather(self, WH: np.ndarray) -> np.ndarray:
        """WH on the support, written into the object's nnz-length scratch."""
        support = self.support
        if WH.shape != support.shape:
            raise ShapeError(f"product of shape {WH.shape}, data {support.shape}")
        # The index is in range by construction; take(out=) with the default
        # mode="raise" would buffer a fresh copy of its output on every call.
        return np.take(WH, support.index, out=self._wh, mode="clip")

    def of_product(self, WH: np.ndarray,
                   sums: tuple[np.ndarray, np.ndarray] | None = None,
                   ) -> ExtendedObjective:
        """The objective at the product ``WH``, in one pass over it.

        ``sums`` are the column sums of W and the row sums of H, as
        :class:`~klnmf.state.SolverState` keeps them; the linear term
        sum(WH) is then their dot product, O(r) work, and ``WH.sum()``
        without them. The log term is one BLAS dot: where
        :meth:`Support.whole_matrix` allows, of V with the logarithm of the
        whole product, taken into ``work``, where each zero of V adds an
        exact zero; otherwise of the nonzeros of V with the logarithm of the
        product gathered there, and a zero among those makes the objective
        infinite. The two ways agree to rounding. Once the scratch exists, a
        call on C-contiguous data, as every :class:`NonnegMatrix` holds,
        allocates nothing of size nnz or m·n.
        """
        support = self.support
        if support.whole_matrix(WH):
            logs = np.log(WH, out=self.work)
            log_term = float(support.V.reshape(-1) @ logs.reshape(-1))
        else:
            wh = self.gather(WH)
            if wh.size and float(wh.min()) <= 0.0:
                return ExtendedObjective.infinite()
            log_term = float(support.values @ np.log(wh, out=wh)) if wh.size else 0.0
        linear = float(WH.sum()) if sums is None else float(sums[0] @ sums[1])
        return ExtendedObjective.finite(linear + support.constant - log_term)

    def of_factors(self, W: np.ndarray, H: np.ndarray) -> ExtendedObjective:
        """The objective at (W, H): :meth:`of_product` of W @ H with the sums
        of W and H, so bitwise the value ``run()`` records for them."""
        return self.of_product(W @ H, (W.sum(axis=0), H.sum(axis=1)))

    def relative(self, objective: ExtendedObjective) -> float:
        if not objective.is_finite:
            return math.inf
        if self.support.degenerate_normalizer:
            return objective.value
        return objective.value / self.support.normalizer
