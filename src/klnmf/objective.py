"""The extended-valued KL objective and its first-order quantities.

All logarithms are natural (the objective is the Poisson negative
log-likelihood up to constants), with the conventions 0*log(0) = 0 and
a*log(0) = -inf for a > 0.
"""
from __future__ import annotations

import copy
import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInputError, NonDifferentiableError, ShapeError
from .matrices import as_matrix_array

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

    Raises NonDifferentiableError if WH vanishes where V is positive.
    ``objective`` is the :class:`KLObjective` of V, built here when absent,
    and the result is its ``ratio`` buffer, which the next call on the same
    object overwrites. On dense data (see ``DENSE_RATIO_DENSITY``) whose
    product is positive everywhere the ratio is one divide over the whole
    matrix, where 0 / WH is exactly +0.0; otherwise only the support is read
    and written. Both ways divide each nonzero of V by the same product
    entry, so they give the same bits.
    """
    if objective is None:
        objective = KLObjective(V)
    # min() is NaN, and so not positive, if the product has a NaN.
    if objective.dense and WH.shape == objective.shape and WH.min() > 0:
        return np.divide(objective.V, WH, out=objective.ratio)
    wh = objective.gather(WH)
    if wh.size and wh.min() <= 0:
        position = objective.index[np.argmax(wh <= 0)]
        i, j = divmod(int(position), objective.shape[1])
        raise NonDifferentiableError(
            f"product is 0 at ({i}, {j}) where the data is positive"
        )
    np.divide(objective.values, wh, out=wh)
    objective.ratio.reshape(-1)[objective.index] = wh
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
    return KLObjective(V).normalizer


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
                         obj.is_finite and objective.degenerate_normalizer)


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


class KLObjective:
    """Precomputed pieces of the objective for one data matrix.

    The one evaluation of the objective: ``run()`` calls it on its cached
    product at every sweep without recomputing the support or the
    normalizer, and :func:`kl_divergence` and :func:`relative_error` call it
    on a fresh product. ``V`` is the data itself, not a copy; ``index`` is
    the flat row-major index of its nonzeros and ``values`` their values;
    the Newton sweeps build their support layout from them. ``sums`` holds
    the column and the row sums of V, indexed by
    ``SolverState.transposed``. ``dense`` says whether :func:`support_ratio`
    may divide over the whole matrix. These per-matrix fields are never
    written; :meth:`with_own_scratch` shares them with a new object.

    The object also holds scratch, allocated on first use: an nnz-length
    vector that every product is gathered into, and ``ratio``, the m×n
    result of :func:`support_ratio`, which stays exactly zero off the
    support. So an evaluation makes no fresh temporary of either size, a
    returned ratio is overwritten by the next call, and one object must not
    be shared across threads.
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

    def with_own_scratch(self) -> "KLObjective":
        """A new object for the same data, sharing every per-matrix field.

        The constants are computed here first, on the first call, so the new
        object never computes them again; its scratch is its own. Objects
        made this way may each be used in a thread of their own.
        """
        for name in ("_const", "normalizer", "degenerate_normalizer"):
            getattr(self, name)
        twin = copy.copy(self)
        for name in ("ratio", "_wh"):
            twin.__dict__.pop(name, None)
        return twin

    @cached_property
    def ratio(self) -> np.ndarray:
        return np.zeros(self.shape)

    @cached_property
    def _wh(self) -> np.ndarray:
        return np.empty_like(self.values)

    # The constants below take logarithms of the data; they are computed on
    # first use, so that the steps that build an object for one ratio only
    # do not pay for them.

    @cached_property
    def _const(self) -> float:
        return float(self.values @ np.log(self.values)) - float(self.values.sum())

    @cached_property
    def normalizer(self) -> float:
        means = (self.sums[1] / self.shape[1])[self.index // self.shape[1]]
        return float(self.values @ np.log(self.values / means))

    @cached_property
    def degenerate_normalizer(self) -> bool:
        return abs(self.normalizer) <= NORMALIZER_FLOOR * float(self.values.sum())

    def gather(self, WH: np.ndarray) -> np.ndarray:
        """WH on the support, written into the object's nnz-length scratch."""
        if WH.shape != self.shape:
            raise ShapeError(f"product of shape {WH.shape}, data {self.shape}")
        # The index is in range by construction; take(out=) with the default
        # mode="raise" would buffer a fresh copy of its output on every call.
        return np.take(WH, self.index, out=self._wh, mode="clip")

    def of_product(self, WH: np.ndarray) -> ExtendedObjective:
        wh = self.gather(WH)
        if wh.size and float(wh.min()) <= 0.0:
            return ExtendedObjective.infinite()
        total = float(WH.sum()) + self._const
        if wh.size:
            total -= float(self.values @ np.log(wh, out=wh))
        return ExtendedObjective.finite(total)

    def relative(self, objective: ExtendedObjective) -> float:
        if not objective.is_finite:
            return math.inf
        if self.degenerate_normalizer:
            return objective.value
        return objective.value / self.normalizer
