"""Block mirror descent: closed-form relative-smooth steps in a log geometry.

Blocks are the columns of H and the rows of W. For a column subproblem with
data column v the step constant is the 1-norm of v, which makes the per-entry
denominator 1 + h*g/L provably positive whenever the matching dictionary
column is nonzero; the code asserts this rather than clamping. The step of W
is the step of H run on the transposed problem, the step of one column the
same code on one column. Column updates of H are mutually independent given
W, and are reduced in a fixed summation order, so results never depend on
any parallel scheduling.

The ratio is formed in the scratch of the data's
:class:`~klnmf.objective.KLObjective` (see :func:`support_ratio`), whose
support also holds the step constants: by one divide over the whole matrix
when the data is dense, on the support of V only otherwise. The two
products stay dense BLAS calls. So a sweep on sparse data makes no
elementwise pass over the zeros of V, and no sweep allocates an m×n
temporary. A :class:`~klnmf.matrices.NonnegMatrix` builds its support once,
on first use, and every run and thread shares it; the scratch is the run's
own, so one object must not be shared across threads.
A half builds its denominators in place in the one r×n array that its
gradient product returns; only a half with empty data columns allocates
anything more, the complement of their mask. Which columns are empty is a
fact about the data: the support's ``live`` holds it, built once.

In a run, the objective's ``product_bound`` is epsilon * epsilon (see
:attr:`~klnmf.objective.KLObjective.product_bound`). Where it is positive
the product is positive, and the ratio skips its scans of it; at 0.0, as
in a step that builds its own objective, they run.
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError
from .objective import KLObjective, support_ratio
from .state import SolverState


def _bmd_half(ratio, L, live, state, epsilon):
    """Mirror step of every column of state.H, its row sums and the product.

    ``ratio`` (V / WH) and ``L`` (the data column 1-norms) are in the state's
    orientation; ``live`` is None when every entry of L is positive, else
    the mask of those that are. Columns with L == 0 are set to epsilon.
    """
    W, H = state.W, state.H
    # The denominator 1 + H*G/L, built in place in the buffer the product of
    # the gradient G = colsum(W) - W.T @ ratio lands in. Dead columns get 1.
    denom = W.T @ ratio
    np.subtract(state.col_sums_W[:, None], denom, out=denom)
    denom *= H
    if live is None:
        denom /= L
    else:
        np.divide(denom, L, out=denom, where=live)
        denom[:, ~live] = 0.0
    denom += 1.0
    if denom.min() <= 0:
        k, j = np.argwhere(state.oriented(denom <= 0))[0]
        raise RuntimeError(
            f"mirror-step denominator {float(state.oriented(denom)[k, j])} at "
            f"{'W' if state.transposed else 'H'} entry ({k}, {j}) is not "
            "positive; internal consistency violated (L must be the column "
            "1-norm)"
        )
    H /= denom
    np.maximum(H, epsilon, out=H)
    if live is not None:
        H[:, ~live] = epsilon
    H.sum(axis=1, out=state.row_sums_H)
    np.matmul(W, H, out=state.WH)


def bmd_update_column(v, W, h, L, epsilon) -> np.ndarray:
    """Closed-form mirror step for one column of H against data column v.

    Per entry l: h[l] / (1 + h[l] * g[l] / L) clamped below at epsilon, where
    g is the column gradient and L must be the 1-norm of v.
    """
    if L <= 0:
        raise DegenerateInputError(
            "zero data column: the mirror step is undefined, set the column "
            "to epsilon instead"
        )
    state = SolverState.from_factors(W, np.reshape(h, (-1, 1)))
    v = np.asarray(v, dtype=np.float64).reshape(-1, 1)
    _bmd_half(support_ratio(v, state.WH), np.full(1, float(L)), None, state,
              epsilon)
    return state.H.reshape(-1)


def bmd_step(V, state, epsilon, h_first: bool = True,
             objective: KLObjective | None = None):
    """One full mirror sweep over all columns of H then all rows of W.

    Zero data columns (rows) get their H column (W row) set to epsilon
    directly: only the linear term remains there, so any feasible value is
    optimal and the choice is deterministic. The objective never increases.
    ``objective`` is the :class:`KLObjective` of V, built here when absent;
    a run passes its own. The step constants are its support's sums, and
    which of them are positive its support's ``live``.
    """
    if objective is None:
        objective = KLObjective(V)
    support = objective.support
    for half in state.halves(h_first):
        _bmd_half(half.oriented(support_ratio(V, state.WH, objective)),
                  support.sums[half.transposed], support.live[half.transposed],
                  half, epsilon)
    return state
