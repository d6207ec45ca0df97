"""Multiplicative updates: alternating surrogate minimization for the KL objective.

Each half-update multiplies a factor entrywise by a data-to-product ratio
aggregated through the other factor, then clamps below at epsilon. The
update of W is the update of H run on the transposed problem. Column updates
of H are mutually independent given W, and the implementation reduces them
with a fixed summation order (one matrix product), so results never depend
on any parallel scheduling.

The ratio is formed in the scratch of the data's
:class:`~klnmf.objective.KLObjective` (see :func:`support_ratio`): by one
divide over the whole matrix when the data is dense, on the support of V
only otherwise. The two products stay dense BLAS calls. So a sweep on
sparse data makes no elementwise pass over the zeros of V, and no sweep
allocates an m×n temporary. A :class:`~klnmf.matrices.NonnegMatrix` builds
its support once, on first use, and every run and thread shares it; the
scratch is the run's own, so one object must not be shared across threads.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInputError
from .objective import KLObjective, support_ratio
from .state import SolverState

# Indexed by SolverState.transposed.
_ZERO_LOCKING = (
    "column {} of W has zero sum; the multiplicative update cannot move the "
    "corresponding row of H (zero locking)",
    "row {} of H has zero sum; the multiplicative update cannot move the "
    "corresponding column of W (zero locking)",
)


def _mu_half(ratio, state, epsilon):
    """Update state.H, its row sums and the product in place; ``ratio`` is
    V / WH in the state's orientation."""
    if state.col_sums_W.min() <= 0:
        k = np.flatnonzero(state.col_sums_W <= 0)[0]
        raise DegenerateInputError(_ZERO_LOCKING[state.transposed].format(k))
    H = state.H
    H *= state.W.T @ ratio
    H /= state.col_sums_W[:, None]
    if epsilon > 0:
        np.maximum(H, epsilon, out=H)
    H.sum(axis=1, out=state.row_sums_H)
    np.matmul(state.W, H, out=state.WH)


def mu_update_H(V, W, H, WH, epsilon) -> np.ndarray:
    """One multiplicative update of H with W fixed, clamped below at epsilon."""
    state = SolverState.from_factors(W, H)
    _mu_half(support_ratio(V, WH), state, epsilon)
    return state.H


def mu_update_W(V, W, H, WH, epsilon) -> np.ndarray:
    """One multiplicative update of W with H fixed, clamped below at epsilon."""
    state = SolverState.from_factors(W, H)
    _mu_half(support_ratio(V, WH).T, state.halves()[1], epsilon)
    return state.W


def mu_step(V, state, epsilon, h_first: bool = True,
            objective: KLObjective | None = None):
    """One full alternating multiplicative sweep, in place on ``state``.

    The second half-update uses the refreshed product of the first, and the
    product cache is recomputed from scratch after each half (no incremental
    drift). The objective never increases. At epsilon = 0 the update of H
    makes the product match the column sums of the data exactly, and the
    update of W its row sums. ``objective`` is the :class:`KLObjective` of
    V, built here when absent; a run passes its own.
    """
    if objective is None:
        objective = KLObjective(V)
    for half in state.halves(h_first):
        _mu_half(half.oriented(support_ratio(V, state.WH, objective)), half,
                 epsilon)
    return state


def mu_majorizer(h, h_ref, v, W) -> float:
    """Evaluate the separable surrogate that the multiplicative update minimizes.

    For a single column subproblem (data column v, dictionary W), the
    surrogate at point h with reference h_ref equals the column objective
    when h == h_ref and dominates it everywhere else. Terms with v == 0
    contribute only their product entry; weights with W == 0 contribute
    nothing (0 * log 0 = 0).
    """
    h = np.asarray(h, dtype=np.float64).reshape(-1)
    h_ref = np.asarray(h_ref, dtype=np.float64).reshape(-1)
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    W = np.asarray(W, dtype=np.float64)

    Wh = W @ h
    Wh_ref = W @ h_ref
    total = float(Wh.sum())
    pos = np.flatnonzero(v > 0)
    for i in pos:
        if Wh_ref[i] <= 0:
            raise ValueError(
                f"reference product vanishes at data row {i}; surrogate undefined"
            )
        support = np.flatnonzero(W[i] > 0)
        args = W[i, support] * h[support]
        if np.any(args <= 0):
            raise ValueError(
                f"log of nonpositive argument in surrogate at data row {i}"
            )
        weights = W[i, support] * h_ref[support] / Wh_ref[i]
        inner = float(weights @ (np.log(args) - np.log(weights)))
        vi = float(v[i])
        total += vi * math.log(vi) - vi * inner - vi
    return total
