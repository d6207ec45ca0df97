"""Per-entry Newton updates with a step rule driven by self-concordance.

Two sweep flavors share the same derivative formulas. The safeguarded
variant (``sn_sweep``) takes the full clamped Newton step only when the
gradient points away from the bound or the Newton decrement is small enough,
damping by 1/(1 + lambda) otherwise; the recorded objective never increases.
The plain cyclic variant (``ccd_sweep``) always takes the clamped full step
and floors the cached product to stay computable, without a monotonicity
guarantee.

Entries sharing a factor index k form a slice whose updates touch disjoint
columns (rows) of the cached product, so the vectorized slice update below
is exactly the sequential per-scalar loop in slice order; no other
parallelism is applied. A slice of W is a slice of H run on the transposed
problem.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NonDifferentiableError

#: Largest Newton decrement for which lam^2 + lam + log(1 - lam) stays
#: positive, i.e. the largest decrement at which a full step still cannot
#: increase the objective.
FULL_STEP_LAMBDA = 0.683802

#: Floor applied to the cached product by the plain cyclic variant so that
#: incremental updates can never drive it to zero or below.
CCD_PRODUCT_FLOOR = 1e-300


def self_concordant_constants(V) -> tuple[np.ndarray, np.ndarray]:
    """Per-row and per-column curvature constants of the data matrix.

    Returns (c_rows, c_cols) with c_rows[i] = max over positive V[i, :] of
    1/sqrt(V[i, j]) (used for every entry of row i of W) and c_cols[j] the
    same over positive V[:, j] (for every entry of column j of H). Rows or
    columns with no positive data get 0.0; the constant is never consulted
    there because the curvature vanishes identically.
    """
    V = np.asarray(V, dtype=np.float64)
    masked = np.where(V > 0, V, np.inf)
    min_rows = masked.min(axis=1)
    min_cols = masked.min(axis=0)
    c_rows = np.where(np.isfinite(min_rows), 1.0 / np.sqrt(min_rows), 0.0)
    c_cols = np.where(np.isfinite(min_cols), 1.0 / np.sqrt(min_cols), 0.0)
    return c_rows, c_cols


def sn_update_scalar(x, f1, f2, c, epsilon) -> float:
    """One safeguarded Newton update of a single factor entry.

    With s = max(x - f1/f2, epsilon) and lam = c * sqrt(f2) * |s - x|:
    returns s when f1 <= 0 or lam <= FULL_STEP_LAMBDA, else the damped point
    x + (s - x) / (1 + lam). Vanishing curvature means the restriction is
    linear with slope f1 >= 0: move to the bound when f1 > 0, stay put
    otherwise.
    """
    if math.isnan(f1) or math.isnan(f2):
        raise ValueError("NaN derivative in scalar Newton update")
    if f2 <= 0:
        return float(epsilon) if f1 > 0 else float(x)
    s = max(x - f1 / f2, epsilon)
    d = s - x
    lam = c * math.sqrt(f2) * abs(d)
    if f1 <= 0 or lam <= FULL_STEP_LAMBDA:
        return float(s)
    return float(x + d / (1.0 + lam))


def _slice_ratios(V, state, mask, floor):
    """V/WH and V/WH^2 on the support of V; zero elsewhere.

    With ``floor`` set the cached product is clamped in place first and the
    curvature ratio is capped so a floored product cannot overflow to inf
    (which would poison the reductions with 0 * inf); without a floor a
    vanishing product on the support raises.
    """
    WH = state.WH
    if floor is not None:
        np.maximum(WH, floor, out=WH)
    else:
        bad = mask & (WH <= 0)
        if np.any(bad):
            i, j = np.argwhere(state.oriented(bad))[0]
            raise NonDifferentiableError(
                f"cached product is 0 at ({i}, {j}) where the data is positive"
            )
    ratio = np.zeros_like(V)
    np.divide(V, WH, out=ratio, where=mask)
    ratio2 = np.zeros_like(V)
    if floor is not None:
        with np.errstate(over="ignore"):
            np.divide(ratio, WH, out=ratio2, where=mask)
        np.minimum(ratio2, 1e300, out=ratio2)
    else:
        np.divide(ratio, WH, out=ratio2, where=mask)
    return ratio, ratio2


def _newton_targets(x, f1, f2, epsilon):
    """Clamped Newton targets, honoring the vanishing-curvature convention."""
    s = np.empty_like(x)
    curved = f2 > 0
    np.divide(f1, f2, out=s, where=curved)
    np.subtract(x, s, out=s, where=curved)
    np.maximum(s, epsilon, out=s, where=curved)
    flat = ~curved
    if flat.any():
        s[flat] = np.where(f1[flat] > 0, epsilon, x[flat])
    return s


def _update_slice(V, mask, state, k, c, epsilon, damped, floor):
    """Newton update of row k of state.H, with the product adjusted in place.

    ``V``, ``mask`` and the column curvature constants ``c`` are in the
    state's orientation.
    """
    wk = state.W[:, k]
    ratio, ratio2 = _slice_ratios(V, state, mask, floor)
    f1 = state.col_sums_W[k] - wk @ ratio
    f2 = (wk * wk) @ ratio2
    x = state.H[k, :].copy()
    s = _newton_targets(x, f1, f2, epsilon)
    if damped:
        lam = c * np.sqrt(f2) * np.abs(s - x)
        full = (f1 <= 0) | (lam <= FULL_STEP_LAMBDA)
        xnew = np.where(full, s, x + (s - x) / (1.0 + lam))
    else:
        xnew = s
    state.H[k, :] = xnew
    # Built in the product's layout (transposed on a W half) so the add streams.
    state.WH += np.outer(wk, xnew - x, out=np.empty_like(state.WH))


def _newton_sweep(V, state, epsilon, inner_repeats, constants, h_first, damped, floor):
    c_rows, c_cols = self_concordant_constants(V) if constants is None else constants
    mask = V > 0
    for half in state.halves(h_first):
        V_half, mask_half = half.oriented(V), half.oriented(mask)
        c = c_rows if half.transposed else c_cols
        for k in range(half.H.shape[0]):
            for _ in range(inner_repeats):
                _update_slice(V_half, mask_half, half, k, c, epsilon, damped, floor)
        half.H.sum(axis=1, out=half.row_sums_H)
    return state


def sn_sweep(V, state, epsilon, inner_repeats: int = 3, constants=None,
             h_first: bool = True):
    """One safeguarded Newton pass over every entry of H and W, in place.

    Each scalar is updated ``inner_repeats`` times with freshly recomputed
    derivatives; the cached product is adjusted after every change. The
    curvature constants may be precomputed once per data matrix and passed
    in. The objective never increases.
    """
    return _newton_sweep(V, state, epsilon, inner_repeats, constants, h_first,
                         damped=True, floor=None)


def ccd_sweep(V, state, epsilon, inner_repeats: int = 3, constants=None,
              h_first: bool = True):
    """One plain cyclic Newton pass: always the clamped full step.

    The cached product is floored at CCD_PRODUCT_FLOOR after each slice so
    incremental updates can never produce NaN derivatives. The objective may
    increase; callers track it rather than asserting monotonicity.
    """
    return _newton_sweep(V, state, epsilon, inner_repeats, constants, h_first,
                         damped=False, floor=CCD_PRODUCT_FLOOR)
