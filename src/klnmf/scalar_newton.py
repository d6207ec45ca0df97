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

A slice takes one of two paths, picked per sweep from the density of V
(``DENSE_SLICE_DENSITY`` in :mod:`klnmf.objective`); both share the target,
damping and flat-entry rule (:func:`_newton_targets`), and each sweep ends
by writing the full product once (:meth:`SolverState.resync`), so the next
step starts from an exact one.

On sparse data a slice reads only the support of V
(:class:`~klnmf.objective.Support`), which a
:class:`~klnmf.matrices.NonnegMatrix` builds once, on first use, and every
run and thread shares. Its ``orders`` list the nonzeros in the order each
half reduces over: column by column for H, row by row for W. The
derivatives of a slice are then per-segment sums (``np.add.reduceat``), and
the product is carried on the support only, as a vector updated in place
and reordered between the halves. Such a sweep allocates four nnz-length
vectors (the support product, the ratio, a work vector and the W column at
the nonzeros) and, per half, six buffers with one entry per entry of a row
of that half's H with data (the derivatives f1 and f2, the targets, the
decrements, the steps and the row's own entries there). A slice computes on
those entries only; an entry without data has no curvature and is set
directly.

On dense data a slice works on the whole matrix: R = V/WH is one divide,
f1 = colsum - w·R one BLAS matrix-vector product, R/WH a second divide in
place and f2 = (w∘w)·R a second product; then WH += w ⊗ step. Every entry
of the row is updated, an entry without data by the flat rule. Both halves
run this on C-contiguous arrays: V.T is kept on the support, and the W half
copies WH.T into scratch at its start and back at its end. The two m·n
buffers (the ratio and that copy) are the run's
:class:`~klnmf.objective.KLObjective` scratch; per half, a sweep allocates
the W column, its square and five buffers with one entry per entry of a row
of H (f1, f2, the targets, the decrements and the steps).

On either path one guard, :func:`_positive_product`, runs before every
slice: ccd floors the product; sn raises at the caller's (i, j) where it is
0 and V is positive, and sets it to +inf where both are 0 (at epsilon 0,
W @ H can be exactly 0 where V is), which divides 0 to 0 and stays +inf
under every later step, so a slice never computes 0 / 0.

On either path a slice writes only into this scratch, H and the product,
and makes about twenty NumPy calls. Only a slice with a damped step, or
with vanishing curvature at an entry with data, takes a masked path, which
does allocate; so does a guard that finds a zero product.
"""
from __future__ import annotations

import math
from functools import partial

import numpy as np

from .errors import NonDifferentiableError
from .objective import KLObjective, support_of

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
    there because the curvature vanishes identically. They are the
    read-only ``curvature`` of the support, which a
    :class:`~klnmf.matrices.NonnegMatrix` builds once.
    """
    return support_of(V).curvature


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


def _newton_targets(xs, f1, f2, c, epsilon, damped, s, lam, step):
    """Targets ``s`` and steps ``step = s - xs`` of the entries ``xs`` from
    their derivatives ``f1`` and ``f2``, by the same operations, in the same
    order, as the scalar rule of :func:`sn_update_scalar`; without
    ``damped``, the clamped full step. Both slice paths call this. ``lam``
    is scratch, and a damped rule overwrites ``f2``.
    """
    # Clamped Newton targets. Where the curvature vanishes (or is NaN) the
    # restriction is linear: move to the bound when it increases, else stay.
    if f2.size and f2.min() > 0:
        np.divide(f1, f2, out=s)
        np.subtract(xs, s, out=s)
        np.maximum(s, epsilon, out=s)
    else:
        curved = f2 > 0
        np.divide(f1, f2, out=s, where=curved)
        np.subtract(xs, s, out=s, where=curved)
        np.maximum(s, epsilon, out=s, where=curved)
        flat = ~curved
        s[flat] = np.where(f1[flat] > 0, epsilon, xs[flat])
    np.subtract(s, xs, out=step)
    if damped:
        np.sqrt(f2, out=lam)
        lam *= c
        lam *= np.abs(step, out=f2)
        if not lam.max(initial=0.0) <= FULL_STEP_LAMBDA:
            full = (f1 <= 0) | (lam <= FULL_STEP_LAMBDA)
            s[...] = np.where(full, s, xs + step / (1.0 + lam))
            np.subtract(s, xs, out=step)


def _positive_product(values, wh, floor, entry):
    """Guard ``wh``, the product at the entries whose data is ``values``,
    in place; a zero where the data is positive raises at
    ``entry(position)``, the caller's (i, j)."""
    if floor is not None:
        np.maximum(wh, floor, out=wh)
    elif wh.size and not wh.min() > 0:
        zero = wh <= 0
        on_support = zero & (values > 0)
        if on_support.any():
            raise NonDifferentiableError.at(*entry(np.argmax(on_support)))
        wh[zero] = np.inf


def _support_slice(order, x, colsum, c, epsilon, damped, floor, w, wh, ratio,
                   work, scratch):
    """Newton update of ``x``, row k of a half's H (a view written in
    place), with the support product ``wh`` adjusted in place.

    ``order`` is the half's order of the nonzeros, ``colsum`` the sum of
    column k of W and ``w`` that column at the half's nonzeros; ``ratio``
    and ``work`` are nnz-length scratch. ``scratch`` holds the half's
    buffers, one entry per entry of x with data, and ``c`` the curvature
    constants of those entries (see :func:`_support_halves`). The caller
    keeps ``wh`` positive (see :func:`_positive_product`); with ``floor``
    set, V/WH^2 is capped here so a floored product cannot overflow to inf
    (which would poison the sums with 0 * inf).

    An entry without data has f1 = colsum and f2 = 0: it moves to epsilon
    when colsum > 0 and stays put otherwise, and leaves the product alone.
    """
    f1, f2, s, lam, step, xs = scratch
    if order.full:
        xs = x
    else:
        np.take(x, order.segments, out=xs, mode="clip")
    np.divide(order.values, wh, out=ratio)
    np.multiply(ratio, w, out=work)
    np.add.reduceat(work, order.starts, out=f1)
    np.subtract(colsum, f1, out=f1)
    if floor is None:
        np.divide(work, wh, out=ratio)
    else:
        with np.errstate(over="ignore"):
            np.divide(ratio, wh, out=ratio)
        np.minimum(ratio, 1e300, out=ratio)
        ratio *= w
    ratio *= w
    np.add.reduceat(ratio, order.starts, out=f2)
    _newton_targets(xs, f1, f2, c, epsilon, damped, s, lam, step)
    if order.full:
        np.copyto(x, s)
    else:
        x[order.segments] = s
        if colsum > 0:
            x[order.empty] = epsilon
    np.take(step, order.owners, out=work, mode="clip")
    work *= w
    wh += work


def _support_halves(support, state, constants, epsilon, inner_repeats,
                    h_first, damped, floor):
    c_rows, c_cols = constants
    # Support buffers, allocated once per sweep; wh starts in row order. The
    # indices are in range by construction, and take(out=) with the default
    # mode="raise" would buffer a fresh copy of its output on every call.
    wh = np.take(state.WH, support.index)
    ratio, work, w = (np.empty_like(wh) for _ in range(3))
    in_row_order = True
    for half in state.halves(h_first):
        if half.transposed != in_row_order:
            if in_row_order:
                np.take(wh, support.by_col, out=ratio, mode="clip")
            else:
                ratio[support.by_col] = wh
            wh, ratio = ratio, wh
            in_row_order = half.transposed
        order = support.orders[half.transposed]
        entry = partial(support.caller_entry,
                        in_column_order=not half.transposed)
        c = c_rows if half.transposed else c_cols
        if not order.full:
            c = c[order.segments]
        # Buffers of the half, one entry per entry of a row of its H with
        # data: f1, f2, s, lam, step and the row's entries there.
        scratch = tuple(np.empty((6, order.segments.size)))
        for k in range(half.H.shape[0]):
            np.take(half.W[:, k], order.rows, out=w, mode="clip")
            x, colsum = half.H[k], half.col_sums_W[k]
            for _ in range(inner_repeats):
                _positive_product(order.values, wh, floor, entry)
                _support_slice(order, x, colsum, c, epsilon, damped, floor, w,
                               wh, ratio, work, scratch)
        half.H.sum(axis=1, out=half.row_sums_H)


def _dense_slice(V, WH, R, x, colsum, c, epsilon, damped, floor, w, ww,
                 scratch):
    """Newton update of ``x``, row k of a half's H (a view written in
    place), with the whole product ``WH`` adjusted in place.

    ``V`` and ``WH`` are C-contiguous, in the half's orientation, and ``R``
    is scratch of their shape. ``w`` is column k of W, ``ww`` its square,
    ``colsum`` its sum and ``c`` the curvature constants of every entry of
    x; ``scratch`` holds f1, f2, s, lam and step, one entry per entry of x.
    The caller keeps ``WH`` positive (see :func:`_positive_product`). An entry
    without data has f1 = colsum and f2 = 0, so the flat rule sets it as the
    support path does.
    """
    f1, f2, s, lam, step = scratch
    np.divide(V, WH, out=R)
    np.matmul(w, R, out=f1)
    np.subtract(colsum, f1, out=f1)
    if floor is None:
        np.divide(R, WH, out=R)
    else:
        with np.errstate(over="ignore"):
            np.divide(R, WH, out=R)
        np.minimum(R, 1e300, out=R)
    np.matmul(ww, R, out=f2)
    _newton_targets(x, f1, f2, c, epsilon, damped, s, lam, step)
    np.copyto(x, s)
    np.multiply.outer(w, step, out=R)
    WH += R


def _dense_halves(support, objective, state, constants, epsilon,
                  inner_repeats, h_first, damped, floor):
    c_rows, c_cols = constants
    ratio, product = objective.slice_scratch
    for half in state.halves(h_first):
        V = support.contiguous[half.transposed]
        R = ratio.reshape(V.shape)
        WH = half.WH
        if not WH.flags.c_contiguous:
            WH = product.reshape(V.shape)
            np.copyto(WH, half.WH)
        # A position in the W half's C-ordered V.T is one in V in F order.
        entry = partial(np.unravel_index, shape=support.shape,
                        order="F" if half.transposed else "C")
        c = c_rows if half.transposed else c_cols
        w, ww = np.empty((2, V.shape[0]))
        scratch = tuple(np.empty((5, V.shape[1])))
        for k in range(half.H.shape[0]):
            np.copyto(w, half.W[:, k])
            np.multiply(w, w, out=ww)
            x, colsum = half.H[k], half.col_sums_W[k]
            for _ in range(inner_repeats):
                _positive_product(V, WH, floor, entry)
                _dense_slice(V, WH, R, x, colsum, c, epsilon, damped, floor,
                             w, ww, scratch)
        if WH is not half.WH:
            np.copyto(half.WH, WH)
        half.H.sum(axis=1, out=half.row_sums_H)


def _newton_sweep(V, state, epsilon, inner_repeats, constants, h_first, damped,
                  floor, objective):
    if objective is None:
        objective = KLObjective(V)
    support = objective.support
    if constants is None:
        constants = support.curvature
    if support.dense_slices:
        _dense_halves(support, objective, state, constants, epsilon,
                      inner_repeats, h_first, damped, floor)
    else:
        _support_halves(support, state, constants, epsilon, inner_repeats,
                        h_first, damped, floor)
    state.resync()
    return state


def sn_sweep(V, state, epsilon, inner_repeats: int = 3, constants=None,
             h_first: bool = True, objective: KLObjective | None = None):
    """One safeguarded Newton pass over every entry of H and W, in place.

    Each scalar is updated ``inner_repeats`` times with freshly recomputed
    derivatives; the cached product (on the support of sparse data) is
    adjusted after every change and the full product recomputed at the end.
    The curvature constants may be precomputed once per data matrix and
    passed in, and ``objective``, the :class:`KLObjective` of V, gives the
    support and the scratch; both are built here when absent. The objective
    never increases.
    """
    return _newton_sweep(V, state, epsilon, inner_repeats, constants, h_first,
                         damped=True, floor=None, objective=objective)


def ccd_sweep(V, state, epsilon, inner_repeats: int = 3, constants=None,
              h_first: bool = True, objective: KLObjective | None = None):
    """One plain cyclic Newton pass: always the clamped full step.

    The cached product is floored at CCD_PRODUCT_FLOOR before each slice so
    incremental updates can never produce NaN derivatives. The
    objective may increase; callers track it rather than asserting
    monotonicity.
    """
    return _newton_sweep(V, state, epsilon, inner_repeats, constants, h_first,
                         damped=False, floor=CCD_PRODUCT_FLOOR,
                         objective=objective)
