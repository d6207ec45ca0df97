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

A slice takes one of two paths, picked per sweep by ``Support.dense``, the
density rule that also picks the path of the ratio and of the log pass
(``DENSE_DENSITY`` in :mod:`klnmf.objective`); both share the target,
damping and flat-entry rule (:func:`_newton_targets`), and each sweep ends
by writing the full product once (:meth:`SolverState.resync`), so the next
step starts from an exact one.

On sparse data a slice reads only the support of V
(:class:`~klnmf.objective.Support`), which a
:class:`~klnmf.matrices.NonnegMatrix` builds once, on first use, and every
run and thread shares. Its ``orders`` list the nonzeros in the order each
half reduces over: column by column for H, row by row for W. The
derivatives of a slice are then per-segment sums (``np.add.reduceat``).
Each half gathers the product at its nonzeros into a vector, updates that
vector in place and writes it back there at its end. Both halves share four
nnz-length vectors (the support product, the ratio, a work vector and the W
column at the nonzeros), the rows of one C-contiguous (4, nnz) block, and
each has six buffers with one entry per entry of a row of its H with data
(the derivatives f1 and f2, the targets, the decrements, the steps and the
row's own entries there) and the curvature constants of those entries. A
slice computes on those entries only; an entry without data has no
curvature and is set directly. Only sparse data builds the orders.

On dense data a slice works on the whole matrix: R = V/WH is one divide,
f1 = colsum - w·R one BLAS matrix-vector product, R/WH a second divide in
place and f2 = (w∘w)·R a second product. Every entry of the row is
updated, an entry without data by the flat rule. Then the product is
recomputed, WH = W @ H, by one BLAS matrix product of inner size r, so it
is exact after every slice and, a sum of nonnegative terms, never
negative. That product costs O(m·n·r), where the rank-1 update WH +=
w ⊗ step it replaced made two passes of O(m·n), so it is the cheaper one
up to a rank that grows with the shape: about 30 at 200×200 and 40 at
600×400 (min of 7 × 300 calls, one BLAS thread). At 200×200 rank 10 it
takes 15-16 µs against 40-42 µs, at 600×400 rank 5 129-135 µs against
380-405 µs. The benchmark's ranks are 4 to 10. The W half runs this on
the views V.T, WH.T, H.T and W.T, and copies none of them. R is the
``work`` buffer of the run's :class:`~klnmf.objective.KLObjective`, which
has V's shape and layout, so the W half reads it transposed too. Each
half has the W column, its square and five buffers with one entry per
entry of a row of its H (f1, f2, the targets, the decrements and the
steps).

These buffers, each half's layout of the data and its constants make up
the workspace of the run's objective
(:attr:`klnmf.objective.KLObjective.newton`), built once per run, so no
sweep allocates anything of size nnz or m·n.

One guard, :func:`_positive_product`, runs before a slice: ccd floors the
product; sn raises at the caller's (i, j) where it is 0 and V is positive,
and sets it to +inf where both are 0 (at epsilon 0, W @ H can be exactly 0
where V is), which divides 0 to 0, so a slice never computes 0 / 0. The
product recomputed after a dense slice is 0 there again, and the next
slice's guard parks it anew. sn guards every slice, and so does ccd on
sparse data, whose product is adjusted incrementally. A dense ccd half
floors the product, and caps V/WH^2 at 1e300, only where
:func:`_floor_idle` cannot prove both passes identities before the half's
first slice: a product recomputed by GEMM is a rounded sum of nonnegative
terms, never below its largest one, and a ccd slice writes no entry of H
below epsilon, so min(W) * min(min(H), epsilon) bounds every entry of the
half's products from below.

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
#: it is never zero or below where a slice divides by it: incremental
#: updates on sparse data can drive it there, and on dense data it is
#: exactly 0 where every term of W @ H is. A dense half skips it when
#: :func:`_floor_idle` proves that no entry of the product is below it.
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


def _positive_product(values, wh, damped, entry):
    """Guard ``wh``, the product at the entries whose data is ``values``,
    in place: the plain cyclic variant (not ``damped``) floors it at
    ``CCD_PRODUCT_FLOOR``; otherwise a zero where the data is positive
    raises at ``entry(position)``, the caller's (i, j). A dense ccd half
    calls it only where :func:`_floor_idle` fails."""
    if not damped:
        np.maximum(wh, CCD_PRODUCT_FLOOR, out=wh)
    elif wh.size and not wh.min() > 0:
        zero = wh <= 0
        on_support = zero & (values > 0)
        if on_support.any():
            raise NonDifferentiableError.at(*entry(np.argmax(on_support)))
        wh[zero] = np.inf


def _support_slice(order, x, colsum, c, epsilon, damped, w, wh, ratio, work,
                   scratch):
    """Newton update of ``x``, row k of a half's H (a view written in
    place), with the support product ``wh`` adjusted in place.

    ``order`` is the half's order of the nonzeros, ``colsum`` the sum of
    column k of W and ``w`` that column at the half's nonzeros; ``ratio``
    and ``work`` are nnz-length scratch. ``scratch`` holds the half's
    buffers, one entry per entry of x with data, and ``c`` the curvature
    constants of those entries (see :func:`_support_halves`). The caller
    keeps ``wh`` positive (see :func:`_positive_product`); where it floors
    the product (not ``damped``), V/WH^2 is capped here so a floored product
    cannot overflow to inf (which would poison the sums with 0 * inf).

    An entry without data has f1 = colsum and f2 = 0: it moves to epsilon
    when colsum > 0 and stays put otherwise, and leaves the product alone.
    """
    f1, f2, s, lam, step, xs = scratch
    np.take(x, order.segments, out=xs, mode="clip")
    np.divide(order.values, wh, out=ratio)
    np.multiply(ratio, w, out=work)
    np.add.reduceat(work, order.starts, out=f1)
    np.subtract(colsum, f1, out=f1)
    if damped:
        np.divide(work, wh, out=ratio)
    else:
        with np.errstate(over="ignore"):
            np.divide(ratio, wh, out=ratio)
        np.minimum(ratio, 1e300, out=ratio)
        ratio *= w
    ratio *= w
    np.add.reduceat(ratio, order.starts, out=f2)
    _newton_targets(xs, f1, f2, c, epsilon, damped, s, lam, step)
    x[order.segments] = s
    if colsum > 0:
        x[order.empty] = epsilon
    np.take(step, order.owners, out=work, mode="clip")
    work *= w
    wh += work


def _support_halves(objective, state, epsilon, inner_repeats, h_first,
                    damped):
    support = objective.support
    n = support.shape[1]
    # WH read flat in its own memory order, with each nonzero's index in
    # that order: a state made by SolverState.T carries a Fortran-ordered
    # WH. Only a WH in neither order is copied; the copy carries the
    # product between the halves until resync() rewrites WH.
    fortran = state.WH.flags.f_contiguous and not state.WH.flags.c_contiguous
    product = (state.WH.T if fortran else state.WH).reshape(-1)
    for half in state.halves(h_first):
        order, c, scratch, (wh, ratio, work, w) = objective.newton[half.transposed]
        flat = support.column_major[half.transposed] if fortran else order.flat
        # The indices are in range by construction, and take(out=) with the
        # default mode="raise" would buffer a fresh copy of its output on
        # every call.
        np.take(product, flat, out=wh, mode="clip")
        entry = lambda p: divmod(int(order.flat[p]), n)  # noqa: E731
        for k in range(half.H.shape[0]):
            np.take(half.W[:, k], order.rows, out=w, mode="clip")
            x, colsum = half.H[k], half.col_sums_W[k]
            for _ in range(inner_repeats):
                _positive_product(order.values, wh, damped, entry)
                _support_slice(order, x, colsum, c, epsilon, damped, w, wh,
                               ratio, work, scratch)
        product[flat] = wh
        half.H.sum(axis=1, out=half.row_sums_H)


def _dense_slice(V, WH, R, x, colsum, c, epsilon, damped, capped, w, ww,
                 scratch):
    """Newton update of ``x``, row k of a half's H (a view written in
    place), from the whole product ``WH``, which the caller recomputes
    after the slice.

    ``V``, ``WH`` and the scratch ``R`` are in the half's orientation,
    each C- or F-ordered. ``w`` is column k of W, ``ww`` its square,
    ``colsum`` its sum and ``c`` the curvature constants of every entry of
    x; ``scratch`` holds f1, f2, s, lam and step, one entry per entry of x.
    The caller keeps ``WH`` positive (see :func:`_positive_product`). With
    ``capped``, where ccd floors the product, V/WH^2 is capped at 1e300 as
    on the support path; a ccd half that :func:`_floor_idle` proves
    neither floor nor cap can touch runs without both. An entry without
    data has f1 = colsum and f2 = 0, so the flat rule sets it as the
    support path does.
    """
    f1, f2, s, lam, step = scratch
    np.divide(V, WH, out=R)
    np.matmul(w, R, out=f1)
    np.subtract(colsum, f1, out=f1)
    if capped:
        with np.errstate(over="ignore"):
            np.divide(R, WH, out=R)
        np.minimum(R, 1e300, out=R)
    else:
        np.divide(R, WH, out=R)
    np.matmul(ww, R, out=f2)
    _newton_targets(x, f1, f2, c, epsilon, damped, s, lam, step)
    np.copyto(x, s)


def _floor_idle(W, H, epsilon, vmax) -> bool:
    """Whether no undamped slice of a dense half with factors ``W`` and
    ``H`` can meet a product below ``CCD_PRODUCT_FLOOR`` or a V/WH^2 above
    1e300, where ``vmax`` is the largest entry of V; then the floor and
    the cap of the half are identities.

    No slice of the half changes W, and every entry it writes is at least
    epsilon or left as it was (see :func:`_newton_targets`), so every term
    of the recomputed product is at least lo = min(W) * min(H, epsilon),
    and so is every entry, a rounded sum of nonnegative terms. The bound
    is computed in Python floats, where an overflow reads inf; H.min()
    comes first in min() so that a NaN in H fails it.
    """
    w_min, h_min = float(W.min()), min(float(H.min()), epsilon)
    lo = w_min * h_min
    return (w_min > 0 and h_min > 0 and lo >= CCD_PRODUCT_FLOOR
            and vmax / lo / lo <= 1e300)


def _dense_halves(objective, state, epsilon, inner_repeats, h_first, damped):
    for half in state.halves(h_first):
        V, R, c, w, ww, scratch = objective.newton[half.transposed]
        # A position in the W half's V.T is one in V in F order.
        entry = partial(np.unravel_index, shape=objective.support.shape,
                        order="F" if half.transposed else "C")
        floored = not damped and not _floor_idle(
            half.W, half.H, epsilon, objective.support.vmax)
        for k in range(half.H.shape[0]):
            np.copyto(w, half.W[:, k])
            np.multiply(w, w, out=ww)
            x, colsum = half.H[k], half.col_sums_W[k]
            for _ in range(inner_repeats):
                if damped or floored:
                    _positive_product(V, half.WH, damped, entry)
                _dense_slice(V, half.WH, R, x, colsum, c, epsilon, damped,
                             floored, w, ww, scratch)
                np.matmul(half.W, half.H, out=half.WH)
        half.H.sum(axis=1, out=half.row_sums_H)


def _newton_sweep(V, state, epsilon, inner_repeats, h_first, damped,
                  objective):
    if objective is None:
        objective = KLObjective(V)
    halves = _dense_halves if objective.support.dense else _support_halves
    halves(objective, state, epsilon, inner_repeats, h_first, damped)
    state.resync()
    return state


def sn_sweep(V, state, epsilon, inner_repeats: int = 3, h_first: bool = True,
             objective: KLObjective | None = None):
    """One safeguarded Newton pass over every entry of H and W, in place.

    Each scalar is updated ``inner_repeats`` times with freshly recomputed
    derivatives. After every slice the cached product is adjusted at the
    support of sparse data, and recomputed whole on dense data; the full
    product is recomputed at the end.
    ``objective``, the :class:`KLObjective` of V, is built here when absent;
    its :attr:`~KLObjective.newton` workspace gives each half its layout,
    its curvature constants and its scratch. The objective never increases.
    """
    return _newton_sweep(V, state, epsilon, inner_repeats, h_first,
                         damped=True, objective=objective)


def ccd_sweep(V, state, epsilon, inner_repeats: int = 3, h_first: bool = True,
              objective: KLObjective | None = None):
    """One plain cyclic Newton pass: always the clamped full step.

    The cached product, adjusted or recomputed after every slice as in
    :func:`sn_sweep`, is floored at CCD_PRODUCT_FLOOR before each slice so
    a product that reaches 0 can never produce NaN derivatives. On dense
    data a half floors it, and caps V/WH^2, only where the bound of
    :func:`_floor_idle` fails; elsewhere neither pass can change a bit.
    The objective may increase; callers track it rather than asserting
    monotonicity.
    """
    return _newton_sweep(V, state, epsilon, inner_repeats, h_first,
                         damped=False, objective=objective)
