import json
import math
from dataclasses import replace
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import SLICE_PATHS, each_slice_path, random_triple
from test_product_bound import outcome, unbounded
from klnmf import (FULL_STEP_LAMBDA, MACHINE_EPS, Factorization,
                   KLObjective, NonDifferentiableError, NonnegMatrix,
                   ProblemInstance, SolverConfig, SolverState, bmd_step,
                   ccd_sweep, kl_divergence, mu_step, scalar_newton,
                   self_concordant_constants, sn_sweep, sn_update_scalar,
                   snmu_step, solver)
from klnmf.benchmark import BenchPlan, execute
from klnmf.objective import DENSE_DENSITY, Support, support_ratio
from klnmf.solver import run
from klnmf.synthetic import SyntheticSpec, generate, init_random_scaled

KLBENCH = Path(__file__).resolve().parents[1] / "klbench"


def damped_margin(lam):
    return lam * lam + lam + math.log1p(-lam)


class TestStepRule:
    def test_threshold_is_tightest_safe_value(self):
        # The margin expression changes sign just above the threshold: it is
        # a tiny positive number there and clearly negative at 0.69.
        assert 0 < damped_margin(FULL_STEP_LAMBDA) < 1e-5
        assert damped_margin(0.69) < 0
        assert damped_margin(FULL_STEP_LAMBDA + 1e-5) < 0

    def test_zero_gradient_stays_put(self):
        assert sn_update_scalar(1.3, 0.0, 4.0, 1.0, 0.0) == 1.3

    def test_hand_full_step(self):
        # V=4, H=2, W=1: f1 = 2 - 8/2 = -2 <= 0, f2 = 4, full step to 1.5.
        assert sn_update_scalar(1.0, -2.0, 4.0, 0.5, 0.0) == 1.5

    def test_damped_step_when_decrement_large(self):
        x, f1, f2, c = 2.0, 1.0, 0.25, 100.0
        s = max(x - f1 / f2, 0.0)
        lam = c * math.sqrt(f2) * abs(s - x)
        assert lam > FULL_STEP_LAMBDA
        want = x + (s - x) / (1.0 + lam)
        assert sn_update_scalar(x, f1, f2, c, 0.0) == pytest.approx(want)

    def test_flat_restriction_moves_to_bound_only_when_increasing(self):
        assert sn_update_scalar(1.0, 0.5, 0.0, 1.0, 1e-6) == 1e-6
        assert sn_update_scalar(1.0, 0.0, 0.0, 1.0, 1e-6) == 1.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            sn_update_scalar(1.0, math.nan, 1.0, 1.0, 0.0)

    def test_full_steps_with_positive_gradient_cannot_increase(self, rng):
        # Whenever the rule takes a full step with f1 > 0, the decrement must
        # sit where the damped-margin expression is positive.
        taken = 0
        for _ in range(2000):
            x = rng.uniform(0.01, 3.0)
            f1 = rng.uniform(0.0, 3.0)
            f2 = rng.uniform(0.01, 5.0)
            c = rng.uniform(0.1, 5.0)
            value, kind, lam = oracles.newton_scalar_rule(x, f1, f2, c, 0.0)
            assert sn_update_scalar(x, f1, f2, c, 0.0) == pytest.approx(value)
            if kind == "full" and f1 > 0:
                assert damped_margin(lam) > 0
                taken += 1
        assert taken > 50

    def test_scalar_instance_converges_to_exact_fit(self):
        # 1x1 problem: iterating from W=1 with V=4, H=2 gives 1, 1.5, ... -> 2.
        V, H = 4.0, 2.0
        c = 1.0 / math.sqrt(V)
        x = 1.0
        seen = [x]
        for _ in range(100):
            f1 = H - V * H / (x * H)
            f2 = V * H * H / (x * H) ** 2
            x = sn_update_scalar(x, f1, f2, c, 0.0)
            seen.append(x)
        assert seen[1] == pytest.approx(1.5, rel=1e-14)
        assert x == pytest.approx(2.0, rel=1e-12)
        f1 = H - V * H / (x * H)
        assert abs(f1) <= 1e-10


class TestSelfConcordantConstants:
    def test_column_constant_depends_only_on_that_column(self, rng):
        V = rng.uniform(0.0, 4.0, size=(5, 4))
        _, c_cols = self_concordant_constants(V)
        V2 = V.copy()
        V2[:, 1] = rng.uniform(0.1, 9.0, size=5)
        _, c2 = self_concordant_constants(V2)
        keep = [j for j in range(4) if j != 1]
        np.testing.assert_array_equal(c_cols[keep], c2[keep])

    def test_single_positive_entry(self):
        V = np.zeros((3, 2))
        V[1, 0] = 4.0
        c_rows, c_cols = self_concordant_constants(V)
        assert c_cols[0] == pytest.approx(0.5)
        assert c_rows[1] == pytest.approx(0.5)
        assert c_cols[1] == 0.0 and c_rows[0] == 0.0

    def test_max_over_reciprocal_roots(self, rng):
        V = rng.uniform(0.1, 5.0, size=(4, 3))
        c_rows, c_cols = self_concordant_constants(V)
        np.testing.assert_allclose(c_cols, 1.0 / np.sqrt(V.min(axis=0)))
        np.testing.assert_allclose(c_rows, 1.0 / np.sqrt(V.min(axis=1)))

    def test_matrix_keeps_one_read_only_copy(self, rng):
        V, _, _ = sparse_triple(rng)
        matrix = NonnegMatrix(V)
        constants = self_concordant_constants(matrix)
        again = self_concordant_constants(matrix)
        for got, cached, want in zip(constants, again,
                                     self_concordant_constants(V.copy())):
            assert got is cached and not got.flags.writeable
            np.testing.assert_array_equal(got.view(np.uint64),
                                          want.view(np.uint64))

    def test_constants_are_the_minima_of_the_order_segments(self, rng):
        # From V itself, bitwise what the minima over each segment of the
        # Newton orders give, with 0.0 where a row or column has no data.
        for make in (sparse_triple, very_sparse_triple, flat_curvature_triple):
            support = Support(make(rng)[0])
            for c, order in zip(support.curvature, support.orders[::-1]):
                want = np.zeros(c.size)
                want[order.segments] = 1.0 / np.sqrt(
                    np.minimum.reduceat(order.values, order.starts))
                np.testing.assert_array_equal(c.view(np.uint64),
                                              want.view(np.uint64))

    def test_dense_data_builds_no_orders_for_its_constants(self, rng):
        import tracemalloc
        matrix = NonnegMatrix(rng.poisson(3.0, size=(200, 200)) + 1.0)
        support = matrix.support
        tracemalloc.start()
        try:
            self_concordant_constants(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6, peak
        assert "orders" not in vars(support)


def sequential_sweep(V, W, H, epsilon, inner_repeats, damped, kinds=None,
                     exact_product=False):
    """Reference: per-scalar loop in the library's slice order. ``kinds``,
    when given, collects the step kind of every update of H in that order.
    The product is updated after every scalar, and with ``exact_product``
    also recomputed as W @ H after every slice, as the dense path does."""
    W = W.copy()
    H = H.copy()
    c_rows, c_cols = self_concordant_constants(V)
    WH = W @ H
    r = W.shape[1]
    col_sums_W = W.sum(axis=0)
    for k in range(r):
        for _ in range(inner_repeats):
            for j in range(H.shape[1]):
                mask = V[:, j] > 0
                f1 = col_sums_W[k] - np.dot(W[mask, k], V[mask, j] / WH[mask, j])
                f2 = np.dot(W[mask, k] ** 2, V[mask, j] / WH[mask, j] ** 2)
                value, kind, _ = oracles.newton_scalar_rule(
                    H[k, j], f1, f2, c_cols[j], epsilon)
                if kinds is not None:
                    kinds.append(kind)
                if not damped:
                    if f2 <= 0:
                        value = epsilon if f1 > 0 else H[k, j]
                    else:
                        value = max(H[k, j] - f1 / f2, epsilon)
                WH[:, j] += W[:, k] * (value - H[k, j])
                H[k, j] = value
            if exact_product:
                WH = W @ H
    row_sums_H = H.sum(axis=1)
    for k in range(r):
        for _ in range(inner_repeats):
            for i in range(W.shape[0]):
                mask = V[i, :] > 0
                f1 = row_sums_H[k] - np.dot(H[k, mask], V[i, mask] / WH[i, mask])
                f2 = np.dot(H[k, mask] ** 2, V[i, mask] / WH[i, mask] ** 2)
                value, _, _ = oracles.newton_scalar_rule(
                    W[i, k], f1, f2, c_rows[i], epsilon)
                if not damped:
                    if f2 <= 0:
                        value = epsilon if f1 > 0 else W[i, k]
                    else:
                        value = max(W[i, k] - f1 / f2, epsilon)
                WH[i, :] += H[k, :] * (value - W[i, k])
                W[i, k] = value
            if exact_product:
                WH = W @ H
    return W, H


def exact_ccd_sweep(V, W, H, epsilon, inner_repeats):
    """Reference: the sequential ccd loop of :func:`sequential_sweep`, with
    every update computed exactly in rationals from the float64 data and
    factors, its product included, and rounded once to float64."""
    W = W.copy()
    H = H.copy()
    epsilon = Fraction(epsilon)
    # The H half, then the W half as the H half of the transposed problem;
    # X is the factor updated and A the other one, both written in place.
    for X, A, data in ((H, W, V), (W.T, H.T, V.T)):
        for k in range(X.shape[0]):
            for _ in range(inner_repeats):
                colsum = sum(map(Fraction, A[:, k]))
                for j in range(X.shape[1]):
                    f1, f2 = colsum, Fraction(0)
                    for i in np.flatnonzero(data[:, j]):
                        wh = sum(Fraction(a) * Fraction(x)
                                 for a, x in zip(A[i], X[:, j]))
                        ratio = Fraction(data[i, j]) / wh
                        f1 -= Fraction(A[i, k]) * ratio
                        f2 += Fraction(A[i, k]) ** 2 * ratio / wh
                    x = Fraction(X[k, j])
                    if f2 > 0:
                        value = max(x - f1 / f2, epsilon)
                    else:
                        value = epsilon if f1 > 0 else x
                    X[k, j] = float(value)
    return W, H


def sparse_triple(rng, m=6, n=5, r=3):
    """Random data with an empty first row and column and about half of all
    its entries zero, with strictly positive factors."""
    V, W, H = random_triple(rng, m=m, n=n, r=r)
    V[rng.random((m, n)) < 0.3] = 0.0
    V[0, :] = 0.0
    V[:, 0] = 0.0
    return V, W, H


def very_sparse_triple(rng, m=7, n=6):
    """Full-rank factors (r = min(m, n)) on data with about 15% of its
    entries nonzero, whose first two columns hold one nonzero each."""
    V, W, H = random_triple(rng, m=m, n=n, r=min(m, n))
    V[rng.random((m, n)) < 0.85] = 0.0
    V[:, :2] = 0.0
    V[rng.integers(m, size=2), [0, 1]] = rng.uniform(0.5, 3.0, size=2)
    return V, W, H


def flat_curvature_triple(rng):
    """Positive data and factors, except that column 3 of V has data in
    rows 0 and 1 only, where column 1 of W is zero, column 4 of V is empty
    and column 2 of W is zero. At epsilon 0 the H slice of component 1 is
    then flat at columns 3 and 4 with a positive slope (f1 > 0), and that of
    component 2 is flat everywhere with slope 0 (f1 <= 0)."""
    V, W, H = random_triple(rng, m=5, n=5, r=3)
    V[2:, 3] = 0.0
    V[:, 4] = 0.0
    W[:2, 1] = 0.0
    W[:, 2] = 0.0
    return V, W, H


def column_gap_triple(rng):
    """Dense data with an empty column but no empty row: the H half has an
    entry without data, every entry of the W half has some."""
    V, W, H = random_triple(rng, m=5, n=6, r=2)
    V[:, 4] = 0.0
    return V, W, H


def damped_triple(rng):
    """Data whose first H slice mixes damped and full steps: the product
    starts far below the first two data columns, where the slope is
    negative and the step full, and far above the others, where the long
    step down is damped."""
    V, W, H = random_triple(rng, m=6, n=5, r=2)
    V[:, :2] *= 10.0
    V[:, 2:] *= 0.1
    return V, W, H


def slice_inputs(rng):
    """The six inputs of the slice tests for each sweep kind, sn then ccd:
    dense, sparse, very sparse, flat curvature, damped and full steps mixed,
    and a column gap."""
    makes = (partial(random_triple, m=5, n=4, r=3), sparse_triple,
             very_sparse_triple, flat_curvature_triple, damped_triple,
             column_gap_triple)
    draws = [[make(rng) for _ in range(2)] for make in makes]
    return [list(inputs) for inputs in zip(*draws)]


class TestSweeps:
    def test_exact_interior_fit_is_fixed_point(self):
        W = np.array([[1.0, 0.5], [0.2, 2.0]])
        H = np.array([[1.0, 2.0], [0.5, 0.1]])
        for sweep in (sn_sweep, ccd_sweep):
            state = SolverState.from_factors(W, H)
            sweep(W @ H, state, epsilon=0.0)
            np.testing.assert_allclose(state.W, W, rtol=1e-12)
            np.testing.assert_allclose(state.H, H, rtol=1e-12)

    def test_sn_monotone_on_random_instances(self, rng):
        for _ in range(50):
            V, W, H = random_triple(rng)
            state = SolverState.from_factors(W, H)
            before = kl_divergence(V, W, H).value
            sn_sweep(V, state, epsilon=0.0)
            after = kl_divergence(V, state.W, state.H).value
            assert after <= before * (1 + 1e-10) + 1e-10

    def test_slice_updates_equal_sequential_scalar_loop(self, rng, monkeypatch):
        # The sparse input reaches the masked divides and the flat-curvature
        # targets. There, undamped ccd steps amplify summation-order rounding:
        # over 200 random sparse draws (3-7 x 3-7) one ccd entry differed
        # from the scalar loop by 2.9e-10 of the largest entry, the rest by
        # at most 1.1e-14. Hence an absolute term, relative to max|want|, on
        # the sparse inputs only. The very sparse input has single-entry
        # segments and as many slices as it has rows or columns. The last
        # three inputs reach flat curvature with either slope, a slice that
        # mixes damped and full steps, and a half with an empty data line
        # next to one without (see test_inputs_reach_their_branches). Each
        # input runs on both slice paths, against a reference whose product
        # follows the path's: updated after every scalar on the support
        # path, and recomputed after every slice on the dense path.
        sweeps = ((True, sn_sweep), (False, ccd_sweep))
        for (damped, sweep), triples in zip(sweeps, slice_inputs(rng)):
            for (V, W, H), atol in zip(triples, (0.0, 1e-9, 1e-9, 0.0, 0.0, 0.0)):
                for path in each_slice_path(monkeypatch):
                    want_W, want_H = sequential_sweep(
                        V, W, H, 1e-9, 2, damped,
                        exact_product=path == "dense")
                    state = SolverState.from_factors(W, H)
                    sweep(V, state, epsilon=1e-9, inner_repeats=2)
                    for got, want in ((state.W, want_W), (state.H, want_H)):
                        np.testing.assert_allclose(
                            got, want, rtol=1e-12,
                            atol=atol * np.abs(want).max())

    def test_dense_ccd_slices_agree_with_exact_arithmetic(self, rng,
                                                          monkeypatch):
        # A product updated after every scalar drifts through undamped ccd
        # steps: on these inputs the float64 sequential loop strays from the
        # exact one by up to 1.5e-7 of the largest factor entry. The dense
        # path recomputes its product after every slice.
        monkeypatch.setattr("klnmf.objective.DENSE_DENSITY",
                            SLICE_PATHS["dense"])
        for V, W, H in slice_inputs(rng)[1]:
            want_W, want_H = exact_ccd_sweep(V, W, H, 1e-9, 2)
            state = SolverState.from_factors(W, H)
            ccd_sweep(V, state, epsilon=1e-9, inner_repeats=2)
            scale = max(np.abs(want_W).max(), np.abs(want_H).max())
            for got, want in ((state.W, want_W), (state.H, want_H)):
                np.testing.assert_allclose(got, want, rtol=0,
                                           atol=1e-14 * scale)

    def test_inputs_reach_their_branches(self, rng):
        # Per half (H, W): whether every entry of a row of its H has data.
        no_empty = {flat_curvature_triple: (False, True),
                    column_gap_triple: (False, True),
                    damped_triple: (True, True),
                    sparse_triple: (False, False)}
        for make, want in no_empty.items():
            V, W, H = make(rng)
            assert tuple(order.empty.size == 0
                         for order in Support(V).orders) == want
        V, W, H = damped_triple(rng)
        kinds = []
        sequential_sweep(V, W, H, 0.0, 1, True, kinds)
        assert {"damped", "full"} <= set(kinds[:H.shape[1]])

    def test_flat_slices_move_to_the_bound_only_uphill(self, rng, monkeypatch):
        V, W, H = flat_curvature_triple(rng)
        kinds = []
        _, want_H = sequential_sweep(V, W, H, 0.0, 1, True, kinds)
        n = H.shape[1]
        # The slices of components 1 and 2, in the loop's order.
        assert [kind == "flat" for kind in kinds[n:2 * n]] == [False] * 3 + [True] * 2
        assert kinds[2 * n:3 * n] == ["flat"] * n
        np.testing.assert_array_equal(want_H[1, 3:], 0.0)
        for _path in each_slice_path(monkeypatch):
            for sweep in (sn_sweep, ccd_sweep):
                state = SolverState.from_factors(W, H)
                sweep(V, state, epsilon=0.0, inner_repeats=1)
                np.testing.assert_array_equal(state.H[1, 3:], 0.0)
                np.testing.assert_array_equal(state.H[2], H[2])

    def test_scalar_trajectory_embedded_in_1x1_instance(self):
        V = np.array([[4.0]])
        state = SolverState.from_factors(np.array([[1.0]]), np.array([[2.0]]))
        # H is updated first and jumps straight to the fit W*H = 4; freeze it
        # back to isolate the W coordinate like the scalar example.
        sn_sweep(V, state, epsilon=0.0, inner_repeats=1, h_first=False)
        assert state.W[0, 0] == pytest.approx(1.5, rel=1e-14)

    def test_ccd_tracks_sn_quality(self, rng):
        V = rng.uniform(0.1, 3.0, size=(20, 20))
        W0 = rng.uniform(0.2, 1.0, size=(20, 3))
        H0 = rng.uniform(0.2, 1.0, size=(3, 20))
        states = {}
        for name, sweep in (("sn", sn_sweep), ("ccd", ccd_sweep)):
            state = SolverState.from_factors(W0, H0)
            for _ in range(40):
                state.resync()
                sweep(V, state, epsilon=0.0)
            states[name] = kl_divergence(V, state.W, state.H).value
        assert states["ccd"] == pytest.approx(states["sn"], rel=0.01)

    def test_sn_raises_on_nondifferentiable_cache(self):
        V = np.array([[1.0, 1.0]])
        state = SolverState.from_factors(np.array([[0.0]]),
                                         np.array([[1.0, 1.0]]))
        with pytest.raises(NonDifferentiableError):
            sn_sweep(V, state, epsilon=0.0)

    def test_ccd_floors_cache_and_continues(self):
        V = np.array([[1.0, 1.0]])
        state = SolverState.from_factors(np.array([[0.0]]),
                                         np.array([[1.0, 1.0]]))
        ccd_sweep(V, state, epsilon=0.0)
        assert np.all(np.isfinite(state.W))
        assert np.all(np.isfinite(state.H))


class TestSupportOrders:
    def test_orders_name_each_nonzero_by_its_flat_index(self, rng):
        # Random sparse data with empty rows and columns. The H half reads
        # the nonzeros column by column, the W half row by row.
        for _ in range(5):
            m, n = (int(d) for d in rng.integers(4, 12, size=2))
            V = rng.uniform(0.5, 2.0, (m, n)) * (rng.random((m, n)) < 0.3)
            V[rng.integers(m), :] = 0.0
            V[:, rng.integers(n)] = 0.0
            support = Support(V)
            for transposed, order in enumerate(support.orders):
                np.testing.assert_array_equal(np.sort(order.flat),
                                              support.index)
                np.testing.assert_array_equal(V.reshape(-1)[order.flat],
                                              order.values)
                i, j = np.divmod(order.flat, n)
                rows, cols = (j, i) if transposed else (i, j)
                np.testing.assert_array_equal(rows, order.rows)
                np.testing.assert_array_equal(cols,
                                              order.segments[order.owners])
                assert np.all(np.diff(cols) >= 0)
                np.testing.assert_array_equal(
                    order.empty, np.flatnonzero(~V.any(axis=transposed)))
                assert order.empty.size > 0


def workspace_instance(rng, make):
    """A fresh NonnegMatrix, its rank and a positive initial state: dense
    120x90 rank 4 data, or sparse 400x300 rank 2 data with about 7%
    nonzeros and no empty row or column."""
    if make == "dense":
        m, n, r = 120, 90, 4
        V = rng.poisson(rng.uniform(0.0, 1.0, (m, r))
                        @ rng.uniform(0.0, 4.0, (r, n))) + 1.0
    else:
        m, n, r = 400, 300, 2
        V = (rng.poisson(2.0, (m, n)) + 1.0) * (rng.uniform(size=(m, n)) < 0.07)
        V[np.arange(m), np.arange(m) % n] = 1.0
    state = SolverState.from_factors(rng.uniform(0.2, 1.0, (m, r)),
                                     rng.uniform(0.2, 1.0, (r, n)))
    return NonnegMatrix(V), r, state


class TestWorkspace:
    STEPS = {"mu": mu_step, "bmd": bmd_step, "sn": sn_sweep,
             "snmu": snmu_step, "ccd": ccd_sweep}

    @pytest.mark.parametrize("make", ["dense", "sparse"])
    @pytest.mark.parametrize("kind", sorted(STEPS))
    def test_no_step_allocates_after_the_first(self, rng, kind, make):
        # With the matrix's support built, as a run builds it, the first
        # step builds the run's scratch: on dense data the ratio buffer of
        # V's layout, and no copy of the data or the product. The later
        # steps reuse it, and allocate nothing of size nnz or m·n.
        import tracemalloc
        matrix, r, state = workspace_instance(rng, make)
        m, n = matrix.shape
        nnz = matrix.support.index.size
        assert matrix.support.dense == (make == "dense")
        assert nnz >= 8 * r * max(m, n)
        self_concordant_constants(matrix)
        if make == "sparse":
            matrix.support.orders  # noqa: B018 - as a run builds them
        objective = KLObjective(matrix)
        peaks = []
        for steps in (1, 5):
            tracemalloc.start()
            try:
                for _ in range(steps):
                    self.STEPS[kind](matrix.values, state, 1e-9,
                                     objective=objective)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 1.5 * m * n * 8, peaks
        assert peaks[1] < nnz * 8, peaks

    @pytest.mark.parametrize("kind", ["sn", "ccd"])
    def test_transposed_state_sweeps_without_copying_the_product(self, rng,
                                                                 kind):
        # The W half's state carries WH.T, which is Fortran-ordered. A
        # sparse sweep indexes it in that order: after a warm-up it makes
        # no copy of the product, and it updates the factors bitwise as on
        # a C-ordered copy of the same state.
        import tracemalloc
        m, n = 200, 150
        V = rng.uniform(1.0, 2.0, (m, n)) * (rng.uniform(size=(m, n)) < 0.1)
        state = SolverState.from_factors(rng.uniform(0.2, 1.0, (m, 3)),
                                         rng.uniform(0.2, 1.0, (3, n)))
        copy = SolverState.from_factors(state.H.T, state.W.T)
        copy.WH[...] = state.WH.T
        objective = KLObjective(V.T)
        assert not objective.support.dense
        assert state.T.WH.flags.f_contiguous and not state.T.WH.flags.c_contiguous
        sweep = self.STEPS[kind]
        sweep(V.T, copy, 1e-9, objective=objective)
        sweep(V.T, state.T, 1e-9, objective=objective)
        for got, want in ((state.H.T, copy.W), (state.W.T, copy.H)):
            np.testing.assert_array_equal(got.view(np.uint64),
                                          want.view(np.uint64))
        np.testing.assert_allclose(state.WH.T, copy.WH, rtol=1e-13)
        tracemalloc.start()
        try:
            sweep(V.T, state.T, 1e-9, objective=objective)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < objective.support.index.size * 8, peak

    @pytest.mark.parametrize("make", ["dense", "sparse"])
    @pytest.mark.parametrize("kind", ["sn", "snmu", "ccd"])
    def test_run_builds_the_workspace_before_the_first_sweep(
            self, rng, monkeypatch, kind, make):
        # The run's workspace and the support's curvature exist before the
        # first sweep, and only sparse data lays out the orders.
        import klnmf.solver as solver_mod
        matrix, r, state = workspace_instance(rng, make)
        built = []
        for name in ("sn_sweep", "ccd_sweep"):
            def spy(*args, _sweep=getattr(solver_mod, name), **kwargs):
                objective = kwargs["objective"]
                built.append(("newton" in vars(objective),
                              "curvature" in vars(objective.support),
                              "orders" in vars(objective.support)))
                return _sweep(*args, **kwargs)
            monkeypatch.setattr(solver_mod, name, spy)
        init = Factorization(NonnegMatrix(state.W), NonnegMatrix(state.H))
        run(ProblemInstance(matrix, r), init, SolverConfig(kind, max_outer_iters=1))
        assert built and built[0] == (True, True, make == "sparse")

    def test_sparse_newton_vectors_are_the_rows_of_one_block(self, rng):
        matrix, _, _ = workspace_instance(rng, "sparse")
        nnz = matrix.support.index.size
        objective = KLObjective(matrix)
        halves = objective.newton
        block = objective._wh.base
        assert block is not None and block.shape == (4, nnz)
        assert block.flags.c_contiguous
        for half in halves:
            vectors = half[3]
            assert vectors[0] is objective._wh
            for row, vector in enumerate(vectors):
                assert vector.base is block
                assert vector.ctypes.data == block[row].ctypes.data

    @pytest.mark.parametrize("step", [mu_step, bmd_step])
    def test_sparse_mu_and_bmd_gather_into_a_vector_of_their_own(self, rng,
                                                                  step):
        # Only the Newton workspace lays out the (4, nnz) block: mu and bmd
        # gather the product into one nnz-length vector.
        matrix, _, state = workspace_instance(rng, "sparse")
        objective = KLObjective(matrix)
        step(matrix.values, state, 1e-9, objective=objective)
        assert objective._wh.base is None
        assert objective._wh.shape == (matrix.support.index.size,)
        assert "newton" not in vars(objective)


def zero_product_off_the_support():
    """Positive data but for V[0, 0] = 0, with factors whose product is
    exactly 0 there, and positive everywhere else."""
    V = np.arange(1.0, 21.0).reshape(4, 5)
    V[0, 0] = 0.0
    W = np.array([[1.0, 0.0], [0.5, 1.0], [2.0, 0.3], [1.0, 1.0]])
    H = np.array([[0.0, 1.0, 2.0, 0.5, 1.0], [1.5, 0.2, 1.0, 1.0, 0.7]])
    return V, W, H


class TestSlicePaths:
    def test_density_picks_the_slice_path(self, rng, monkeypatch):
        # One density rule picks the slice path, the ratio path and the log
        # pass: all three flip together at the threshold.
        taken = []
        for name in ("_dense_halves", "_support_halves"):
            def spy(*args, _name=name, _halves=getattr(scalar_newton, name)):
                taken.append(_name)
                return _halves(*args)
            monkeypatch.setattr(scalar_newton, name, spy)
        V, W, H = random_triple(rng, m=10, n=10, r=2)
        WH = W @ H
        least = math.ceil(DENSE_DENSITY * V.size)
        for nonzeros, want in ((least, "_dense_halves"),
                               (least - 1, "_support_halves")):
            data = V.copy()
            data.flat[rng.permutation(V.size)[nonzeros:]] = 0.0
            dense = want == "_dense_halves"
            assert Support(data).dense == dense
            objective = KLObjective(data)
            objective.of_product(WH)
            # Only the whole-matrix log pass writes work, and only the
            # gathered one the nnz-length buffer.
            assert ("work" in vars(objective), "_wh" in vars(objective)) == (
                dense, not dense)
            assert support_ratio(data, WH, objective) is (
                objective.work if dense else objective.ratio)
            taken.clear()
            sn_sweep(data, SolverState.from_factors(W, H), 0.0)
            assert taken == [want]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("h_first", [True, False])
    @pytest.mark.parametrize("sweep", [sn_sweep, ccd_sweep])
    def test_zero_product_off_the_support_is_read_as_the_support_path_does(
            self, monkeypatch, sweep, h_first):
        # At epsilon 0 the product is exactly 0 at (0, 0), where V is 0: a
        # plain whole-matrix divide would make 0 / 0 there in the first
        # slice of either half.
        V, W, H = zero_product_off_the_support()
        assert (W @ H)[0, 0] == 0.0 and (W @ H)[V > 0].min() > 0
        states = {}
        for path in each_slice_path(monkeypatch):
            states[path] = SolverState.from_factors(W, H)
            sweep(V, states[path], 0.0, h_first=h_first)
        for name in ("W", "H", "WH"):
            np.testing.assert_allclose(getattr(states["dense"], name),
                                       getattr(states["support"], name),
                                       rtol=1e-12)

    @pytest.mark.parametrize("h_first", [True, False])
    def test_zero_product_on_the_support_raises_on_both_paths(
            self, monkeypatch, h_first):
        V = np.ones((3, 4))
        W = np.array([[1.0, 0.0], [1.0, 1.0], [0.5, 2.0]])
        H = np.array([[1.0, 2.0, 0.0, 1.0], [1.0, 1.0, 1.0, 0.5]])
        for _path in each_slice_path(monkeypatch):
            state = SolverState.from_factors(W, H)
            with pytest.raises(NonDifferentiableError, match=r"\(0, 2\)"):
                sn_sweep(V, state, 0.0, h_first=h_first)

    def test_paths_agree_on_the_plan_and_on_dense_poisson(self, monkeypatch):
        # The capped sn and snmu runs of the reference plan's dense
        # matrices (m000-m005, at densities 0.58 to 1) end at the same
        # errors on both paths, to rounding; and klbench's dense-poisson
        # instance reaches its target ref + delta in the same number of
        # sweeps of each Newton kind.
        plan = BenchPlan.from_json(KLBENCH / "plan.json")
        plan = replace(plan, matrices=plan.matrices[:6], solvers=tuple(
            config for config in plan.solvers if config.kind in ("sn", "snmu")))
        with open(KLBENCH / "reference.json") as fh:
            reference = json.load(fh)
        spec = reference["workloads"]["dense-poisson"]
        target = spec["ref"] + reference["delta"]
        finals, sweeps = {}, {}
        for path in each_slice_path(monkeypatch):
            # A matrix's support takes the density rule when it is built,
            # so each path builds its own matrix, as execute() does.
            V = generate(SyntheticSpec(**spec["data"]))
            instance = ProblemInstance(V, spec["rank"])
            init = init_random_scaled(*V.shape, spec["rank"], V.values,
                                      spec["init_seed"])
            assert V.support.dense == (path == "dense")
            results = execute(plan).results
            assert not [result.failure for result in results if result.failure]
            finals[path] = {result.run_id: result.final_error
                            for result in results}
            for kind, cap in (("sn", 12), ("ccd", 12), ("snmu", 3)):
                _, trace = run(instance, init,
                               SolverConfig(kind=kind, max_outer_iters=cap))
                sweeps[path, kind] = next(
                    sample.sweep for sample in trace.samples
                    if sample.sweep and sample.rel_error <= target)
        assert len(finals["dense"]) == 24
        for run_id, error in finals["support"].items():
            assert finals["dense"][run_id] == pytest.approx(error, rel=1e-12)
        for path in ("support", "dense"):
            assert [sweeps[path, kind] for kind in ("sn", "ccd", "snmu")] == [9, 9, 1]


def count_guards(monkeypatch):
    """Record one entry per call of the product guard of the Newton slices."""
    calls = []

    def spy(*args, _guard=scalar_newton._positive_product):
        calls.append(args)
        return _guard(*args)
    monkeypatch.setattr(scalar_newton, "_positive_product", spy)
    return calls


def ccd_sweeps(V, W, H, epsilon, h_first, sweeps):
    state = SolverState.from_factors(W, H)
    for _ in range(sweeps):
        ccd_sweep(V, state, epsilon, h_first=h_first)
    return state


def dense_run(V, W, H, kind, epsilon, sweeps=3):
    """The instance, init and config of a run of ``kind`` on the dense data
    V from (W, H), capped at ``sweeps``."""
    instance = ProblemInstance(NonnegMatrix(V), W.shape[1])
    assert instance.V.support.dense
    init = Factorization(NonnegMatrix(W), NonnegMatrix(H))
    config = SolverConfig(kind, epsilon=epsilon, max_outer_iters=sweeps)
    return instance, init, config


class TestDenseCcdBound:
    """A dense Newton sweep skips the product guard, and ccd its V/WH^2
    cap, where the run's product bound proves them identities, and runs
    them in every slice where it does not; a sweep called on its own
    carries no bound."""

    @pytest.mark.parametrize("h_first", [True, False])
    @pytest.mark.parametrize("epsilon", [MACHINE_EPS, 1e-9])
    @pytest.mark.parametrize("scale", [-400, 0, 400])
    def test_sweeps_without_the_guard_are_bitwise_the_guarded_ones(
            self, rng, monkeypatch, scale, epsilon, h_first):
        calls = count_guards(monkeypatch)
        monkeypatch.setattr(solver, "ccd_sweep",
                            partial(ccd_sweep, h_first=h_first))
        for _ in range(3):
            V, W, H = random_triple(rng, m=9, n=8, r=3)
            V, W, H = (np.ldexp(V, scale), np.ldexp(W, scale // 2),
                       np.ldexp(H, scale // 2))
            problem = dense_run(V, W, H, "ccd", epsilon)
            proved = outcome(*problem)
            assert calls == []
            guarded = unbounded(*problem)
            # 3 sweeps of 2 halves of 3 rows, each updated 3 times.
            assert len(calls) == 54
            calls.clear()
            assert proved == guarded

    def test_a_default_run_calls_no_guard(self, rng, monkeypatch):
        matrix, r, state = workspace_instance(rng, "dense")
        calls = count_guards(monkeypatch)
        init = Factorization(NonnegMatrix(state.W), NonnegMatrix(state.H))
        _, trace = run(ProblemInstance(matrix, r), init,
                       SolverConfig("ccd", max_outer_iters=3))
        assert trace.samples[-1].sweep == 3
        assert calls == []

    @pytest.mark.parametrize("kind, epsilon, per_sweep", [
        # 2 halves of 3 rows, each updated 3 times, in each sn sweep; an
        # snmu step runs 10 of them.
        ("sn", 1e-6, 0), ("snmu", 1e-6, 0), ("sn", None, 18),
        ("ccd", 0.0, 18)])
    def test_a_run_guards_its_slices_only_without_a_bound(
            self, rng, monkeypatch, kind, epsilon, per_sweep):
        calls = count_guards(monkeypatch)
        V, W, H = random_triple(rng, m=9, n=8, r=3)
        run(*dense_run(V, W, H, kind, epsilon, sweeps=2))
        assert len(calls) == 2 * per_sweep
        assert all(damped == (kind != "ccd") for _, _, damped, _ in calls)

    @staticmethod
    def epsilon_zero(rng):
        V, W, H = random_triple(rng, m=6, n=5, r=2)
        assert solver._product_bound(0.0) == 0.0
        return V, W, H, 0.0

    @staticmethod
    def epsilon_squared_below_the_floor(rng):
        V, W, H = random_triple(rng, m=6, n=5, r=2)
        W[0, 0] = H[0, 0] = 1e-160
        assert 0 < solver._product_bound(1e-160) < scalar_newton.CCD_PRODUCT_FLOOR
        return V, W, H, 1e-160

    @staticmethod
    def ratio_above_the_cap(rng):
        # The bound clears the floor, but V / bound^2 exceeds 1e300.
        V, W, H = random_triple(rng, m=6, n=5, r=2)
        V = np.ldexp(V, 900)
        bound = solver._product_bound(MACHINE_EPS)
        assert bound >= scalar_newton.CCD_PRODUCT_FLOOR
        assert float(V.max()) / bound / bound > 1e300
        return V, W, H, MACHINE_EPS

    @pytest.mark.parametrize("h_first", [True, False])
    @pytest.mark.parametrize("case", ["epsilon_zero",
                                      "epsilon_squared_below_the_floor",
                                      "ratio_above_the_cap"])
    def test_every_slice_is_guarded_where_the_bound_fails(
            self, rng, monkeypatch, case, h_first):
        V, W, H, epsilon = getattr(self, case)(rng)
        calls = count_guards(monkeypatch)
        monkeypatch.setattr(solver, "ccd_sweep",
                            partial(ccd_sweep, h_first=h_first))
        factors, trace = run(*dense_run(V, W, H, "ccd", epsilon, sweeps=1))
        assert trace.samples[-1].sweep == 1
        # 2 halves, each guarding each of its r rows 3 times.
        assert len(calls) == 2 * W.shape[1] * 3
        assert all(not damped for _, _, damped, _ in calls)
        assert np.all(np.isfinite(factors.W.values))
        assert np.all(np.isfinite(factors.H.values))

    @staticmethod
    def zero_product(rng):
        # The instance of test_ccd_floors_cache_and_continues: W @ H is 0.
        V, W, H = np.array([[1.0, 1.0]]), np.array([[0.0]]), np.ones((1, 2))
        return V, W, H, 0.0

    @staticmethod
    def negative_entry(rng):
        # A half writes every entry of its H at epsilon or above, so each
        # factor holds one: the half that runs second still reads one.
        V, W, H = random_triple(rng, m=6, n=5, r=2)
        W[0, 0] = H[1, 2] = -0.05
        return V, W, H, MACHINE_EPS

    @staticmethod
    def bounded_in_a_run(rng):
        # Factors a run at this epsilon would sweep without a guard.
        V, W, H = random_triple(rng, m=6, n=5, r=2)
        return V, W, H, MACHINE_EPS

    @pytest.mark.parametrize("h_first", [True, False])
    @pytest.mark.parametrize("case", ["zero_product", "negative_entry",
                                      "bounded_in_a_run"])
    def test_a_sweep_called_on_its_own_guards_every_slice(
            self, rng, monkeypatch, case, h_first):
        V, W, H, epsilon = getattr(self, case)(rng)
        assert Support(V).dense
        calls = count_guards(monkeypatch)
        state = ccd_sweeps(V, W, H, epsilon, h_first, sweeps=1)
        assert len(calls) == 2 * W.shape[1] * 3
        assert all(not damped for _, _, damped, _ in calls)
        assert np.all(np.isfinite(state.W)) and np.all(np.isfinite(state.H))
