"""Every step reads the data through one KLObjective per run.

The object holds the support of V and scratch buffers that every ratio and
objective evaluation writes into. Reusing it must give bitwise
what a fresh object gives, leave the ratio buffer zero off the support,
never write the caller's product, and name error entries as the caller does.
Its ratio is one whole-matrix divide on dense data and a divide on the
support otherwise; both must give the bits of the textbook formula. Its
objective takes the logarithm of the whole product on dense data and of
the product gathered on the support otherwise; both must agree with the
textbook formula to rounding, without allocating.
"""
import math
import warnings

import numpy as np
import pytest

from conftest import each_slice_path, random_triple
from test_scalar_newton import sparse_triple, very_sparse_triple
from test_transpose_symmetry import zero_product_at_0_2
from klnmf import (Factorization, NonDifferentiableError, ProblemInstance,
                   SolverConfig, SolverState, bmd_step, kkt_residual, mu_step,
                   run)
from klnmf.objective import KLObjective, support_ratio
from klnmf.solver import ccd_sweep, sn_sweep, snmu_step

STEPS = {"mu": mu_step, "bmd": bmd_step, "snmu": snmu_step, "sn": sn_sweep,
         "ccd": ccd_sweep}


def empty_line_triple(rng):
    """random_triple data with an empty first row and an empty last column."""
    V, W, H = random_triple(rng, m=6, n=5, r=2)
    V[0, :] = 0.0
    V[:, -1] = 0.0
    return V, W, H


@pytest.mark.parametrize("h_first", [True, False])
@pytest.mark.parametrize("name", sorted(STEPS))
def test_per_run_objective_is_bitwise_the_fresh_one(rng, name, h_first):
    step = STEPS[name]
    for make in (empty_line_triple, sparse_triple, very_sparse_triple):
        V, W, H = make(rng)
        fresh = SolverState.from_factors(W, H)
        shared = SolverState.from_factors(W, H)
        objective = KLObjective(V)
        for _ in range(20):
            step(V, fresh, 1e-9, h_first=h_first)
            step(V, shared, 1e-9, h_first=h_first, objective=objective)
        for field in ("W", "H", "WH", "col_sums_W", "row_sums_H"):
            np.testing.assert_array_equal(getattr(shared, field),
                                          getattr(fresh, field), err_msg=field)
        assert np.all(objective.ratio[V == 0] == 0.0)


@pytest.mark.parametrize("h_first", [True, False])
@pytest.mark.parametrize("step", [mu_step, bmd_step, sn_sweep])
def test_per_run_error_names_caller_entry(step, h_first):
    V, state = zero_product_at_0_2()
    with pytest.raises(NonDifferentiableError, match=r"\(0, 2\)"):
        step(V, state, 0.0, h_first=h_first, objective=KLObjective(V))


def test_reused_objective_matches_fresh_one_around_infinity(rng):
    V, W, H = sparse_triple(rng)
    finite = W @ H
    infinite = finite.copy()
    i, j = np.argwhere(V > 0)[0]
    infinite[i, j] = 0.0
    reused = KLObjective(V)
    for WH in (finite, infinite, finite * 1.5):
        got, want = reused.of_product(WH), KLObjective(V).of_product(WH)
        assert got.as_float() == want.as_float()
    assert not reused.of_product(infinite).is_finite


def test_reused_ratio_matches_fresh_one_after_an_error(rng):
    V, W, H = sparse_triple(rng)
    WH = W @ H
    broken = WH.copy()
    broken[tuple(np.argwhere(V > 0)[-1])] = 0.0
    reused = KLObjective(V)
    support_ratio(V, WH, reused)
    with pytest.raises(NonDifferentiableError):
        support_ratio(V, broken, reused)
    np.testing.assert_array_equal(support_ratio(V, WH * 2.0, reused),
                                  support_ratio(V, WH * 2.0))


def test_caller_product_is_never_written(rng):
    V, W, H = sparse_triple(rng)
    WH = W @ H
    WH.flags.writeable = False
    kept = WH.copy()
    objective = KLObjective(V)
    objective.of_product(WH)
    support_ratio(V, WH, objective)
    kkt_residual(V, W, H, 0.0, objective, WH)
    np.testing.assert_array_equal(WH, kept)


def test_kkt_residual_reads_cached_product_and_ratio(rng):
    V, W, H = sparse_triple(rng)
    state = SolverState.from_factors(W, H)
    objective = KLObjective(V)
    for _ in range(5):
        mu_step(V, state, 1e-9, objective=objective)
        assert kkt_residual(V, state.W, state.H, 1e-9, objective, state.WH) == \
            kkt_residual(V, state.W, state.H, 1e-9)
    zero_V, zero_state = zero_product_at_0_2()
    assert kkt_residual(zero_V, zero_state.W, zero_state.H, 0.0,
                        KLObjective(zero_V), zero_state.WH) == math.inf


@pytest.mark.parametrize("kind, step", [("mu", mu_step), ("bmd", bmd_step)])
def test_kkt_tol_run_stops_where_the_standalone_residual_does(rng, kind, step):
    """run() reads the residual from its cache; a loop that recomputes the
    product and the ratio every sweep, as kkt_residual does on its own, must
    stop at the same sweep."""
    V = rng.poisson(3.0, size=(9, 7)).astype(float)
    V[2, :] = 0.0
    W0, H0 = rng.uniform(0.2, 1.5, (9, 3)), rng.uniform(0.2, 1.5, (3, 7))
    epsilon = 1e-9
    state = SolverState.from_factors(W0, H0)
    residuals = []
    for _ in range(60):
        step(V, state, epsilon)
        residuals.append(kkt_residual(V, state.W, state.H, epsilon))
    # A sweep whose residual is a clear new low, with a tolerance between it
    # and every earlier one, so rounding cannot move the stop.
    stop = max(k for k in range(1, 60)
               if residuals[k] < 0.9 * min(residuals[:k]))
    tol = math.sqrt(residuals[stop] * min(residuals[:stop]))
    config = SolverConfig(kind=kind, epsilon=epsilon, max_outer_iters=60,
                          kkt_tol=tol)
    _, trace = run(ProblemInstance(V, 3), Factorization(W0, H0), config)
    assert trace.samples[-1].sweep == stop + 1


def textbook_ratio(V, WH):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(V > 0, V / WH, 0.0)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def ratio_cases(rng):
    """(V, WH) pairs: the densities the benchmark meets, empty lines, full
    rank and extreme scales."""
    m, n, r = 9, 7, 3
    W, H = rng.uniform(0.1, 2.0, (m, r)), rng.uniform(0.1, 2.0, (r, n))
    V = rng.uniform(0.5, 3.0, (m, n))
    for density in (1.0, 0.6, 0.08, 0.0):
        yield V * (rng.random((m, n)) < density), W @ H
    empty_lines = V * (rng.random((m, n)) < 0.6)
    empty_lines[2, :] = 0.0
    empty_lines[:, 4] = 0.0
    yield empty_lines, W @ H
    full_rank = min(m, n)
    yield V, (rng.uniform(0.1, 2.0, (m, full_rank))
              @ rng.uniform(0.1, 2.0, (full_rank, n)))
    for scale in (1e-150, 1e150):
        yield V * scale, (W * scale) @ H
        yield V * scale, W @ H


def test_both_ratio_paths_give_the_textbook_bits(rng, monkeypatch):
    for V, WH in ratio_cases(rng):
        want = textbook_ratio(V, WH)
        for _path in each_slice_path(monkeypatch):
            objective = KLObjective(V)
            assert_same_bits(support_ratio(V, WH, objective), want)
            # A second call on the same buffer, on another product.
            assert_same_bits(support_ratio(V, WH * 3.0, objective),
                             textbook_ratio(V, WH * 3.0))


def test_density_rule_picks_the_path_the_benchmark_expects(rng):
    # The shapes and nonzeros of the benchmark's matrices: the plan's at
    # densities 1.0, 0.607, 0.603, 0.578 (m005) and 0.082, klbench's
    # dense-poisson (0.896) and sparse-counts (0.0435), and no data.
    for shape, nonzeros, dense in (
            ((20, 20), 400, True), ((30, 20), 364, True), ((30, 20), 362, True),
            ((30, 20), 347, False), ((40, 30), 98, False),
            ((200, 200), 35832, True), ((600, 400), 10446, False),
            ((20, 20), 0, False)):
        V = rng.uniform(0.5, 3.0, shape)
        V.flat[rng.permutation(V.size)[nonzeros:]] = 0.0
        assert KLObjective(V).support.dense == dense


def test_dense_data_with_product_zero_off_the_support_falls_back(rng):
    """At epsilon 0 MU zeroes the row of W that meets an empty data row, so
    the product is 0 there; a whole-matrix divide would make 0/0."""
    V = rng.uniform(0.5, 3.0, (8, 6))
    V[3, :] = 0.0
    objective = KLObjective(V)
    assert objective.support.dense
    state = SolverState.from_factors(rng.uniform(0.2, 1.0, (8, 2)),
                                     rng.uniform(0.2, 1.0, (2, 6)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mu_step(V, state, 0.0, objective=objective)
        assert np.all(state.WH[3, :] == 0.0)
        assert_same_bits(support_ratio(V, state.WH, objective),
                         textbook_ratio(V, state.WH))
        mu_step(V, state, 0.0, objective=objective)
        bmd_step(V, state, 0.0, objective=objective)


def test_dense_data_with_product_zero_on_the_support_raises(rng):
    V = rng.uniform(0.5, 3.0, (5, 4))
    WH = np.full(V.shape, 2.0)
    WH[3, 1] = 0.0
    objective = KLObjective(V)
    assert objective.support.dense
    for target in (objective, None):
        with pytest.raises(NonDifferentiableError, match=r"\(3, 1\)"):
            support_ratio(V, WH, target)

def test_nan_product_keeps_the_ratio_zero_off_the_support(rng):
    V = rng.uniform(0.5, 3.0, (5, 4))
    V[0, 0] = 0.0
    WH = np.full(V.shape, 2.0)
    WH[0, 0] = np.nan
    objective = KLObjective(V)
    assert objective.support.dense
    assert_same_bits(support_ratio(V, WH, objective), textbook_ratio(V, WH))


def textbook_objective(V, WH):
    on = V > 0
    return float(WH.sum() - np.sum(V[on] * np.log(WH[on]))
                 + np.sum(V[on] * np.log(V[on])) - V.sum())


def rounding_bound(V, WH):
    """A few ulps of the largest term sum of the objective at WH."""
    on = V > 0
    terms = (WH.sum() + np.sum(V[on] * np.abs(np.log(WH[on])))
             + np.sum(V[on] * np.abs(np.log(V[on]))) + V.sum())
    return 16 * np.finfo(float).eps * float(terms)


def test_both_log_paths_agree_to_rounding(rng, monkeypatch):
    for V, WH in ratio_cases(rng):
        values = {}
        for path in each_slice_path(monkeypatch):
            objective = KLObjective(V)
            values[path] = objective.of_product(WH).value
            # Only the whole-matrix pass writes the work buffer, and only
            # the gather the nnz-length one.
            if np.count_nonzero(V):
                assert ("work" in vars(objective)) == (path == "dense")
                assert ("_wh" in vars(objective)) == (path == "support")
        bound = rounding_bound(V, WH)
        assert abs(values["dense"] - values["support"]) <= bound
        assert abs(values["dense"] - textbook_objective(V, WH)) <= bound


def test_zero_product_on_dense_data_on_both_log_paths(rng, monkeypatch):
    """A zero of the product where V is positive makes the objective
    infinite; one where V is zero adds nothing, on either log path."""
    V = rng.uniform(0.5, 3.0, (7, 6))
    V[2, 3] = 0.0
    WH = rng.uniform(0.5, 2.0, V.shape)
    on, off = WH.copy(), WH.copy()
    on[4, 1] = 0.0
    off[2, 3] = 0.0
    for path in each_slice_path(monkeypatch):
        objective = KLObjective(V)
        assert objective.support.dense == (path == "dense")
        assert not objective.of_product(on).is_finite
        got = objective.of_product(off)
        assert got.is_finite
        assert abs(got.value - textbook_objective(V, off)) <= rounding_bound(V, off)
        # The same object still evaluates a positive product.
        assert objective.of_product(WH) == KLObjective(V).of_product(WH)


def test_of_product_allocates_nothing_of_data_size_after_the_first_call(
        rng, monkeypatch):
    import tracemalloc
    m, n, r = 120, 90, 4
    V = rng.poisson(2.0, (m, n)) * (rng.random((m, n)) < 0.7) + 0.0
    W, H = rng.uniform(0.2, 1.0, (m, r)), rng.uniform(0.2, 1.0, (r, n))
    WH, sums = W @ H, (W.sum(axis=0), H.sum(axis=1))
    zero = WH.copy()
    zero[tuple(np.argwhere(V > 0)[0])] = 0.0
    smallest = np.count_nonzero(V)  # bytes of a boolean nnz-length mask
    for path in each_slice_path(monkeypatch):
        objective = KLObjective(V)
        objective.of_product(WH, sums)
        objective.of_product(zero)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for args in ((WH, sums), (WH,), (zero, sums)):
                objective.of_product(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < smallest // 4, path
