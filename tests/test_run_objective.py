"""Every step reads the data through one KLObjective per run.

The object holds the support of V and scratch buffers that every ratio and
objective evaluation writes into. Reusing it must give bitwise
what a fresh object gives, leave the ratio buffer zero off the support,
never write the caller's product, and name error entries as the caller does.
Its ratio is one whole-matrix divide on dense data and a divide on the
support otherwise; both must give the bits of the textbook formula.
"""
import math
import warnings

import numpy as np
import pytest

from conftest import random_triple
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
        # Density 0 sends all data with a nonzero to the whole-matrix
        # divide, and density inf none.
        for density in (0.0, math.inf):
            monkeypatch.setattr("klnmf.objective.DENSE_RATIO_DENSITY", density)
            objective = KLObjective(V)
            assert_same_bits(support_ratio(V, WH, objective), want)
            # A second call on the same buffer, on another product.
            assert_same_bits(support_ratio(V, WH * 3.0, objective),
                             textbook_ratio(V, WH * 3.0))


def test_density_rule_picks_the_path_the_benchmark_expects(rng):
    V = rng.uniform(0.5, 3.0, (20, 20))
    for density, dense in ((1.0, True), (0.6, True), (0.08, False), (0.0, False)):
        assert KLObjective(
            V * (rng.random(V.shape) < density)).support.dense == dense


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
