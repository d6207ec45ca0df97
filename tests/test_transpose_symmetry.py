"""The W half of every update is the H half of the transposed problem.

KL(V || WH) = KL(V.T || H.T W.T), so a sweep that updates H first on
(V, W, H) must equal, transposed, a sweep that updates W first on
(V.T, H.T, W.T). Errors raised inside a shared half name entries in the
orientation of the caller's own arrays.
"""
import numpy as np
import pytest

from conftest import random_triple
from klnmf import (NonDifferentiableError, SolverState, bmd_step, ccd_sweep,
                   mu_step, mu_update_W, sn_sweep)

STEPS = {"mu": mu_step, "bmd": bmd_step, "sn": sn_sweep, "ccd": ccd_sweep}


@pytest.mark.parametrize("name", sorted(STEPS))
def test_sweep_equals_transposed_sweep(rng, name):
    step = STEPS[name]
    for _ in range(10):
        V, W, H = random_triple(rng)
        V[0, :] = 0.0  # an empty data row exercises the zero-row paths too
        state = SolverState.from_factors(W, H)
        step(V, state, 1e-9, h_first=True)
        flipped = SolverState.from_factors(H.T, W.T)
        step(V.T, flipped, 1e-9, h_first=False)
        np.testing.assert_allclose(flipped.H.T, state.W, rtol=1e-12)
        np.testing.assert_allclose(flipped.W.T, state.H, rtol=1e-12)
        np.testing.assert_allclose(flipped.WH.T, state.WH, rtol=1e-12)
        np.testing.assert_allclose(flipped.col_sums_W, state.row_sums_H, rtol=1e-12)
        np.testing.assert_allclose(flipped.row_sums_H, state.col_sums_W, rtol=1e-12)


def test_transposed_state_shares_arrays():
    state = SolverState.from_factors(np.ones((3, 2)), np.ones((2, 4)))
    flipped = state.T
    flipped.H[...] = 2.0
    flipped.col_sums_W[...] = 5.0
    np.testing.assert_array_equal(state.W, 2.0)
    np.testing.assert_array_equal(state.row_sums_H, 5.0)
    assert flipped.WH.shape == (4, 3)


def zero_product_at_0_2():
    """Positive 3x4 data whose cached product vanishes only at (0, 2)."""
    V = np.ones((3, 4))
    state = SolverState.from_factors(np.ones((3, 2)), np.ones((2, 4)))
    state.WH[0, 2] = 0.0
    return V, state


class TestErrorPositions:
    def test_mu_update_w(self):
        V, state = zero_product_at_0_2()
        with pytest.raises(NonDifferentiableError, match=r"\(0, 2\)"):
            mu_update_W(V, state.W, state.H, state.WH, epsilon=0.0)

    @pytest.mark.parametrize("step", [mu_step, bmd_step, sn_sweep])
    def test_w_half_first(self, step):
        V, state = zero_product_at_0_2()
        with pytest.raises(NonDifferentiableError, match=r"\(0, 2\)"):
            step(V, state, 0.0, h_first=False)

    def test_bmd_denominator_names_w_entry(self):
        V = np.ones((3, 4))
        state = SolverState.from_factors(np.ones((3, 2)), np.ones((2, 4)))
        state.row_sums_H[1] = -1e3  # an inconsistent cache breaks the bound
        with pytest.raises(RuntimeError, match=r"W entry \(0, 1\)"):
            bmd_step(V, state, 0.0, h_first=False)
