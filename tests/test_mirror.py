import numpy as np
import pytest

import oracles
from conftest import random_triple
from klnmf import (DegenerateInputError, KLObjective, SolverState, bmd_step,
                   bmd_update_column, kl_divergence)


class TestBmdUpdateColumn:
    def test_exact_fit_is_fixed_point(self):
        W = np.array([[1.0, 0.5], [0.2, 2.0]])
        h = np.array([1.0, 2.0])
        v = W @ h
        out = bmd_update_column(v, W, h, L=float(v.sum()), epsilon=0.0)
        np.testing.assert_allclose(out, h, rtol=1e-14)

    def test_hand_scalar_case_reaches_fit_in_one_step(self):
        # g = 2 - 4*2/2 = -2, denom = 1 + (1/4)*1*(-2) = 1/2, h -> 2.
        out = bmd_update_column([4.0], [[2.0]], [1.0], L=4.0, epsilon=0.0)
        assert out[0] == pytest.approx(2.0, rel=1e-14)

    def test_matches_grid_refinement_oracle(self, rng):
        for _ in range(25):
            m = int(rng.integers(2, 6))
            r = int(rng.integers(1, 4))
            W = rng.uniform(0.05, 2.0, size=(m, r))
            h = rng.uniform(0.1, 2.0, size=r)
            v = rng.uniform(0.1, 3.0, size=m)
            L = float(np.abs(v).sum())
            got = bmd_update_column(v, W, h, L, epsilon=1e-9)
            want = oracles.mirror_argmin_grid(h, v, W, L, epsilon=1e-9)
            np.testing.assert_allclose(got, want, rtol=1e-6)

    def test_update_lowers_mirror_model(self, rng):
        for _ in range(20):
            m, r = 4, 3
            W = rng.uniform(0.05, 2.0, size=(m, r))
            h = rng.uniform(0.1, 2.0, size=r)
            v = rng.uniform(0.1, 3.0, size=m)
            L = float(v.sum())
            out = bmd_update_column(v, W, h, L, epsilon=0.0)
            before = oracles.mirror_objective(h, h, v, W, L)
            after = oracles.mirror_objective(out, h, v, W, L)
            assert after <= before + 1e-12

    def test_denominator_lower_bound_holds(self, rng):
        # 1 + h*g/L >= h*colsum/L whenever the dictionary column is nonzero.
        for _ in range(100):
            m = int(rng.integers(1, 6))
            r = int(rng.integers(1, 4))
            W = rng.uniform(0.0, 2.0, size=(m, r))
            h = rng.uniform(0.05, 2.0, size=r)
            v = rng.uniform(0.0, 3.0, size=m)
            L = float(v.sum())
            if L <= 0:
                continue
            Wh = W @ h
            ratio = np.where(v > 0, v / np.maximum(Wh, 1e-300), 0.0)
            g = W.sum(axis=0) - W.T @ ratio
            denom = 1.0 + h * g / L
            bound = h * W.sum(axis=0) / L
            assert np.all(denom >= bound - 1e-12)
            bmd_update_column(v, W, h, L, epsilon=0.0)  # must not trip

    def test_zero_data_column_rejected(self):
        with pytest.raises(DegenerateInputError):
            bmd_update_column([0.0, 0.0], [[1.0], [1.0]], [1.0], L=0.0,
                              epsilon=1e-9)


class TestBmdStep:
    def test_exact_fit_is_fixed_point(self):
        W = np.array([[1.0, 0.5], [0.2, 2.0]])
        H = np.array([[1.0, 2.0], [0.5, 0.1]])
        state = SolverState.from_factors(W, H)
        bmd_step(W @ H, state, epsilon=0.0)
        np.testing.assert_allclose(state.W, W, rtol=1e-13)
        np.testing.assert_allclose(state.H, H, rtol=1e-13)

    def test_monotone_on_random_instances(self, rng):
        for _ in range(30):
            V, W, H = random_triple(rng)
            state = SolverState.from_factors(W, H)
            before = kl_divergence(V, W, H).value
            bmd_step(V, state, epsilon=1e-9)
            after = kl_divergence(V, state.W, state.H).value
            assert after <= before * (1 + 1e-12) + 1e-12

    def test_step_equals_columnwise_updates(self, rng):
        V, W, H = random_triple(rng, m=5, n=4, r=3)
        assert KLObjective(V).dense  # the ratio is one whole-matrix divide
        state = SolverState.from_factors(W, H)
        bmd_step(V, state, epsilon=1e-9, h_first=True)
        # replay the H half column by column against the same W
        expected_H = np.column_stack([
            bmd_update_column(V[:, j], W, H[:, j], float(V[:, j].sum()), 1e-9)
            for j in range(V.shape[1])
        ])
        np.testing.assert_allclose(state.H, expected_H, rtol=1e-12)

    def test_step_with_empty_lines_equals_row_and_column_updates(self, rng):
        # A zero data row and a zero data column: the H half runs with a dead
        # column and the W half with a dead row, every other entry against
        # the single-column step, the W half on the transposed problem.
        V, W, H = random_triple(rng, m=5, n=4, r=2)
        V[1, :] = 0.0
        V[:, 2] = 0.0
        assert KLObjective(V).dense  # 60% nonzero
        state = SolverState.from_factors(W, H)
        bmd_step(V, state, epsilon=1e-9)

        def replay(V, W, H):
            return np.column_stack([
                bmd_update_column(V[:, j], W, H[:, j], float(V[:, j].sum()), 1e-9)
                if V[:, j].any() else np.full(H.shape[0], 1e-9)
                for j in range(V.shape[1])])

        want_H = replay(V, W, H)
        want_W = replay(V.T, want_H.T, W.T).T
        np.testing.assert_allclose(state.H, want_H, rtol=1e-12)
        np.testing.assert_allclose(state.W, want_W, rtol=1e-12)
        np.testing.assert_array_equal(state.H[:, 2], 1e-9)
        np.testing.assert_array_equal(state.W[1, :], 1e-9)

    def test_denominator_error_names_its_entry(self):
        # Column 0 has no data, so its denominator is 1 whatever the cache;
        # the first live entry where the bound breaks is (1, 1). A step
        # constant below the column's 1-norm breaks it with every column
        # live.
        V = np.ones((3, 4))
        V[:, 0] = 0.0
        state = SolverState.from_factors(np.ones((3, 2)), np.ones((2, 4)))
        state.col_sums_W[1] = -1e3  # an inconsistent cache breaks the bound
        with pytest.raises(RuntimeError, match=r"H entry \(1, 1\)"):
            bmd_step(V, state, 0.0)
        with pytest.raises(RuntimeError, match=r"H entry \(0, 0\)"):
            bmd_update_column([40.0], [[2.0]], [1.0], L=2.0, epsilon=0.0)

    def test_denominator_error_prints_a_plain_float(self):
        # g = 2 - 2*40/2 = -38, denom = 1 + 1*(-38)/2 = -18.
        with pytest.raises(RuntimeError,
                           match=r"denominator -18\.0 at H entry \(0, 0\)"):
            bmd_update_column([40.0], [[2.0]], [1.0], L=2.0, epsilon=0.0)

    def test_zero_data_column_sets_epsilon(self, rng):
        V, W, H = random_triple(rng, m=4, n=4, r=2)
        V[:, 2] = 0.0
        state = SolverState.from_factors(W, H)
        bmd_step(V, state, epsilon=1e-6)
        np.testing.assert_array_equal(state.H[:, 2], 1e-6)

    def test_settles_and_reaches_stationarity_small(self, rng):
        from klnmf import kkt_residual
        V = rng.uniform(0.2, 2.0, size=(6, 6))
        state = SolverState.from_factors(rng.uniform(0.5, 1.5, size=(6, 2)),
                                         rng.uniform(0.5, 1.5, size=(2, 6)))
        epsilon = 1e-6
        np.maximum(state.W, epsilon, out=state.W)
        np.maximum(state.H, epsilon, out=state.H)
        state.resync()
        settled = 0
        for _ in range(200000):
            prev_W, prev_H = state.W.copy(), state.H.copy()
            bmd_step(V, state, epsilon)
            delta = max(np.abs(state.W - prev_W).max(),
                        np.abs(state.H - prev_H).max())
            settled = settled + 1 if delta < 1e-6 else 0
            if settled >= 10:
                break
        assert settled >= 10, "iterates did not settle"
        assert kkt_residual(V, state.W, state.H, epsilon) <= 1e-4
