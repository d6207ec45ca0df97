import numpy as np
import pytest

import oracles
from conftest import random_triple
from klnmf import (DegenerateInputError, KLObjective, SolverState,
                   kl_divergence, mu_majorizer, mu_step, mu_update_H,
                   mu_update_W)


def make_state(W, H):
    return SolverState.from_factors(W, H)


class TestMuStep:
    def test_exact_fit_is_fixed_point(self):
        W = np.array([[1.0], [2.0]])
        H = np.array([[1.0, 3.0]])
        state = make_state(W, H)
        mu_step(W @ H, state, epsilon=0.0)
        np.testing.assert_allclose(state.W, W, rtol=1e-14)
        np.testing.assert_allclose(state.H, H, rtol=1e-14)

    def test_hand_worked_identity_like_case(self):
        V = np.array([[2.0, 0.0], [0.0, 2.0]])
        W = np.array([[1.0], [1.0]])
        H = np.array([[1.0, 1.0]])
        state = make_state(W, H)
        mu_step(V, state, epsilon=0.0)
        np.testing.assert_allclose(state.H, [[1.0, 1.0]], rtol=1e-14)
        np.testing.assert_allclose(state.W, [[1.0], [1.0]], rtol=1e-14)

    def test_matches_scalar_formula(self, rng):
        for _ in range(20):
            V, W, H = random_triple(rng)
            got = mu_update_H(V, W, H, W @ H, epsilon=0.0)
            want = oracles.mu_scalar_form(V, W, H, epsilon=0.0)
            np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("density", [1.0, 0.6])
    def test_step_on_dense_data_is_bitwise_the_two_half_updates(self, rng,
                                                                density):
        V, W, H = random_triple(rng, m=6, n=5, r=3)
        V = V + 0.5
        # Exactly that share of the entries stays nonzero.
        V.flat[rng.permutation(V.size)[round(density * V.size):]] = 0.0
        assert KLObjective(V).support.dense
        state = make_state(W, H)
        mu_step(V, state, epsilon=1e-9)
        want_H = mu_update_H(V, W, H, W @ H, epsilon=1e-9)
        want_W = mu_update_W(V, W, want_H, W @ want_H, epsilon=1e-9)
        np.testing.assert_array_equal(state.H, want_H)
        np.testing.assert_array_equal(state.W, want_W)

    def test_monotone_on_random_instances(self, rng):
        for _ in range(30):
            V, W, H = random_triple(rng)
            state = make_state(W, H)
            before = kl_divergence(V, W, H).value
            mu_step(V, state, epsilon=0.0)
            after = kl_divergence(V, state.W, state.H).value
            assert after <= before * (1 + 1e-12) + 1e-12

    def test_column_sums_preserved_after_h_update(self, rng):
        for _ in range(20):
            V, W, H = random_triple(rng)
            Hnew = mu_update_H(V, W, H, W @ H, epsilon=0.0)
            np.testing.assert_allclose((W @ Hnew).sum(axis=0), V.sum(axis=0),
                                       rtol=1e-10)

    def test_row_sums_preserved_after_w_update(self, rng):
        for _ in range(20):
            V, W, H = random_triple(rng)
            Wnew = mu_update_W(V, W, H, W @ H, epsilon=0.0)
            np.testing.assert_allclose((Wnew @ H).sum(axis=1), V.sum(axis=1),
                                       rtol=1e-10)

    def test_zero_column_of_w_names_index(self):
        V = np.ones((2, 2))
        W = np.array([[1.0, 0.0], [1.0, 0.0]])
        H = np.ones((2, 2))
        with pytest.raises(DegenerateInputError, match="column 1 of W"):
            mu_update_H(V, W, H, W @ H, epsilon=0.0)

    def test_zero_row_of_h_names_index(self):
        V = np.ones((2, 2))
        W = np.ones((2, 2))
        H = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DegenerateInputError, match="row 0 of H"):
            mu_update_W(V, W, H, W @ H, epsilon=0.0)

    def test_epsilon_clamps_entries(self, rng):
        V, W, H = random_triple(rng)
        V[:, 0] = 0.0  # drives the first column of H to the bound
        Hnew = mu_update_H(V, W, H, W @ H, epsilon=1e-6)
        assert Hnew.min() >= 1e-6


class TestMuMajorizer:
    @staticmethod
    def column_problem(rng, m=4, r=3):
        W = rng.uniform(0.05, 2.0, size=(m, r))
        h = rng.uniform(0.1, 2.0, size=r)
        v = rng.uniform(0.0, 3.0, size=m)
        return v, W, h

    @staticmethod
    def column_kl(v, W, h):
        return oracles.kl_naive(v.reshape(-1, 1), W, h.reshape(-1, 1))

    def test_tangency(self, rng):
        for _ in range(50):
            v, W, h = self.column_problem(rng)
            assert mu_majorizer(h, h, v, W) == pytest.approx(
                self.column_kl(v, W, h), rel=1e-12, abs=1e-12)

    def test_domination(self, rng):
        for _ in range(100):
            v, W, h = self.column_problem(rng)
            other = rng.uniform(0.05, 3.0, size=h.size)
            surrogate = mu_majorizer(other, h, v, W)
            actual = self.column_kl(v, W, other)
            assert surrogate >= actual - 1e-12 * (1.0 + abs(actual))

    def test_update_minimizes_surrogate(self, rng):
        for _ in range(30):
            v, W, h = self.column_problem(rng)
            updated = oracles.mu_scalar_form(
                v.reshape(-1, 1), W, h.reshape(-1, 1), epsilon=0.0).reshape(-1)
            if updated.min() <= 1e-12:
                continue
            at_update = mu_majorizer(updated, h, v, W)
            at_ref = mu_majorizer(h, h, v, W)
            assert at_update <= at_ref + 1e-12 * (1.0 + abs(at_ref))
            # interior minimizer: surrogate gradient vanishes there
            grad = oracles.fd_gradient(
                lambda x: mu_majorizer(x.reshape(-1), h, v, W),
                updated.reshape(1, -1), step=1e-7).reshape(-1)
            assert np.max(np.abs(grad)) <= 1e-5
            # and the sandwich forces descent of the true objective
            assert self.column_kl(v, W, updated) <= self.column_kl(v, W, h) + 1e-12

    def test_zero_reference_product_rejected(self):
        with pytest.raises(ValueError):
            mu_majorizer([1.0], [0.0], [2.0], [[1.0]])

    def test_nonpositive_log_argument_rejected(self):
        with pytest.raises(ValueError, match="log"):
            mu_majorizer([0.0], [1.0], [2.0], [[1.0]])
