import dataclasses
import math
import operator
import pickle

import numpy as np
import pytest

import oracles
from klnmf import (DegenerateInputError, ExtendedObjective, KLObjective,
                   NonDifferentiableError, ShapeError, grad_H, grad_W,
                   kkt_residual, kl_divergence, kl_normalizer, optimal_scale,
                   perturbation_bound, relative_error)
from conftest import random_triple


class TestExtendedObjective:
    def test_states_and_ordering(self):
        fin = ExtendedObjective.finite(1.5)
        inf = ExtendedObjective.infinite()
        assert fin.is_finite and not inf.is_finite
        assert fin < inf
        assert fin.value == 1.5
        assert inf.as_float() == math.inf
        with pytest.raises(ValueError):
            inf.value

    def test_rejects_nan_and_negative_infinity(self):
        with pytest.raises(ValueError):
            ExtendedObjective(math.nan)
        with pytest.raises(ValueError):
            ExtendedObjective(-math.inf)
        with pytest.raises(ValueError):
            ExtendedObjective.finite(math.inf)

    def test_equality_order_and_hash_compare_the_value(self):
        two, also_two = ExtendedObjective.finite(2.0), ExtendedObjective(2)
        inf = ExtendedObjective.infinite()
        assert two == also_two and hash(two) == hash(also_two)
        assert inf == ExtendedObjective(math.inf)
        assert hash(inf) == hash(ExtendedObjective.infinite())
        assert two != inf and two != 2.0
        assert two <= also_two and two <= inf and not inf <= two
        assert inf > two and inf >= inf
        assert len({two, also_two, inf}) == 2

    def test_repr_of_both_states(self):
        assert repr(ExtendedObjective.finite(0.25)) == "ExtendedObjective(0.25)"
        assert repr(ExtendedObjective.infinite()) == "ExtendedObjective(+inf)"

    @pytest.mark.parametrize("compare", [operator.lt, operator.le,
                                         operator.gt, operator.ge])
    def test_ordering_against_a_float_raises(self, compare):
        with pytest.raises(TypeError):
            compare(ExtendedObjective.finite(1.0), 2.0)
        with pytest.raises(TypeError):
            compare(2.0, ExtendedObjective.infinite())

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExtendedObjective.finite(1.0)._value = 2.0

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        # Trace samples cross process boundaries in execute(workers=2).
        for obj in (ExtendedObjective.finite(-1e-17), ExtendedObjective.infinite()):
            again = pickle.loads(pickle.dumps(obj, protocol=protocol))
            assert again == obj and repr(again) == repr(obj)
            assert again.as_float() == obj.as_float()


class TestKLDivergence:
    def test_exact_fit_is_zero(self):
        W = [[1.0], [1.0]]
        H = [[1.0, 2.0]]
        V = [[1.0, 2.0], [1.0, 2.0]]
        assert kl_divergence(V, W, H).value == 0.0

    def test_scalar_closed_form(self):
        obj = kl_divergence([[1.0]], [[1.0]], [[math.e]])
        assert obj.value == pytest.approx(math.e - 2.0, rel=1e-12)

    def test_positive_data_zero_product_is_infinite(self):
        obj = kl_divergence([[2.0]], [[0.0]], [[1.0]])
        assert not obj.is_finite

    def test_zero_data_keeps_product_term(self):
        obj = kl_divergence([[0.0]], [[1.0]], [[3.0]])
        assert obj.value == 3.0

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            kl_divergence(np.ones((2, 2)), np.ones((2, 1)), np.ones((1, 3)))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence([[math.nan]], [[1.0]], [[1.0]])

    def test_matches_naive_summation(self, rng):
        for _ in range(50):
            V, W, H = random_triple(rng)
            got = kl_divergence(V, W, H).value
            want = oracles.kl_naive(V, W, H)
            assert got == pytest.approx(want, rel=1e-11, abs=1e-11)

    def test_nonnegative_up_to_roundoff(self, rng):
        for _ in range(100):
            V, W, H = random_triple(rng)
            obj = kl_divergence(V, W, H)
            assert obj.value >= -1e-12 * (1.0 + V.sum())

    def test_transpose_symmetry(self, rng):
        for _ in range(50):
            V, W, H = random_triple(rng)
            a = kl_divergence(V, W, H).value
            b = kl_divergence(V.T, H.T, W.T).value
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_evaluator_agrees_with_public_op(self, rng):
        V, W, H = random_triple(rng)
        cache = KLObjective(V)
        assert cache.of_product(W @ H).value == pytest.approx(
            kl_divergence(V, W, H).value, rel=1e-12, abs=1e-12)


class TestRelativeError:
    def test_hand_denominator(self):
        V = np.array([[1.0, 3.0]])
        want = 1.0 * math.log(1.0 / 2.0) + 3.0 * math.log(3.0 / 2.0)
        assert kl_normalizer(V) == pytest.approx(want, rel=1e-12)
        assert kl_normalizer(V) == pytest.approx(
            oracles.kl_normalizer_naive(V), rel=1e-12)
        rel = relative_error(V, [[1.0]], [[1.0, 3.0]])
        assert rel.value == 0.0 and not rel.degenerate

    def test_uniform_data_degenerates(self):
        V = np.full((3, 4), 2.0)
        rel = relative_error(V, np.ones((3, 1)), np.ones((1, 4)))
        assert rel.degenerate
        assert rel.value == pytest.approx(
            kl_divergence(V, np.ones((3, 1)), np.ones((1, 4))).value)

    def test_quotient_matches_oracles(self):
        V = np.array([[1.0, 3.0]])
        W = np.array([[2.0]])
        H = np.array([[1.0, 1.0]])
        want = oracles.kl_naive(V, W, H) / oracles.kl_normalizer_naive(V)
        assert relative_error(V, W, H).value == pytest.approx(want, rel=1e-12)

    def test_infinite_objective_propagates(self):
        rel = relative_error([[1.0, 3.0]], [[0.0]], [[1.0, 1.0]])
        assert rel.value == math.inf and not rel.degenerate


class TestOptimalScale:
    def test_ratio_of_sums(self):
        assert optimal_scale([[2.0]], [[1.0]], [[1.0]]) == 2.0

    def test_scaled_iff_sums_equal(self, rng):
        for _ in range(20):
            V, W, H = random_triple(rng)
            alpha = optimal_scale(V, W, H)
            scaled = optimal_scale(V, W * alpha, H)
            assert scaled == pytest.approx(1.0, rel=1e-12)
            assert (W * alpha @ H).sum() == pytest.approx(V.sum(), rel=1e-12)

    def test_matches_golden_section(self, rng):
        V = np.full((2, 2), 1.0)
        W = np.full((2, 1), 0.5)
        H = np.full((1, 2), 1.0)
        assert optimal_scale(V, W, H) == pytest.approx(2.0, rel=1e-12)
        assert oracles.best_scale(V, W, H) == pytest.approx(2.0, rel=1e-6)
        for _ in range(5):
            V, W, H = random_triple(rng)
            V = V + 0.05  # keep the 1-D problem well-conditioned
            assert optimal_scale(V, W, H) == pytest.approx(
                oracles.best_scale(V, W, H), rel=1e-6)

    def test_scaling_never_hurts(self, rng):
        for _ in range(50):
            V, W, H = random_triple(rng)
            alpha = optimal_scale(V, W, H)
            before = kl_divergence(V, W, H).value
            after = kl_divergence(V, W * alpha, H).value
            assert after <= before + 1e-10 * (1.0 + abs(before))

    def test_zero_product_rejected(self):
        with pytest.raises(DegenerateInputError):
            optimal_scale([[1.0]], [[0.0]], [[0.0]])


class TestGradients:
    def test_zero_at_exact_fit(self):
        W = np.array([[1.0], [2.0]])
        H = np.array([[1.0, 3.0]])
        V = W @ H
        np.testing.assert_allclose(grad_W(V, W, H), 0.0, atol=1e-12)
        np.testing.assert_allclose(grad_H(V, W, H), 0.0, atol=1e-12)

    def test_hand_value(self):
        g = grad_W([[4.0]], [[1.0]], [[2.0]])
        assert g[0, 0] == pytest.approx(-2.0, rel=1e-12)

    def test_matches_finite_differences(self, rng):
        checked = 0
        while checked < 100:
            V, W, H = random_triple(rng)
            gw = grad_W(V, W, H)
            gh = grad_H(V, W, H)
            fw = oracles.fd_gradient(lambda X: oracles.kl_naive(V, X, H), W)
            fh = oracles.fd_gradient(lambda X: oracles.kl_naive(V, W, X), H)
            scale_w = np.maximum(np.abs(fw), 1.0)
            scale_h = np.maximum(np.abs(fh), 1.0)
            assert np.all(np.abs(gw - fw) / scale_w <= 1e-5)
            assert np.all(np.abs(gh - fh) / scale_h <= 1e-5)
            checked += gw.size + gh.size

    def test_non_differentiable_point_raises(self):
        with pytest.raises(NonDifferentiableError):
            grad_W([[1.0]], [[0.0]], [[1.0]])


class TestKKTResidual:
    def test_zero_at_exact_interior_fit(self):
        W = np.array([[1.0], [2.0]])
        H = np.array([[1.0, 3.0]])
        assert kkt_residual(W @ H, W, H, epsilon=0.0) == 0.0

    def test_entry_at_bound_with_ascent_gradient_is_compliant(self):
        # One variable pinned at the bound with positive derivative: both
        # aggregation terms vanish there.
        V = np.array([[0.0, 2.0]])
        W = np.array([[1.0]])
        H = np.array([[0.0, 2.0]])
        # d/dH[0,0] = W.sum() - 0 = 1 > 0 at H[0,0] = 0 = epsilon
        assert kkt_residual(V, W, H, epsilon=0.0) == pytest.approx(0.0, abs=1e-12)

    def test_interior_descent_gradient_counts_twice(self):
        # g = -2 at x - eps = 1 contributes max(2, |1 * -2|) = 2.
        V = np.array([[4.0]])
        W = np.array([[1.0]])
        H = np.array([[2.0]])
        # grad_W = -2 with W - eps = 1 at eps = 0; grad_H = 1 - 4/2 = -1.
        assert kkt_residual(V, W, H, epsilon=0.0) == pytest.approx(2.0)

    def test_non_differentiable_returns_infinity(self):
        assert kkt_residual([[1.0]], [[0.0]], [[1.0]]) == math.inf


class TestPerturbationBound:
    def test_paper_formula_smallest_case(self):
        # (min{n+mr, m+nr} * sqrt(nu) + m*n*eps) * eps with m=n=r=1, nu=1:
        # (2 + 0.1) * 0.1
        assert perturbation_bound([[1.0]], 1, 0.1) == pytest.approx(0.21)

    def test_zero_epsilon(self):
        assert perturbation_bound([[1.0, 2.0]], 1, 0.0) == 0.0

    def test_rectangular_case(self):
        V = np.full((2, 3), 4.0 / 6.0)  # nu = 4
        got = perturbation_bound(V, 1, 0.5)
        assert got == pytest.approx((5 * 2 + 6 * 0.5) * 0.5)
        assert got == pytest.approx(6.5)


class TestScaleInvariance:
    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_relative_error_ignores_data_scale(self, rng, scale):
        V = rng.poisson(3.0, size=(40, 30)).astype(float)
        W = rng.uniform(0.2, 1.0, size=(40, 4))
        H = rng.uniform(0.2, 1.0, size=(4, 30))
        want = relative_error(V, W, H)
        got = relative_error(scale * V, scale * W, H)
        assert not want.degenerate and not got.degenerate
        assert got.value == pytest.approx(want.value, rel=1e-9)

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_uniform_data_degenerates_at_any_scale(self, scale):
        V = np.full((3, 4), 2.0 * scale)
        rel = relative_error(V, np.full((3, 1), scale), np.ones((1, 4)))
        assert rel.degenerate
