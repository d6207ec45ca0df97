import math
import warnings

import numpy as np
import pytest

from klnmf import (DegenerateInputError, ExtendedObjective, RunResult,
                   RunTrace, TraceSample, excess_error_curves, group_min_error,
                   median_curve, performance_profile, ranking_vectors,
                   summary_stats)


def trace(run_id, solver, points, matrix_id="m0", init_id="i0"):
    samples = tuple(
        TraceSample(t, ExtendedObjective.finite(v) if math.isfinite(v)
                    else ExtendedObjective.infinite(), v)
        for t, v in points)
    return RunTrace(run_id=run_id, solver=solver, matrix_id=matrix_id,
                    init_id=init_id, samples=samples)


def result(solver, error, time=1.0, matrix_id="m0", init_id="i0",
           label="class-a", failure=None):
    return RunResult(run_id=f"{matrix_id}-{init_id}-{solver}", solver=solver,
                     matrix_id=matrix_id, init_id=init_id, class_label=label,
                     final_error=error, time_to_final=time, failure=failure)


class TestRunTrace:
    def test_requires_samples_and_increasing_times(self):
        with pytest.raises(ValueError):
            trace("r", "mu", [])
        with pytest.raises(ValueError):
            trace("r", "mu", [(0.0, 1.0), (0.0, 0.5)])

    def test_best_error_and_time_to_best(self):
        t = trace("r", "ccd", [(0.0, 1.0), (1.0, 0.25), (2.0, 0.4), (3.0, 0.25)])
        assert t.best_error == 0.25
        assert t.time_to_best == 1.0


class TestExcessCurves:
    def test_single_trace_touches_zero(self):
        t = trace("r", "mu", [(0.0, 1.0), (1.0, 0.5)])
        shift, curves = excess_error_curves([t])
        assert shift == 0.5
        times, values = curves[0]
        assert values.min() == 0.0

    def test_group_minimum_shared(self):
        a = trace("a", "mu", [(0.0, 1.0), (1.0, 0.5)])
        b = trace("b", "bmd", [(0.0, 1.0), (1.0, 0.3)])
        shift, curves = excess_error_curves([a, b])
        assert shift == 0.3
        np.testing.assert_allclose(curves[0][1], [0.7, 0.2])
        np.testing.assert_allclose(curves[1][1], [0.7, 0.0])
        assert min(c[1].min() for c in curves) == 0.0

    def test_running_best_flattens_oscillation(self):
        t = trace("r", "ccd", [(0.0, 1.0), (1.0, 0.2), (2.0, 0.6)])
        _, curves = excess_error_curves([t], running_best=True)
        np.testing.assert_allclose(curves[0][1], [0.8, 0.0, 0.0])

    def test_all_infinite_group_rejected(self):
        t = trace("r", "mu", [(0.0, math.inf)])
        with pytest.raises(DegenerateInputError):
            group_min_error([t])


class TestMedianCurve:
    def test_single_curve_resampled(self):
        curve = (np.array([0.0, 1.0, 2.0]), np.array([3.0, 2.0, 1.0]))
        grid = np.array([0.0, 0.5, 1.0, 1.5, 2.5])
        np.testing.assert_allclose(median_curve([curve], grid),
                                   [3.0, 3.0, 2.0, 2.0, 1.0])

    def test_three_constant_curves(self):
        curves = [(np.array([0.0]), np.array([v])) for v in (1.0, 2.0, 3.0)]
        grid = np.linspace(0.0, 1.0, 5)
        np.testing.assert_allclose(median_curve(curves, grid), 2.0)

    def test_permutation_invariant(self, rng):
        curves = [(np.sort(rng.random(4)), rng.random(4)) for _ in range(5)]
        grid = np.linspace(0.0, 1.0, 7)
        base = median_curve(curves, grid)
        perm = [curves[i] for i in rng.permutation(5)]
        np.testing.assert_array_equal(median_curve(perm, grid), base)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            median_curve([(np.array([0.0]), np.array([1.0]))], [])


class TestRanking:
    def test_two_solver_example(self):
        results = [result("mu", 0.1), result("bmd", 0.2)]
        assert ranking_vectors(results) == {"mu": [1, 0], "bmd": [0, 1]}

    def test_exact_ties_fall_back_to_name_order(self):
        results = [result("mu", 0.1, time=1.0), result("bmd", 0.1, time=1.0)]
        assert ranking_vectors(results) == {"bmd": [1, 0], "mu": [0, 1]}

    def test_time_breaks_ties_before_name(self):
        results = [result("mu", 0.1, time=0.5), result("bmd", 0.1, time=1.0)]
        assert ranking_vectors(results) == {"mu": [1, 0], "bmd": [0, 1]}

    def test_positionwise_sums_equal_group_count(self, rng):
        solvers = ["mu", "bmd", "sn"]
        results = []
        for g in range(7):
            for s in solvers:
                results.append(result(s, float(rng.random()),
                                      matrix_id=f"m{g}", init_id="i0"))
        vectors = ranking_vectors(results)
        totals = np.sum([vectors[s] for s in solvers], axis=0)
        np.testing.assert_array_equal(totals, [7, 7, 7])

    def test_missing_solver_rejected(self):
        results = [result("mu", 0.1),
                   result("mu", 0.2, matrix_id="m1"),
                   result("bmd", 0.3, matrix_id="m1")]
        with pytest.raises(ValueError, match="missing solver"):
            ranking_vectors(results)

    def test_failed_runs_sort_last(self):
        results = [result("mu", math.inf, failure="boom"), result("bmd", 5.0)]
        assert ranking_vectors(results) == {"bmd": [1, 0], "mu": [0, 1]}


class TestPerformanceProfile:
    def test_single_solver_is_always_best(self):
        results = [result("mu", 0.5), result("mu", 0.7, matrix_id="m1")]
        profile = performance_profile(results, [0.0, 1.0])
        np.testing.assert_array_equal(profile["mu"], [1.0, 1.0])

    def test_non_decreasing_and_capped(self, rng):
        results = []
        for g in range(6):
            for s in ("mu", "bmd", "sn"):
                results.append(result(s, float(rng.random()),
                                      matrix_id=f"m{g}"))
        profile = performance_profile(results, np.linspace(0, 1, 11))
        for curve in profile.values():
            assert np.all(np.diff(curve) >= 0)
            assert np.all(curve <= 1.0)
            assert curve[-1] == 1.0  # rho spans every excess here

    def test_profile_at_zero_covers_first_places(self, rng):
        results = []
        for g in range(10):
            for s in ("mu", "bmd"):
                results.append(result(s, float(rng.random()),
                                      matrix_id=f"m{g}"))
        vectors = ranking_vectors(results)
        profile = performance_profile(results, [0.0])
        groups = 10
        for s in ("mu", "bmd"):
            assert vectors[s][0] / groups <= profile[s][0] + 1e-12

    def test_failures_never_qualify(self):
        results = [result("mu", math.inf, failure="x"), result("bmd", 1.0)]
        profile = performance_profile(results, [0.0, 100.0])
        np.testing.assert_array_equal(profile["mu"], [0.0, 0.0])
        np.testing.assert_array_equal(profile["bmd"], [1.0, 1.0])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            performance_profile([result("mu", 0.1)], [])


class TestSummaryStats:
    def test_identical_errors_zero_std(self):
        results = [result("mu", 0.4, matrix_id=f"m{i}") for i in range(3)]
        stats = summary_stats(results)
        mean, std = stats["class-a"]["mu"]
        assert mean == 0.4 and std == 0.0

    def test_hand_mean_and_std(self):
        results = [result("mu", 1.0), result("mu", 3.0, matrix_id="m1")]
        mean, std = summary_stats(results)["class-a"]["mu"]
        assert mean == 2.0
        assert std == pytest.approx(math.sqrt(2.0))

    def test_location_equivariance(self):
        base = [result("mu", 1.0), result("mu", 3.0, matrix_id="m1")]
        shifted = [result("mu", 1.5), result("mu", 3.5, matrix_id="m1")]
        m0, s0 = summary_stats(base)["class-a"]["mu"]
        m1, s1 = summary_stats(shifted)["class-a"]["mu"]
        assert m1 == pytest.approx(m0 + 0.5)
        assert s1 == pytest.approx(s0)

    def test_single_run_has_nan_std(self):
        mean, std = summary_stats([result("mu", 0.7)])["class-a"]["mu"]
        assert mean == 0.7 and math.isnan(std)

    def test_failed_and_finished_runs_have_infinite_mean(self):
        # A failed run has an infinite error; its deviation from an infinite
        # mean is undefined, and computing it would warn on inf - inf.
        results = [result("mu", math.inf), result("mu", 0.5, matrix_id="m1")]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mean, std = summary_stats(results)["class-a"]["mu"]
        assert mean == math.inf and math.isnan(std)

    def test_classes_kept_separate(self):
        results = [result("mu", 1.0, label="class-a"),
                   result("mu", 2.0, matrix_id="m1", label="class-b")]
        stats = summary_stats(results)
        assert stats["class-a"]["mu"][0] == 1.0
        assert stats["class-b"]["mu"][0] == 2.0
