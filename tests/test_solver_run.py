import numpy as np
import pytest

from klnmf import (Factorization, MONOTONE_KINDS, NonnegMatrix,
                   ProblemInstance, SolverConfig, SolverState, SolverInitError,
                   SyntheticSpec, generate, init_random_scaled, kl_divergence,
                   mu_step, optimal_scale, run, snmu_step)
from klnmf.benchmark import _derived_seed
from klnmf.solver import MACHINE_EPS


def small_instance(rng, m=8, n=8, r=2):
    V = rng.uniform(0.1, 3.0, size=(m, n))
    instance = ProblemInstance(V=NonnegMatrix(V), rank=r)
    init = Factorization(NonnegMatrix(rng.uniform(0.2, 1.0, size=(m, r))),
                         NonnegMatrix(rng.uniform(0.2, 1.0, size=(r, n))))
    return instance, init


class TestSolverConfig:
    def test_valid_kinds_only(self):
        with pytest.raises(ValueError, match="mu, bmd, sn, snmu, ccd"):
            SolverConfig(kind="gradient")

    def test_epsilon_defaults_per_kind(self):
        assert SolverConfig(kind="mu").resolved_epsilon() == MACHINE_EPS
        assert SolverConfig(kind="bmd").resolved_epsilon() == MACHINE_EPS
        assert SolverConfig(kind="sn").resolved_epsilon() == 0.0
        assert SolverConfig(kind="ccd").resolved_epsilon() == MACHINE_EPS
        assert SolverConfig(kind="snmu").resolved_epsilon() == 0.0

    def test_instance_bound_wins_when_larger(self):
        assert SolverConfig(kind="mu").resolved_epsilon(1e-6) == 1e-6
        assert SolverConfig(kind="mu", epsilon=0.0).resolved_epsilon(1e-6) == 0.0

    def test_field_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(kind="mu", inner_repeats=0)
        with pytest.raises(ValueError):
            SolverConfig(kind="mu", snmu_cycle=(0, 1))
        with pytest.raises(ValueError):
            SolverConfig(kind="mu", record_every=0)
        with pytest.raises(ValueError):
            SolverConfig(kind="mu", objective_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(kind="mu", time_budget=-1.0)


class TestRun:
    def test_zero_time_budget_returns_init(self, rng):
        instance, init = small_instance(rng)
        config = SolverConfig(kind="mu", time_budget=0.0)
        pair, trace = run(instance, init, config)
        assert len(trace.samples) == 1
        np.testing.assert_array_equal(pair.W.values, init.W.values)
        np.testing.assert_array_equal(pair.H.values, init.H.values)

    @pytest.mark.parametrize("kind", MONOTONE_KINDS)
    def test_monotone_trace_and_increasing_timestamps(self, rng, kind):
        instance, init = small_instance(rng)
        config = SolverConfig(kind=kind, max_outer_iters=25)
        _, trace = run(instance, init, config)
        times = [s.elapsed_s for s in trace.samples]
        assert all(b > a for a, b in zip(times, times[1:]))
        objs = [s.objective.as_float() for s in trace.samples]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(objs, objs[1:]))

    def test_returns_best_iterate_not_last(self, rng):
        # CCD may overshoot; the returned pair must match the smallest
        # recorded objective even then.
        instance, init = small_instance(rng)
        config = SolverConfig(kind="ccd", max_outer_iters=30)
        pair, trace = run(instance, init, config)
        best = min(s.objective.as_float() for s in trace.samples)
        got = kl_divergence(instance.V, pair.W, pair.H).value
        assert got <= best * (1 + 1e-9) + 1e-12

    @pytest.mark.parametrize("density", [1.0, 0.3])
    @pytest.mark.parametrize("kind", ["mu", "bmd", "sn", "snmu", "ccd"])
    def test_trace_value_of_returned_iterate_is_fresh_evaluation(
            self, rng, kind, density):
        # The run evaluates its cached product and factor sums, a fresh
        # evaluation forms both from the factors: the bits must agree, on
        # the whole-matrix log pass (density 1) and on the gathered one.
        m, n, r = 30, 24, 3
        V = rng.poisson(3.0, (m, n)) * (rng.random((m, n)) < density) + 0.0
        instance = ProblemInstance(V=NonnegMatrix(V), rank=r)
        assert instance.V.support.dense == (density == 1.0)
        init = init_random_scaled(m, n, r, V, 5)
        pair, trace = run(instance, init,
                          SolverConfig(kind=kind, max_outer_iters=12))
        best = min(s.objective for s in trace.samples)
        assert kl_divergence(V, pair.W.values, pair.H.values) == best

    def test_infinite_init_objective_raises(self, rng):
        V = NonnegMatrix(np.ones((2, 2)))
        instance = ProblemInstance(V=V, rank=1)
        init = Factorization(NonnegMatrix(np.zeros((2, 1))),
                             NonnegMatrix(np.ones((1, 2))))
        config = SolverConfig(kind="sn", epsilon=0.0)
        with pytest.raises(SolverInitError, match="positive initialization"):
            run(instance, init, config)

    def test_init_clamped_with_warning(self, rng):
        instance, _ = small_instance(rng)
        init = Factorization(
            NonnegMatrix(np.full((8, 2), 0.5)),
            NonnegMatrix(np.vstack([np.zeros((1, 8)), np.full((1, 8), 0.5)])))
        config = SolverConfig(kind="mu", epsilon=1e-6, max_outer_iters=2)
        with pytest.warns(UserWarning, match="clamped"):
            pair, _ = run(instance, init, config)
        assert pair.W.values.min() >= 1e-6
        assert pair.H.values.min() >= 1e-6

    def test_record_every_thins_trace_but_keeps_final(self, rng):
        instance, init = small_instance(rng)
        config = SolverConfig(kind="mu", max_outer_iters=10, record_every=4)
        _, trace = run(instance, init, config)
        # initial + sweeps 4 and 8 + final sweep 10
        assert len(trace.samples) == 4

    def test_objective_tol_stops_early(self, rng):
        instance, init = small_instance(rng)
        config = SolverConfig(kind="mu", max_outer_iters=100000,
                              objective_tol=1e-4)
        _, trace = run(instance, init, config)
        assert len(trace.samples) - 1 < 1000

    def test_kkt_tol_stops_near_stationarity(self, rng):
        from klnmf import kkt_residual
        V = rng.uniform(0.5, 1.5, size=(5, 5))
        instance = ProblemInstance(V=NonnegMatrix(V), rank=5)
        init = Factorization(NonnegMatrix(rng.uniform(0.5, 1.0, (5, 5))),
                             NonnegMatrix(rng.uniform(0.5, 1.0, (5, 5))))
        config = SolverConfig(kind="sn", max_outer_iters=100000, kkt_tol=1e-6)
        pair, _ = run(instance, init, config)
        assert kkt_residual(V, pair.W.values, pair.H.values, 0.0) <= 1e-6

    def test_bmd_zero_epsilon_warns(self, rng):
        instance, init = small_instance(rng)
        config = SolverConfig(kind="bmd", epsilon=0.0, max_outer_iters=2)
        with pytest.warns(UserWarning, match="convergence guarantee"):
            run(instance, init, config)

    def test_shape_mismatch_rejected(self, rng):
        instance, _ = small_instance(rng)
        bad = Factorization(NonnegMatrix(np.ones((8, 3))),
                            NonnegMatrix(np.ones((3, 8))))
        with pytest.raises(SolverInitError):
            run(instance, bad, SolverConfig(kind="mu"))


class TestSnmuStep:
    def test_exact_fit_is_fixed_point(self):
        W = np.array([[1.0, 0.5], [0.2, 2.0]])
        H = np.array([[1.0, 2.0], [0.5, 0.1]])
        state = SolverState.from_factors(W, H)
        snmu_step(W @ H, state, epsilon=0.0)
        np.testing.assert_allclose(state.W, W, rtol=1e-12)
        np.testing.assert_allclose(state.H, H, rtol=1e-12)

    def test_scaled_after_multiplicative_tail(self, rng):
        V = rng.uniform(0.1, 3.0, size=(6, 6))
        state = SolverState.from_factors(rng.uniform(0.2, 1.0, size=(6, 2)),
                                         rng.uniform(0.2, 1.0, size=(2, 6)))
        snmu_step(V, state, epsilon=0.0)
        assert state.WH.sum() == pytest.approx(V.sum(), rel=1e-10)
        assert optimal_scale(V, state.W, state.H) == pytest.approx(1.0, rel=1e-10)

    def test_cycle_counts_respected(self, rng, monkeypatch):
        import klnmf.solver as solver_mod
        calls = {"sn": 0, "mu": 0}
        real_sn = solver_mod.sn_sweep
        real_mu = solver_mod.mu_step

        def count_sn(*args, **kwargs):
            calls["sn"] += 1
            return real_sn(*args, **kwargs)

        def count_mu(*args, **kwargs):
            calls["mu"] += 1
            return real_mu(*args, **kwargs)

        monkeypatch.setattr(solver_mod, "sn_sweep", count_sn)
        monkeypatch.setattr(solver_mod, "mu_step", count_mu)
        V = rng.uniform(0.1, 3.0, size=(4, 4))
        state = SolverState.from_factors(rng.uniform(0.2, 1.0, size=(4, 2)),
                                         rng.uniform(0.2, 1.0, size=(2, 4)))
        solver_mod.snmu_step(V, state, epsilon=0.0, cycle=(3, 2))
        assert calls == {"sn": 3, "mu": 2}

    def test_monotone_over_full_cycle(self, rng):
        for _ in range(10):
            V = rng.uniform(0.1, 3.0, size=(6, 5))
            state = SolverState.from_factors(
                rng.uniform(0.2, 1.0, size=(6, 2)),
                rng.uniform(0.2, 1.0, size=(2, 5)))
            before = kl_divergence(V, state.W, state.H).value
            snmu_step(V, state, epsilon=0.0)
            after = kl_divergence(V, state.W, state.H).value
            assert after <= before * (1 + 1e-12)


class TestStepDispatch:
    STEP_NAMES = {"mu": "mu_step", "bmd": "bmd_step", "sn": "sn_sweep",
                  "snmu": "snmu_step", "ccd": "ccd_sweep"}

    @pytest.mark.parametrize("kind", sorted(STEP_NAMES))
    def test_run_calls_the_step_of_its_kind(self, rng, monkeypatch, kind):
        import klnmf.solver as solver_mod
        name = self.STEP_NAMES[kind]
        real = getattr(solver_mod, name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver_mod, name, counting)
        instance, init = small_instance(rng)
        run(instance, init, SolverConfig(kind=kind, max_outer_iters=2))
        assert len(calls) == 2

    def test_snmu_stops_newton_sweeps_at_deadline(self, rng, monkeypatch):
        import klnmf.solver as solver_mod
        calls = {"sn": 0, "mu": 0}
        real_sn = solver_mod.sn_sweep
        real_mu = solver_mod.mu_step

        def count_sn(*args, **kwargs):
            calls["sn"] += 1
            return real_sn(*args, **kwargs)

        def count_mu(*args, **kwargs):
            calls["mu"] += 1
            return real_mu(*args, **kwargs)

        monkeypatch.setattr(solver_mod, "sn_sweep", count_sn)
        monkeypatch.setattr(solver_mod, "mu_step", count_mu)
        instance, init = small_instance(rng)
        _, trace = run(instance, init,
                       SolverConfig(kind="snmu", time_budget=1e-6))
        assert calls == {"sn": 1, "mu": 1}
        assert len(trace.samples) == 2


def sparse_instance(rng, m=9, n=7, r=3, mean=2.0):
    """Poisson data of the given ``mean`` with an empty row and column, and
    a positive init."""
    V = rng.poisson(mean, size=(m, n)).astype(float)
    V[1, :] = 0.0
    V[:, 2] = 0.0
    instance = ProblemInstance(V=NonnegMatrix(V), rank=r)
    init = Factorization(NonnegMatrix(rng.uniform(0.2, 1.0, size=(m, r))),
                         NonnegMatrix(rng.uniform(0.2, 1.0, size=(r, n))))
    return instance, init


def dense_instance(rng, m=9, n=7, r=3):
    """Positive Poisson data, whose MU and BMD ratio is one whole-matrix
    divide, and a positive init."""
    V = rng.poisson(3.0, size=(m, n)) + 1.0
    instance = ProblemInstance(V=NonnegMatrix(V), rank=r)
    init = Factorization(NonnegMatrix(rng.uniform(0.2, 1.0, size=(m, r))),
                         NonnegMatrix(rng.uniform(0.2, 1.0, size=(r, n))))
    return instance, init


def run_record(instance, init, kind):
    """Final factors and every recorded objective and error, of 6 sweeps."""
    pair, trace = run(instance, init, SolverConfig(kind=kind, max_outer_iters=6))
    return (pair.W.values, pair.H.values,
            [(s.objective.as_float(), s.rel_error, s.sweep) for s in trace.samples])


def assert_same_record(got, want):
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert got[2] == want[2]


class TestSupportLayoutPerMatrix:
    """The Newton kinds lay out the support of sparse data (its orders)
    once, and every later run on it reuses them; dense data has none."""

    def test_reused_layout_is_bitwise_a_fresh_one_and_built_once(
            self, rng, monkeypatch):
        import klnmf.objective as objective_mod
        builds = []
        order = objective_mod._order

        def counting_order(*args):
            builds.append(1)
            return order(*args)

        monkeypatch.setattr(objective_mod, "_order", counting_order)
        # Two orders, one per half, for each matrix with sparse data, and
        # none for dense data: 68% of the entries are nonzero at mean 2,
        # 29% at mean 0.5.
        for mean, orders in ((2.0, 0), (0.5, 2 * (1 + 6))):
            builds.clear()
            instance, init = sparse_instance(rng, mean=mean)
            assert instance.V.support.dense == (orders == 0)
            for kind in ("sn", "snmu", "ccd"):
                for _ in range(2):
                    fresh = ProblemInstance(
                        NonnegMatrix(instance.V.values.copy()), instance.rank)
                    assert_same_record(run_record(instance, init, kind),
                                       run_record(fresh, init, kind))
            assert len(builds) == orders

    def test_threads_on_one_instance_share_nothing_they_write(self, rng):
        # More threads than cores and a short switch interval, so that runs
        # interleave; a buffer shared between them would change a record.
        import sys
        from concurrent.futures import ThreadPoolExecutor
        instance, init = sparse_instance(rng, m=40, n=30, r=4)
        kinds = ["sn", "ccd", "snmu"] * 2
        want = {kind: run_record(instance, init, kind) for kind in kinds}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                futures = [pool.submit(run_record, instance, init, kind)
                           for kind in kinds]
                got = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for kind, record in zip(kinds, got):
            assert_same_record(record, want[kind])


class TestObjectivePerMatrix:
    """Every run on a data matrix shares the one Support that the matrix
    builds, and allocates only its own scratch."""

    @pytest.mark.parametrize("make", ["sparse", "dense"])
    def test_second_run_on_a_matrix_is_bitwise_a_fresh_one_and_built_once(
            self, rng, monkeypatch, make):
        import klnmf.objective as objective_mod
        builds = []

        class CountingSupport(objective_mod.Support):
            def __init__(self, V):
                builds.append(1)
                super().__init__(V)

        monkeypatch.setattr(objective_mod, "Support", CountingSupport)
        instance, init = (sparse_instance(rng) if make == "sparse"
                          else dense_instance(rng))
        for kind in ("mu", "bmd", "sn", "snmu", "ccd"):
            for _ in range(2):
                fresh = ProblemInstance(NonnegMatrix(instance.V.values.copy()),
                                        instance.rank)
                assert_same_record(run_record(instance, init, kind),
                                   run_record(fresh, init, kind))
        assert len(builds) == 1 + 10

    def test_shared_fields_are_read_only(self, rng):
        instance, init = dense_instance(rng)
        for kind in ("bmd", "sn"):
            run_record(instance, init, kind)
        shared = instance.V.support
        for array in (shared.values, *shared.sums, *shared.curvature,
                      *(order.values for order in shared.orders)):
            assert not array.flags.writeable
        assert not {"ratio", "_wh"} & set(vars(shared))

    def test_threads_on_one_instance_share_no_scratch(self, rng):
        # The threads also race to build the shared data of a new matrix.
        import sys
        from concurrent.futures import ThreadPoolExecutor
        instance, init = dense_instance(rng)
        kinds = ["mu", "bmd", "snmu", "sn"] * 2
        want = {kind: run_record(instance, init, kind) for kind in kinds}
        shared = ProblemInstance(NonnegMatrix(instance.V.values.copy()),
                                 instance.rank)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run_record, shared, init, kind)
                           for kind in kinds]
                got = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for kind, record in zip(kinds, got):
            assert_same_record(record, want[kind])


class TestCcdOnSparseData:
    # The reference plan's sparse class (klbench/plan.json, seed 11, rank 4):
    # 40x30 Poisson data from a rank-4 product with factor density 0.3,
    # matrices 6-8, each from its second init. At epsilon 0, its former
    # default, ccd zeroes whole rows of W there and its objective turns NaN
    # within 3-7 sweeps. After its default 1000 sweeps at MACHINE_EPS it
    # ends 0.94%, 0.51% and 0% above sn.
    @pytest.mark.parametrize("matrix", [6, 7, 8])
    def test_default_ccd_stays_finite_and_tracks_sn(self, matrix):
        V = generate(SyntheticSpec(kind="low-rank", m=40, n=30, r_true=4,
                                   density=0.3, noise="poisson",
                                   seed=300 + matrix - 6))
        instance = ProblemInstance(V=V, rank=4)
        init = init_random_scaled(40, 30, 4, V.values,
                                  _derived_seed(11, 1, matrix, 1))
        finals = {}
        for kind in ("sn", "ccd"):
            pair, trace = run(instance, init, SolverConfig(kind=kind))
            assert np.all(np.isfinite(pair.W.values))
            assert np.all(np.isfinite(pair.H.values))
            finals[kind] = trace.samples[-1].rel_error
        assert np.isfinite(finals["ccd"])
        assert finals["ccd"] == pytest.approx(finals["sn"], rel=0.01)
