"""The product bound that ``run()`` states once, epsilon * epsilon.

Every factor entry of a run is at least epsilon, so every entry of every
product it forms is at least epsilon * epsilon, and where that is positive
the ratio and objective passes skip their scans of the product for a zero.
The tests below count those scans, show that the skip changes no bit and
no failure, and check the invariant behind the bound on drawn problems.
"""
import contextlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import klnmf.solver as solver
from klnmf import (KLObjective, NonnegMatrix, ProblemInstance, SolverConfig,
                   SolverState, init_random_scaled, mirror, multiplicative,
                   run)
from klnmf.objective import DENSE_DENSITY
from klnmf.solver import MACHINE_EPS, SOLVER_KINDS


def counting(log):
    """An ndarray subclass whose min(), the full scan of an array, appends
    to ``log``."""
    class Counted(np.ndarray):
        def min(self, *args, **kwargs):
            log.append(1)
            return self.view(np.ndarray).min(*args, **kwargs)
    return Counted


@pytest.fixture
def scans(monkeypatch):
    """The scans of a run's product made by each ratio and objective pass,
    one count per pass in call order."""
    log, per_pass = [], []
    product = counting(log)

    class State(SolverState):
        @classmethod
        def from_factors(cls, W, H):
            state = super().from_factors(W, H)
            state.WH = state.WH.view(product)
            return state

    def counted(f):
        def wrapper(*args, **kwargs):
            before = len(log)
            out = f(*args, **kwargs)
            per_pass.append(len(log) - before)
            return out
        return wrapper

    monkeypatch.setattr(solver, "SolverState", State)
    monkeypatch.setattr(KLObjective, "of_product",
                        counted(KLObjective.of_product))
    for module in (multiplicative, mirror):
        monkeypatch.setattr(module, "support_ratio",
                            counted(module.support_ratio))
    return per_pass


def dense_problem(rank=3):
    V = NonnegMatrix(np.random.default_rng(5).uniform(0.5, 3.0, (12, 10)))
    assert V.support.dense
    return ProblemInstance(V, rank), init_random_scaled(12, 10, rank,
                                                        V.values, 11)


SWEEPS = 6


@pytest.mark.parametrize("kind", ["mu", "bmd"])
def test_default_dense_run_never_scans_its_product(scans, kind):
    # Two ratios per sweep and one objective per sweep and at the start,
    # none of which scans: at epsilon MACHINE_EPS the bound is positive.
    instance, init = dense_problem()
    run(instance, init, SolverConfig(kind=kind, max_outer_iters=SWEEPS))
    assert scans == [0] * (3 * SWEEPS + 1)


@pytest.mark.parametrize("kind, epsilon, passes", [
    # epsilon 0 has no bound, and 1e-170 squared underflows to 0.0.
    ("sn", None, SWEEPS + 1),
    ("bmd", 1e-170, 3 * SWEEPS + 1),
])
def test_unbounded_run_scans_on_every_pass(scans, kind, epsilon, passes):
    instance, init = dense_problem()
    assert solver._product_bound(SolverConfig(
        kind=kind, epsilon=epsilon).resolved_epsilon()) == 0.0
    run(instance, init, SolverConfig(kind=kind, epsilon=epsilon,
                                     max_outer_iters=SWEEPS))
    assert scans == [1] * passes


def test_bmd_reads_data_column_positivity_from_the_support():
    # L, the data's row and column sums, is positive or not once for all
    # runs on the matrix: the support decides it once per orientation.
    values = np.random.default_rng(6).uniform(0.5, 3.0, (9, 7))
    values[2] = 0.0
    values[:, 4] = 0.0
    matrix = NonnegMatrix(values)
    log = []
    matrix.support.sums = tuple(s.view(counting(log))
                                for s in matrix.support.sums)
    instance = ProblemInstance(matrix, 2)
    init = init_random_scaled(9, 7, 2, values, 3)
    for _ in range(2):
        run(instance, init, SolverConfig(kind="bmd", max_outer_iters=SWEEPS))
    assert len(log) == 2
    assert [None if live is None else live.tolist()
            for live in matrix.support.live] == [
        [j != 4 for j in range(7)], [i != 2 for i in range(9)]]


@contextlib.contextmanager
def after_each_sweep(check):
    """Make every run in the block call ``check(state)`` after each sweep."""
    make = solver._make_stepper

    def stepper(*args):
        step = make(*args)

        def checked(state):
            step(state)
            check(state)
        return checked

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_make_stepper", stepper)
        yield


def outcome(instance, init, config):
    """What a run gives, without its timestamps, and the sweeps it made:
    final factors, trace values and sweep indices, or the error raised."""
    sweeps = []
    with after_each_sweep(sweeps.append), warnings.catch_warnings():
        warnings.filterwarnings("ignore", "initialization clamped",
                                UserWarning)
        try:
            factors, trace = run(instance, init, config)
        except (ValueError, RuntimeError, RuntimeWarning) as exc:
            return (type(exc), str(exc)), len(sweeps)
    return (factors.W.values.tobytes(), factors.H.values.tobytes(),
            [(s.objective.as_float(), s.rel_error, s.sweep)
             for s in trace.samples]), len(sweeps)


def unbounded(instance, init, config):
    """:func:`outcome` of the same run with the product bound forced to 0,
    so that every pass scans as it does without a bound."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_product_bound", lambda epsilon: 0.0)
        return outcome(instance, init, config)


#: Dense 7x6 counts scaled by 2**1000: the first ccd sweep overflows the
#: product and leaves NaN in the factors.
NAN_DATA = np.array([[0, 0, 0, 1, 4, 1], [3, 6, 3, 5, 4, 0],
                     [3, 2, 2, 2, 3, 2], [0, 7, 4, 2, 0, 3],
                     [3, 2, 1, 3, 2, 4], [0, 4, 5, 3, 2, 3],
                     [1, 4, 2, 4, 4, 4]], dtype=float) * 2.0 ** 1000


def test_nan_factors_fail_at_the_same_sweep_with_or_without_the_bound():
    # A NaN factor breaks "every entry >= epsilon" without tripping the
    # bound's proof. On dense data the bounded run then takes the
    # whole-matrix log pass where the scan would have sent the NaN product
    # down the gathered one; either way the linear term colsum(W) @
    # rowsum(H) is NaN and the objective rejects it at the same sweep.
    V = NonnegMatrix(NAN_DATA)
    assert V.support.dense
    instance = ProblemInstance(V, 4)
    init = init_random_scaled(7, 6, 4, V.values, 0)
    config = SolverConfig(kind="ccd", max_outer_iters=10)
    # Under tier-1's warning filter both raise the same overflow warning.
    assert outcome(instance, init, config) == unbounded(instance, init, config)
    nan_sweeps = []

    def has_nan(state):
        nan_sweeps.append(bool(np.isnan(state.W).any()
                               or np.isnan(state.H).any()))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        failure = outcome(instance, init, config)
        assert failure == unbounded(instance, init, config)
        with after_each_sweep(has_nan), pytest.raises(ValueError):
            run(instance, init, config)
    assert failure == ((ValueError, "finite objective required, got nan"), 1)
    assert nan_sweeps == [True]


SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=80)


@st.composite
def problems(draw, epsilons=(MACHINE_EPS, 1e-6)):
    """Data of 1-12 x 1-12 with some zero rows and columns, a density on
    either side of DENSE_DENSITY and a scale of 2**-400, 1 or 2**400; a
    rank; an init seed; and epsilon, one of ``epsilons``."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    density = draw(st.sampled_from([0.25, 0.5, DENSE_DENSITY, 0.8, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.gamma(1.0, 2.0, (m, n)) * (rng.random((m, n)) < density)
    values[draw(st.lists(st.integers(0, m - 1), max_size=m // 2))] = 0.0
    values[:, draw(st.lists(st.integers(0, n - 1), max_size=n // 2))] = 0.0
    if not values.any():
        values[draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))] = 1.0
    V = NonnegMatrix(values * draw(st.sampled_from([2.0**-400, 1.0, 2.0**400])))
    rank = draw(st.integers(1, min(m, n)))
    init = init_random_scaled(m, n, rank, V.values, draw(st.integers(0, 999)))
    return (ProblemInstance(V, rank), init,
            draw(st.sampled_from(epsilons)))


@SETTINGS
@given(problem=problems())
def test_every_kind_keeps_its_factors_at_or_above_epsilon(problem):
    # The invariant behind the bound, after every sweep, and the bound
    # itself on the product, which the dense Newton slices rely on to skip
    # their guard. A NaN is not below either; the NaN test above shows what
    # the bound does with one.
    instance, init, epsilon = problem

    def check(state):
        assert not (state.W < epsilon).any()
        assert not (state.H < epsilon).any()
        assert not (state.WH < epsilon * epsilon).any()

    with after_each_sweep(check):
        for kind in SOLVER_KINDS:
            outcome(instance, init, SolverConfig(kind=kind, epsilon=epsilon,
                                                 max_outer_iters=4))


@SETTINGS
@given(problem=problems())
def test_the_bound_changes_no_bit(problem):
    instance, init, epsilon = problem
    for kind in SOLVER_KINDS:
        config = SolverConfig(kind=kind, epsilon=epsilon, max_outer_iters=4)
        assert outcome(instance, init, config) == \
            unbounded(instance, init, config)
