"""Properties of ``run()`` on drawn problems (ROADMAP item 12).

The draws are those of the product-bound properties: 1-12 x 1-12 data with
zero rows and columns, densities on both sides of ``DENSE_DENSITY``, scales
2**-400, 1 and 2**400, every kind, at its default epsilon and at 1e-6.
"""
import warnings

from hypothesis import given, settings

from klnmf import SolverConfig, kl_divergence, run
from klnmf.solver import SOLVER_KINDS
from test_product_bound import outcome, problems

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)
SWEEPS = 6


def configs(epsilon):
    return [SolverConfig(kind=kind, epsilon=epsilon, max_outer_iters=SWEEPS)
            for kind in SOLVER_KINDS]


@SETTINGS
@given(problem=problems(epsilons=(None, 1e-6)))
def test_capped_runs_repeat_bitwise(problem):
    # Factors, trace values and sweep indices, or the same error at the
    # same sweep.
    instance, init, epsilon = problem
    for config in configs(epsilon):
        assert outcome(instance, init, config) == outcome(instance, init,
                                                          config)


@SETTINGS
@given(problem=problems(epsilons=(None, 1e-6)))
def test_best_trace_value_is_the_objective_of_the_returned_factors(problem):
    # run() returns the best iterate it saw; its recorded objective is
    # bitwise kl_divergence of those factors, for ccd, which can go up, too.
    instance, init, epsilon = problem
    for config in configs(epsilon):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "initialization clamped",
                                    UserWarning)
            try:
                factors, trace = run(instance, init, config)
            except (ValueError, RuntimeError, RuntimeWarning):
                continue
        best = min(sample.objective for sample in trace.samples)
        value = kl_divergence(instance.V.values, factors.W.values,
                              factors.H.values)
        assert value.as_float().hex() == best.as_float().hex()
