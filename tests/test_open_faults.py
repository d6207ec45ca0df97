"""Open faults, kept as strict expected failures.

Each case below reproduces a known fault. Once a change mends it, the case
passes, and its strict mark turns that into a failure, so the mark is
dropped with the mend.
"""
import numpy as np
import pytest

from klnmf import (KLObjective, NonnegMatrix, ProblemInstance, SolverConfig,
                   SolverState, SyntheticSpec, generate, init_random_scaled,
                   run, sn_sweep)
from klnmf.solver import SOLVER_KINDS


@pytest.mark.xfail(strict=True, reason="sn stalls where the product has "
                   "underflowed: V/WH^2 overflows and the Newton step is 0")
def test_sn_leaves_an_underflowed_product():
    V = np.array([[1.0, 2.0], [3.0, 1.0]])
    state = SolverState.from_factors(np.array([[1e-100], [1.0]]),
                                     np.array([[1e-100, 1.0]]))
    for _ in range(50):
        sn_sweep(V, state, 0.0)
    # From W[0, 0] = H[0, 0] = 1e-3 the same sweeps reach 0.6215.
    assert KLObjective(V).of_product(state.WH).as_float() <= 0.63


SCALE_DATA = SyntheticSpec(kind="low-rank", m=40, n=30, r_true=4,
                           noise="poisson", seed=3)
#: The default epsilon of these kinds, MACHINE_EPS, is absolute: it clamps
#: an init of data at 1e-150 far above the data.
ABSOLUTE_BOUND_KINDS = ("mu", "bmd", "ccd")


def final_relative_error(kind, scale):
    V = NonnegMatrix(generate(SCALE_DATA).values * scale)
    init = init_random_scaled(V.rows, V.cols, 4, V.values, 4)
    _, trace = run(ProblemInstance(V, 4), init,
                   SolverConfig(kind=kind, max_outer_iters=20))
    return trace.samples[-1].rel_error


@pytest.mark.parametrize("scale", [1e-150, 1e150])
@pytest.mark.parametrize("kind", SOLVER_KINDS)
def test_default_bound_keeps_relative_error_at_any_scale(request, kind, scale):
    if kind in ABSOLUTE_BOUND_KINDS and scale < 1:
        request.applymarker(pytest.mark.xfail(
            strict=True, reason="the absolute default epsilon clamps the init "
            "of data at 1e-150 (relative error 3.4e119)"))
    assert final_relative_error(kind, scale) == pytest.approx(
        final_relative_error(kind, 1.0), rel=1e-9)
