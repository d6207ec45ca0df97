"""Open faults, kept as strict expected failures.

Each case below reproduces a known fault. Once a change mends it, the case
passes, and its strict mark turns that into a failure, so the mark is
dropped with the mend.
"""
import numpy as np
import pytest

from klnmf import (DegenerateInputError, KLObjective, NonnegMatrix,
                   ProblemInstance, SolverConfig, SolverState, SyntheticSpec,
                   generate, init_random_scaled, run, sn_sweep)
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
#: Data at scale 1, rank and init seed of each case. On the sparse 5x5
#: data, 13 of 25 entries nonzero, ccd's cached support product reaches 0
#: at a nonzero of V; CCD_PRODUCT_FLOOR lifts it to 1e-300, and the
#: unguarded divide V/WH overflows once V exceeds about 1.8e8.
SCALE_CASES = {
    "low-rank": (generate(SCALE_DATA).values, 4, 4),
    "sparse-5x5": (np.array([[0, 0, 3, 0, 0], [0, 0, 5, 1, 3], [0, 0, 3, 3, 4],
                             [2, 0, 3, 0, 5], [0, 2, 0, 3, 0]], dtype=float),
                   2, 1027414808),
}
#: The default epsilon of these kinds, MACHINE_EPS, is absolute: it clamps
#: an init of data at 1e-150 far above the data.
ABSOLUTE_BOUND_KINDS = ("mu", "bmd", "ccd")


def final_relative_error(case, kind, scale):
    data, rank, seed = SCALE_CASES[case]
    V = NonnegMatrix(data * scale)
    init = init_random_scaled(V.rows, V.cols, rank, V.values, seed)
    _, trace = run(ProblemInstance(V, rank), init,
                   SolverConfig(kind=kind, max_outer_iters=20))
    return trace.samples[-1].rel_error


@pytest.mark.parametrize("case", sorted(SCALE_CASES))
@pytest.mark.parametrize("scale", [1e-150, 1e150])
@pytest.mark.parametrize("kind", SOLVER_KINDS)
def test_default_bound_keeps_relative_error_at_any_scale(request, kind, scale,
                                                         case):
    if kind in ABSOLUTE_BOUND_KINDS and scale < 1:
        request.applymarker(pytest.mark.xfail(
            strict=True, reason="the absolute default epsilon clamps the init "
            "of data at 1e-150 (relative errors near 1e119)"))
    elif kind == "ccd" and case == "sparse-5x5":
        request.applymarker(pytest.mark.xfail(
            strict=True, raises=(RuntimeWarning, ValueError),
            reason="ccd's floored support product overflows V/WH, and the "
            "objective turns NaN"))
    assert final_relative_error(case, kind, scale) == pytest.approx(
        final_relative_error(case, kind, 1.0), rel=1e-9)


@pytest.mark.xfail(strict=True, raises=DegenerateInputError,
                   reason="the Newton sweeps of snmu zero a whole component "
                   "at epsilon 0, and its MU tail refuses it (zero locking)")
def test_snmu_converges_where_sn_does():
    V = np.zeros((4, 2))
    V[1, 1] = 2.0
    finals = {}
    for kind in ("sn", "snmu"):
        matrix = NonnegMatrix(V)
        init = init_random_scaled(4, 2, 2, matrix.values, 830904038)
        _, trace = run(ProblemInstance(matrix, 2), init,
                       SolverConfig(kind=kind, max_outer_iters=20))
        finals[kind] = trace.samples[-1].objective.as_float()
    assert finals["sn"] == 0.0
    assert finals["snmu"] <= 1e-12
