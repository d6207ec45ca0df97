"""Properties of single steps and of capped runs on drawn problems (ROADMAP
item 12): the W half of a step is its H half on the transposed problem, and
the monotone kinds never increase their objective beyond its rounding.

The draws: 1-12 x 1-12 data with zero rows and columns, a density on either
side of ``DENSE_DENSITY``, a scale of 2**j for j in [-490, 490], and epsilon
0, ``MACHINE_EPS`` or 1e-6. Every check runs on both slice paths, forced as
``conftest.each_slice_path`` forces them.
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import each_slice_path
from klnmf import (MACHINE_EPS, MONOTONE_KINDS, NonnegMatrix, ProblemInstance,
                   SolverConfig, SolverState, bmd_step, ccd_sweep,
                   init_random_scaled, mu_step, run, sn_sweep, snmu_step)
from klnmf.objective import DENSE_DENSITY

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=80)
STEPS = {"mu": mu_step, "bmd": bmd_step, "sn": sn_sweep, "snmu": snmu_step,
         "ccd": ccd_sweep}
#: What a step or a run may raise on a drawn problem; a draw that raises is
#: no counterexample to the properties here.
FAILURES = (ValueError, RuntimeError, RuntimeWarning)
SWEEPS = 8
#: An increase of the objective up to ROUNDING * sum(v) * (1 + |ln(mean
#: nonzero v)|), the scale of its sum(wh) and sum(v log v) terms, is
#: rounding. The largest increase these draws make is 5.2e-16 of that
#: scale (snmu at 2**492 on the support path), and 2.9e-16 near scale 1.
ROUNDING = 1e-14


@st.composite
def problems(draw):
    """Data V with at least one zero row and column where it has two, and
    an init (W, H) whose product has V's scale 2**j; the rank; epsilon; and
    an init seed."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    density = draw(st.sampled_from([0.25, 0.5, DENSE_DENSITY, 0.8, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V = rng.gamma(1.0, 2.0, (m, n)) * (rng.random((m, n)) < density)
    V[draw(st.lists(st.integers(0, m - 1), min_size=int(m > 1),
                    max_size=m // 2))] = 0.0
    V[:, draw(st.lists(st.integers(0, n - 1), min_size=int(n > 1),
                       max_size=n // 2))] = 0.0
    if not V.any():
        V[draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))] = 1.0
    rank = draw(st.integers(1, min(m, n)))
    j = draw(st.integers(-490, 490))
    W = rng.uniform(0.1, 2.0, (m, rank)) * 2.0 ** (j // 2)
    H = rng.uniform(0.1, 2.0, (rank, n)) * 2.0 ** (j - j // 2)
    return (V * 2.0 ** j, W, H, rank,
            draw(st.sampled_from([0.0, MACHINE_EPS, 1e-6])),
            draw(st.integers(0, 999)))


def one_step(kind, V, W, H, epsilon, h_first):
    """The state after one step of ``kind``, or the type of its error."""
    state = SolverState.from_factors(W, H)
    try:
        STEPS[kind](V, state, epsilon, h_first=h_first)
    except FAILURES as exc:
        return type(exc)
    return state


@SETTINGS
@given(problem=problems())
def test_step_equals_transposed_step(problem):
    # One H-first step on (V, W, H) is, transposed, one W-first step on
    # (V.T, H.T, W.T), bit for bit, or both raise the same error. At rank 1
    # a gathered ratio (the support path, or the dense path at epsilon 0
    # with a zero product) feeds W.T @ ratio, a matrix-vector product over
    # the other memory order of the C-ordered ratio, so there mu, bmd and
    # snmu agree to rounding only.
    V, W, H, rank, epsilon, _ = problem
    with pytest.MonkeyPatch.context() as mp:
        for path in each_slice_path(mp):
            for kind in STEPS:
                state = one_step(kind, V, W, H, epsilon, True)
                flipped = one_step(kind, V.T, H.T, W.T, epsilon, False)
                if isinstance(state, type) or isinstance(flipped, type):
                    assert state == flipped, (kind, path)
                    continue
                pairs = ((flipped.H.T, state.W), (flipped.W.T, state.H))
                if (kind in ("mu", "bmd", "snmu") and rank == 1
                        and (path == "support" or epsilon == 0)):
                    for a, b in pairs:
                        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)
                else:
                    for a, b in pairs:
                        assert np.ascontiguousarray(a).tobytes() == \
                            b.tobytes(), (kind, path)


@SETTINGS
@given(problem=problems())
def test_monotone_kinds_never_increase(problem):
    V, _, _, rank, epsilon, seed = problem
    m, n = V.shape
    init = init_random_scaled(m, n, rank, V, seed)
    nonzero = V[V > 0]
    slack = ROUNDING * float(V.sum()) * (1 + abs(math.log(nonzero.mean())))
    with pytest.MonkeyPatch.context() as mp:
        for path in each_slice_path(mp):
            matrix = NonnegMatrix(V)
            for kind in MONOTONE_KINDS:
                config = SolverConfig(kind=kind, epsilon=epsilon,
                                      max_outer_iters=SWEEPS)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    try:
                        _, trace = run(ProblemInstance(matrix, rank), init,
                                       config)
                    except FAILURES:
                        continue
                values = [s.objective.as_float() for s in trace.samples]
                assert max(np.diff(values), default=0.0) <= slack, (kind, path)
