"""Solver configuration, the step of each kind, and the outer loop.

Five solver kinds sit behind one interface: "mu" (multiplicative updates),
"bmd" (block mirror descent), "sn" (safeguarded scalar Newton), "snmu"
(Newton sweeps interleaved with multiplicative scaling steps) and "ccd"
(plain cyclic Newton). All but "ccd" never increase the objective.
"""
from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SolverInitError
from .matrices import Factorization, NonnegMatrix, ProblemInstance
from .mirror import bmd_step
from .multiplicative import mu_step
from .objective import KLObjective, kkt_residual
from .scalar_newton import ccd_sweep, self_concordant_constants, sn_sweep
from .state import SolverState
from .traces import RunTrace, TraceSample

SOLVER_KINDS = ("mu", "bmd", "sn", "snmu", "ccd")

#: Kinds whose recorded objective sequence is guaranteed non-increasing.
MONOTONE_KINDS = ("mu", "bmd", "sn", "snmu")

MACHINE_EPS = float(np.finfo(np.float64).eps)

#: Kinds built on Newton sweeps. Each sweep refreshes the product after
#: every slice, adjusted at the nonzeros of sparse data and recomputed whole
#: on dense data, and recomputes the full product at its end.
NEWTON_KINDS = ("sn", "snmu", "ccd")

#: Kinds whose safeguarded step rule clamps at the bound itself, so their
#: default epsilon is 0. Every other kind, ccd included, defaults to machine
#: precision: at epsilon 0 an undamped ccd step can zero a whole row of W
#: where the data row is not empty, and its derivatives then turn NaN.
ZERO_EPSILON_KINDS = ("sn", "snmu")


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for one solver run.

    ``epsilon=None`` defers to the per-kind default above (or the problem
    instance's bound if that is larger). The run stops at whichever of the
    four criteria triggers first: outer-iteration cap, wall-clock budget,
    relative objective decrease below ``objective_tol``, or KKT residual
    below ``kkt_tol``; the tolerances are off when None.
    """

    kind: str
    epsilon: float | None = None
    max_outer_iters: int = 1000
    time_budget: float = math.inf
    objective_tol: float | None = None
    kkt_tol: float | None = None
    inner_repeats: int = 3
    snmu_cycle: tuple[int, int] = (10, 1)
    record_every: int = 1

    def __post_init__(self):
        if self.kind not in SOLVER_KINDS:
            raise ValueError(
                f"unknown solver kind {self.kind!r}; valid kinds: "
                f"{', '.join(SOLVER_KINDS)}"
            )
        object.__setattr__(self, "snmu_cycle", tuple(self.snmu_cycle))
        if self.epsilon is not None and not self.epsilon >= 0:
            raise ValueError("epsilon must be >= 0")
        if self.max_outer_iters < 0:
            raise ValueError("max_outer_iters must be >= 0")
        if not self.time_budget >= 0:
            raise ValueError("time_budget must be >= 0")
        if self.inner_repeats < 1:
            raise ValueError("inner_repeats must be >= 1")
        if len(self.snmu_cycle) != 2 or any(c < 1 for c in self.snmu_cycle):
            raise ValueError("snmu_cycle components must be >= 1")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        for name in ("objective_tol", "kkt_tol"):
            tol = getattr(self, name)
            if tol is not None and not tol > 0:
                raise ValueError(f"{name} must be positive or None")

    def resolved_epsilon(self, instance_epsilon: float = 0.0) -> float:
        if self.epsilon is not None:
            return self.epsilon
        default = 0.0 if self.kind in ZERO_EPSILON_KINDS else MACHINE_EPS
        return max(float(instance_epsilon), default)


def snmu_step(V, state, epsilon, cycle=(10, 1), inner_repeats: int = 3,
              h_first: bool = True, deadline: float = math.inf,
              objective: KLObjective | None = None):
    """Several safeguarded Newton sweeps followed by multiplicative steps.

    The multiplicative tail restores the scaled property: when its clamp is
    zero, the product leaves the tail matching the data's column and row
    sums. Both components are monotone, so the composite step is too. The
    Newton sweeps stop early once ``time.perf_counter()`` passes
    ``deadline``; the tail still runs. ``objective``, the
    :class:`KLObjective` of V, goes to every sweep.
    """
    for _ in range(cycle[0]):
        sn_sweep(V, state, epsilon, inner_repeats=inner_repeats,
                 h_first=h_first, objective=objective)
        if time.perf_counter() >= deadline:
            break
    for _ in range(cycle[1]):
        mu_step(V, state, epsilon, h_first=h_first, objective=objective)
    return state


def _make_stepper(config: SolverConfig, matrix: NonnegMatrix,
                  objective: KLObjective, epsilon: float, deadline: float):
    """One outer sweep of ``config.kind`` as a function of the state.

    The step functions are looked up in this module each time the stepper
    runs, so that patching ``klnmf.solver.sn_sweep`` and the like reaches it.
    Every kind reads the data through the run's objective, whose support
    the matrix builds once: MU, BMD and the MU tail of snmu form their ratio
    in its scratch, and each Newton half reads its layout, its curvature
    constants and its scratch from the objective's workspace
    (:attr:`KLObjective.newton`). For a Newton kind that workspace, and the
    support's curvature and, on sparse data only, its orders, are built
    here, before the first sweep, so that no sweep allocates them.
    """
    V = matrix.values
    newton = {"inner_repeats": config.inner_repeats, "objective": objective}
    if config.kind in NEWTON_KINDS:
        # Does nothing that objective.newton does not, but klbench wraps this
        # name to time scalar_newton.constants_ms, which its selftest requires
        # of every traced toy run.
        self_concordant_constants(matrix)
        objective.newton  # noqa: B018 - built now, read by every sweep
    steps = {
        "mu": lambda state: mu_step(V, state, epsilon, objective=objective),
        "bmd": lambda state: bmd_step(V, state, epsilon, objective=objective),
        "sn": lambda state: sn_sweep(V, state, epsilon, **newton),
        "ccd": lambda state: ccd_sweep(V, state, epsilon, **newton),
        "snmu": lambda state: snmu_step(V, state, epsilon, cycle=config.snmu_cycle,
                                        deadline=deadline, **newton),
    }
    return steps[config.kind]


def _product_bound(epsilon: float) -> float:
    """The product bound of a run at ``epsilon`` (see
    :attr:`KLObjective.product_bound`): epsilon * epsilon in Python floats,
    0.0 at epsilon 0 and where the square underflows."""
    return float(epsilon) * float(epsilon)


def run(instance: ProblemInstance, init: Factorization, config: SolverConfig,
        run_id: str = "run", matrix_id: str = "", init_id: str = "",
        ) -> tuple[Factorization, RunTrace]:
    """Iterate the configured solver and record a timestamped trace.

    The initialization is copied into the state once, clamped up to the
    resolved epsilon (with a warning if that changes anything), and never
    mutated. The objective is evaluated once at the start and once after
    every sweep, by :meth:`KLObjective.of_product` on the state's cached
    product and factor sums, so a recorded value is bitwise what
    :func:`~klnmf.objective.kl_divergence` gives for the same factors.
    Samples are recorded at the initial point, after every ``record_every``
    outer sweeps, and after the sweep that stops the run; every sample but
    the initial one is stamped at the end of its sweep, before the stopping
    checks. Returns the best-objective iterate seen, which for the monotone
    kinds is the last one.

    After the clamp every factor entry is at least epsilon, and no step of
    any kind writes one below it. The run states once what that proves, the
    ``product_bound`` of its :class:`KLObjective`, epsilon * epsilon (see
    there); where it is positive the ratio, the objective, MU and the dense
    Newton slices skip the checks that it makes idle. The iterates, the
    trace and any failure are the same as with every check, bit for bit.
    At 0.0 (epsilon 0, or an epsilon whose square underflows) every check
    runs.
    """
    if init.W.shape != (instance.V.rows, instance.rank) or \
            init.H.shape != (instance.rank, instance.V.cols):
        raise SolverInitError(
            f"init shapes {init.W.shape} x {init.H.shape} do not match the "
            f"instance ({instance.V.rows}x{instance.V.cols}, rank {instance.rank})"
        )
    V = instance.V.values
    epsilon = config.resolved_epsilon(instance.epsilon)
    state = SolverState.from_factors(init.W.values, init.H.values)
    if epsilon > 0 and (state.W.min() < epsilon or state.H.min() < epsilon):
        warnings.warn(
            f"initialization clamped up to epsilon={epsilon!r}", stacklevel=2)
        np.maximum(state.W, epsilon, out=state.W)
        np.maximum(state.H, epsilon, out=state.H)
        state.resync()
    if config.kind == "bmd" and epsilon == 0:
        warnings.warn(
            "bmd with epsilon=0 decreases the objective but loses its "
            "convergence guarantee; use a positive epsilon", stacklevel=2)

    objective = KLObjective(instance.V)
    with np.errstate(over="ignore"):
        constant = objective.support.constant
    if not math.isfinite(constant):
        raise SolverInitError(
            "the objective's constant sum(V*log(V) - V) overflows the float "
            "range; rescale the data")
    objective.product_bound = _product_bound(epsilon)
    obj = objective.of_product(state.WH, (state.col_sums_W, state.row_sums_H))
    if not obj.is_finite:
        raise SolverInitError(
            "objective is infinite at the initial point; use a strictly "
            "positive initialization"
        )

    samples = [TraceSample(0.0, obj, objective.relative(obj))]
    best_obj = obj
    best_W = state.W.copy()
    best_H = state.H.copy()
    if config.time_budget > 0 and config.max_outer_iters > 0:
        start = time.perf_counter()
        stepper = _make_stepper(config, instance.V, objective, epsilon,
                                start + config.time_budget)
        sweep, prev_value, stop = 0, obj.value, False
        while not stop:
            stepper(state)
            sweep += 1
            elapsed = time.perf_counter() - start
            obj = objective.of_product(state.WH,
                                       (state.col_sums_W, state.row_sums_H))
            if obj < best_obj:
                best_obj = obj
                best_W[...] = state.W
                best_H[...] = state.H
            stop = (sweep == config.max_outer_iters
                    or elapsed >= config.time_budget
                    or (config.objective_tol is not None and obj.is_finite
                        and (prev_value - obj.value) / max(abs(prev_value), 1e-30)
                        < config.objective_tol)
                    or (config.kkt_tol is not None
                        and kkt_residual(V, state.W, state.H, epsilon, objective,
                                         state.WH) <= config.kkt_tol))
            if stop or sweep % config.record_every == 0:
                stamp = max(elapsed, samples[-1].elapsed_s + 1e-9)
                samples.append(TraceSample(stamp, obj, objective.relative(obj), sweep))
            prev_value = obj.as_float()
    trace = RunTrace(run_id=run_id, solver=config.kind, matrix_id=matrix_id,
                     init_id=init_id, samples=tuple(samples))
    return Factorization(NonnegMatrix(best_W), NonnegMatrix(best_H)), trace
