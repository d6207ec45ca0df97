"""Correctness checks that share no code with ``klnmf.objective``.

The KL divergence and its normalizer are evaluated here from their
definitions on dense arrays with ``scipy.special.xlogy`` (0 * log 0 = 0).
Every check returns a list of problems; an empty list means it passed.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import xlogy

#: Relative tolerance between the program's reported relative error and the
#: one computed here from the returned factors.
ERROR_RTOL = 1e-9

#: Relative slack allowed between consecutive objectives of a monotone run
#: (the same slack the program's own acceptance tests use).
MONOTONE_SLACK = 1e-12

#: The fault kept in the workloads: plain cyclic Newton drives a whole row
#: of W to zero on sparse data and the objective turns NaN. It is known only
#: on the operations named here, per workload: a solver kind on a solve
#: workload, a run id in the plan. The same failure anywhere else is a
#: problem.
KNOWN_FAULT_TEXT = "finite objective required"
KNOWN_FAULTS = {
    "sparse-counts": frozenset({"ccd"}),
    "small-plan": frozenset({"m006-i01-ccd", "m007-i01-ccd", "m008-i01-ccd"}),
}


def kl_divergence(V, WH) -> float:
    """sum(V log(V / WH) - V + WH); +inf when WH vanishes where V > 0."""
    V = np.asarray(V, dtype=np.float64)
    WH = np.asarray(WH, dtype=np.float64)
    with np.errstate(divide="ignore"):
        return float(np.sum(xlogy(V, V) - xlogy(V, WH) - V + WH))


def kl_normalizer(V) -> float:
    """sum(V log(V / row mean of V)), the relative-error denominator."""
    V = np.asarray(V, dtype=np.float64)
    means = V.mean(axis=1, keepdims=True)
    return float(np.sum(xlogy(V, V) - xlogy(V, np.broadcast_to(means, V.shape))))


def relative_error(V, W, H) -> float:
    return kl_divergence(V, np.asarray(W) @ np.asarray(H)) / kl_normalizer(V)


def check_solve(V, W, H, epsilon, reported, target, objectives=None) -> list[str]:
    """Check one finished solve.

    ``reported`` is the relative error the program gives for the returned
    factors and ``target`` the error the solve had to reach. ``objectives``,
    when given, is the recorded objective sequence of a run that must never
    increase.
    """
    problems = []
    for name, factor in (("W", W), ("H", H)):
        factor = np.asarray(factor)
        if not np.all(np.isfinite(factor)):
            problems.append(f"{name} has non-finite entries")
        elif factor.min() < epsilon:
            problems.append(
                f"{name} has an entry {factor.min()!r} below epsilon {epsilon!r}")
    if problems:
        return problems
    own = relative_error(V, W, H)
    if not math.isclose(own, reported, rel_tol=ERROR_RTOL):
        problems.append(
            f"reported relative error {reported!r} differs from the "
            f"recomputed {own!r}")
    if not own <= target * (1 + ERROR_RTOL):
        problems.append(f"relative error {own!r} is above the target {target!r}")
    if objectives is not None:
        problems += check_monotone(objectives)
    return problems


def check_monotone(objectives) -> list[str]:
    for step, (a, b) in enumerate(zip(objectives, objectives[1:]), start=1):
        if b > a * (1 + MONOTONE_SLACK):
            return [f"objective increased at sweep {step}: {a!r} -> {b!r}"]
    return []


def is_known_fault(workload: str, operation: str, message: str) -> bool:
    """Whether ``operation`` of ``workload`` failed through the kept fault."""
    return (operation in KNOWN_FAULTS.get(workload, ())
            and KNOWN_FAULT_TEXT in message)


def check_plan(results, report, loaded_results) -> list[str]:
    """Check a bench plan's report and archive against its raw results.

    ``results`` are the RunResults ``execute`` produced, ``report`` its report
    tree and ``loaded_results`` what ``load_archive`` read back.
    """
    problems = []
    for res in results:
        if res.failure is not None and not is_known_fault(
                "small-plan", res.run_id, res.failure):
            problems.append(f"run {res.run_id} failed: {res.failure}")
    by_class: dict[str, dict[str, list[float]]] = {}
    groups: dict[str, set] = {}
    for res in results:
        by_class.setdefault(res.class_label, {}).setdefault(
            res.solver, []).append(res.final_error)
        groups.setdefault(res.class_label, set()).add((res.matrix_id, res.init_id))
    if set(report) != set(by_class):
        problems.append(f"report classes {sorted(report)} != {sorted(by_class)}")
        return problems
    for label, per_solver in by_class.items():
        if set(report[label]) != set(per_solver):
            problems.append(f"report solvers for {label} differ from the results")
            continue
        for solver, errors in per_solver.items():
            entry = report[label][solver]
            mean = math.inf if any(math.isinf(e) for e in errors) \
                else math.fsum(errors) / len(errors)
            if not (mean == entry["mean"] or math.isclose(mean, entry["mean"], rel_tol=1e-12)):
                problems.append(
                    f"mean of {solver} on {label}: report {entry['mean']!r}, "
                    f"results {mean!r}")
            if sum(entry["ranking"]) != len(groups[label]):
                problems.append(
                    f"ranking of {solver} on {label} sums to "
                    f"{sum(entry['ranking'])}, not {len(groups[label])} groups")
    if list(loaded_results) != list(results):
        problems.append("load_archive did not return the results execute produced")
    return problems
