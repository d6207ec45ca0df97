"""Evaluation statistics over completed run traces.

Curves are step functions: the error between records equals the last
recorded value, which matches how the monotone solvers behave and is
conservative for the non-monotone one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import DegenerateInputError


@dataclass(frozen=True)
class RunResult:
    """Summary of one run: the error of the solution it kept, and when it
    first reached that error. Failed runs carry an infinite error and a note."""

    run_id: str
    solver: str
    matrix_id: str
    init_id: str
    class_label: str
    final_error: float
    time_to_final: float
    failure: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunResult":
        return cls(**d)


def group_min_error(traces) -> float:
    """Smallest relative error any sample of any trace in the group attains."""
    best = math.inf
    for trace in traces:
        for s in trace.samples:
            best = min(best, s.rel_error)
    if not math.isfinite(best):
        raise DegenerateInputError("every sample in the group is infinite")
    return best


def excess_error_curves(traces, running_best: bool = False,
                        ) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Shift each trace's error curve by the best value in the whole group.

    The group should contain every trace for one data matrix (all solvers,
    all inits); the returned curves then touch 0 somewhere. By default the
    instantaneous recorded errors are shifted; ``running_best`` uses the
    running minimum instead (only relevant for non-monotone solvers).
    """
    shift = group_min_error(traces)
    curves = []
    for trace in traces:
        times = np.array([s.elapsed_s for s in trace.samples])
        values = np.array([s.rel_error for s in trace.samples])
        if running_best:
            values = np.minimum.accumulate(values)
        curves.append((times, values - shift))
    return shift, curves


def median_curve(curves, time_grid) -> np.ndarray:
    """Pointwise median of curves resampled onto ``time_grid``.

    Resampling holds the previous sample (grid points before a curve's first
    sample take its first value).
    """
    time_grid = np.asarray(time_grid, dtype=np.float64)
    if time_grid.size == 0:
        raise ValueError("empty time grid")
    if not curves:
        raise ValueError("no curves to aggregate")
    resampled = np.empty((len(curves), time_grid.size))
    for row, (times, values) in enumerate(curves):
        idx = np.searchsorted(times, time_grid, side="right") - 1
        np.clip(idx, 0, len(values) - 1, out=idx)
        resampled[row] = np.asarray(values)[idx]
    return np.median(resampled, axis=0)


def _grouped(results) -> dict[tuple[str, str], dict[str, RunResult]]:
    groups: dict[tuple[str, str], dict[str, RunResult]] = {}
    for res in results:
        key = (res.matrix_id, res.init_id)
        bucket = groups.setdefault(key, {})
        if res.solver in bucket:
            raise ValueError(
                f"solver {res.solver!r} appears twice in group {key}")
        bucket[res.solver] = res
    return groups


def ranking_vectors(results) -> dict[str, list[int]]:
    """Per-solver counts of finishing 1st, 2nd, ... within each (matrix, init)
    group, ordered by final error with ties broken by the earlier time to
    reach it and then by solver name."""
    groups = _grouped(results)
    solvers = sorted({res.solver for res in results})
    counts = {s: [0] * len(solvers) for s in solvers}
    for key, bucket in groups.items():
        missing = [s for s in solvers if s not in bucket]
        if missing:
            raise ValueError(f"group {key} is missing solver {missing[0]!r}")
        order = sorted(bucket.values(),
                       key=lambda r: (r.final_error, r.time_to_final, r.solver))
        for position, res in enumerate(order):
            counts[res.solver][position] += 1
    return counts


def performance_profile(results, rho_grid) -> dict[str, np.ndarray]:
    """Fraction of each solver's runs within rho of its group's best error.

    Failed (infinite-error) runs count as never within any finite rho, so a
    solver with failures tops out below 1.
    """
    rho_grid = np.asarray(rho_grid, dtype=np.float64)
    if rho_grid.size == 0:
        raise ValueError("empty rho grid")
    groups = _grouped(results)
    excesses: dict[str, list[float]] = {}
    for bucket in groups.values():
        best = min(res.final_error for res in bucket.values())
        for res in bucket.values():
            if math.isfinite(res.final_error):
                excess = res.final_error - best
            else:
                excess = math.inf
            excesses.setdefault(res.solver, []).append(excess)
    profile = {}
    for solver, values in sorted(excesses.items()):
        within = np.array(values)[:, None] <= rho_grid
        profile[solver] = np.count_nonzero(within, axis=0) / len(values)
    return profile


def summary_stats(results) -> dict[str, dict[str, tuple[float, float]]]:
    """Sample mean and standard deviation (divisor N-1) of final errors,
    per dataset class and solver. A single run yields a NaN deviation, and
    a failed run among finished ones an infinite mean and a NaN deviation."""
    table: dict[str, dict[str, list[float]]] = {}
    for res in results:
        table.setdefault(res.class_label, {}).setdefault(res.solver, []).append(
            res.final_error)
    out: dict[str, dict[str, tuple[float, float]]] = {}
    for label, per_solver in sorted(table.items()):
        out[label] = {}
        for solver, errors in sorted(per_solver.items()):
            arr = np.array(errors)
            if np.all(arr == arr[0]):  # exact for constant samples
                mean, std = float(arr[0]), 0.0
            elif np.isinf(arr).any():  # inf - inf: no deviation
                mean, std = math.inf, math.nan
            else:
                mean, std = float(arr.mean()), float(arr.std(ddof=1))
            if arr.size < 2:
                std = math.nan
            out[label][solver] = (mean, std)
    return out
