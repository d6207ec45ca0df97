"""Run orchestration: generate instances, run every solver on shared inits,
persist the traces, and build the statistics report.

Within one (matrix, init) group every solver starts from the bit-identical
initialization, and all runs share the plan's time budget. Runs are
independent, so a plan can fan out over worker processes; trace collection
and writing stay in the parent. Reruns of the same plan and seed reproduce
every final error bitwise provided the runs are iteration-capped (a
wall-clock stop makes the sweep count timing-dependent).
"""
from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .benchstats import (RunResult, excess_error_curves, median_curve,
                         performance_profile, ranking_vectors, summary_stats)
from .errors import MatrixFileError
from .matrices import ProblemInstance
from .matrixio import load_matrix
from .objective import KLObjective
from .solver import SolverConfig, run
from .synthetic import SyntheticSpec, generate, init_random_scaled
from .traces import RunTrace, TraceSample, read_traces, write_traces

TRACES_FILE = "traces.csv"
RUNS_FILE = "runs.json"
REPORT_FILE = "report.json"
#: The performance profiles of a report sample rho at ``RHO_POINTS`` even
#: steps from 0 to ``RHO_MAX``; ``klnmf report --what profile`` takes its own
#: maximum.
RHO_MAX, RHO_POINTS = 1.0, 101


@dataclass(frozen=True)
class FileMatrix:
    """A data matrix loaded from disk rather than generated."""

    path: str
    label: str = "files"

    def to_dict(self) -> dict:
        return {"path": self.path, "label": self.label}


@dataclass(frozen=True)
class BenchPlan:
    """One benchmark campaign: matrices x inits x solvers under a shared
    time budget and seed."""

    matrices: tuple
    inits_per_matrix: int
    solvers: tuple[SolverConfig, ...]
    time_budget: float
    rank: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "matrices", tuple(self.matrices))
        object.__setattr__(self, "solvers", tuple(self.solvers))
        if self.inits_per_matrix < 1:
            raise ValueError("inits_per_matrix must be >= 1")
        if not self.matrices:
            raise ValueError("plan needs at least one matrix")
        if not self.solvers:
            raise ValueError("plan needs at least one solver")
        kinds = [c.kind for c in self.solvers]
        if len(set(kinds)) != len(kinds):
            raise ValueError("plan solvers must have distinct kinds")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "rank": self.rank,
            "inits_per_matrix": self.inits_per_matrix,
            "time_budget": self.time_budget,
            "matrices": [m.to_dict() for m in self.matrices],
            "solvers": [_config_to_dict(c) for c in self.solvers],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BenchPlan":
        try:
            seed = int(d["seed"])
            rank = int(d["rank"])
            inits = int(d.get("inits_per_matrix", 1))
            budget = float(d.get("time_budget", math.inf))
            matrices = []
            for idx, entry in enumerate(d["matrices"]):
                if "path" in entry:
                    matrices.append(FileMatrix(
                        path=entry["path"],
                        label=entry.get("label", "files")))
                else:
                    spec = dict(entry)
                    spec.setdefault("seed", _derived_seed(seed, 0, idx))
                    matrices.append(SyntheticSpec.from_dict(spec))
            solvers = tuple(SolverConfig(**e) for e in d["solvers"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed plan: {exc}") from exc
        return cls(matrices=tuple(matrices), inits_per_matrix=inits,
                   solvers=solvers, time_budget=budget, rank=rank, seed=seed)

    @classmethod
    def from_json(cls, path) -> "BenchPlan":
        with open(path) as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"malformed plan {path}: {exc}") from exc
        return cls.from_dict(payload)


def _config_to_dict(config: SolverConfig) -> dict:
    d = {"kind": config.kind}
    defaults = SolverConfig(kind=config.kind)
    for field in fields(config):
        value = getattr(config, field.name)
        if value != getattr(defaults, field.name):
            d[field.name] = list(value) if isinstance(value, tuple) else value
    return d


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def _plan_instances(plan: BenchPlan):
    """Materialize (matrix_id, class_label, instance) for every plan entry."""
    out = []
    for idx, entry in enumerate(plan.matrices):
        matrix_id = f"m{idx:03d}"
        if isinstance(entry, FileMatrix):
            if not os.path.exists(entry.path):
                raise MatrixFileError(f"matrix file not found: {entry.path}")
            V, label = load_matrix(entry.path), entry.label
        else:
            V, label = generate(entry), entry.class_label
        out.append((matrix_id, label, ProblemInstance(V=V, rank=plan.rank)))
    return out


def _run_task(args):
    """Execute one (matrix, init, solver) run; never raises.

    Failures become an infinite-error result with a note plus a one-sample
    trace at the initial point, so a diverging solver stays in the tables
    instead of aborting the batch.
    """
    instance, init, config, run_id, matrix_id, init_id, label = args
    failure = None
    try:
        _, trace = run(instance, init, config, run_id=run_id,
                       matrix_id=matrix_id, init_id=init_id)
        final_error, time_to_final = trace.best_error, trace.time_to_best
    except Exception as exc:  # noqa: BLE001 - failures are data here
        objective = KLObjective(instance.V)
        obj = objective.of_factors(init.W.values, init.H.values)
        trace = RunTrace(
            run_id=run_id, solver=config.kind, matrix_id=matrix_id,
            init_id=init_id,
            samples=(TraceSample(0.0, obj, objective.relative(obj)),))
        final_error, time_to_final = math.inf, 0.0
        failure = f"{type(exc).__name__}: {exc}"
    result = RunResult(
        run_id=run_id, solver=config.kind, matrix_id=matrix_id,
        init_id=init_id, class_label=label, final_error=final_error,
        time_to_final=time_to_final, failure=failure)
    return trace, result


@dataclass
class BenchOutcome:
    traces: list
    results: list
    report: dict


def execute(plan: BenchPlan, workers: int = 1) -> BenchOutcome:
    """Run the whole plan and compute its statistics report.

    The runs of one (matrix, init) group share the plan's read-only
    instance and init; ``run`` copies the init before it updates it.
    """
    configs = [replace(c, time_budget=plan.time_budget) for c in plan.solvers]
    tasks = []
    for mat_idx, (matrix_id, label, instance) in enumerate(_plan_instances(plan)):
        m, n = instance.V.shape
        for init_idx in range(plan.inits_per_matrix):
            init_id = f"i{init_idx:02d}"
            init_seed = _derived_seed(plan.seed, 1, mat_idx, init_idx)
            init = init_random_scaled(m, n, plan.rank, instance.V.values,
                                      init_seed)
            for config in configs:
                run_id = f"{matrix_id}-{init_id}-{config.kind}"
                tasks.append((instance, init, config, run_id, matrix_id,
                              init_id, label))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_task, tasks))
    else:
        outcomes = [_run_task(t) for t in tasks]
    traces = [trace for trace, _ in outcomes]
    results = [result for _, result in outcomes]
    report = build_report(results)
    return BenchOutcome(traces=traces, results=results, report=report)


def build_report(results) -> dict:
    """Report tree: {class -> solver -> {mean, std, ranking, profile}}, each
    profile on ``RHO_POINTS`` even steps of rho from 0 to ``RHO_MAX``."""
    rho_grid = np.linspace(0.0, RHO_MAX, RHO_POINTS)
    stats = summary_stats(results)
    report: dict = {}
    for label in stats:
        class_results = [r for r in results if r.class_label == label]
        rankings = ranking_vectors(class_results)
        profiles = performance_profile(class_results, rho_grid)
        report[label] = {}
        for solver, (mean, std) in stats[label].items():
            report[label][solver] = {
                "mean": mean,
                "std": std,
                "ranking": rankings[solver],
                "profile": [[float(rho), float(p)]
                            for rho, p in zip(rho_grid, profiles[solver])],
            }
    return report


def _json_safe(obj):
    """Map inf to the string "inf" and NaN to null for strict-JSON output."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
    return obj


def write_json(path, payload) -> None:
    """Write ``payload`` as sorted, indented strict JSON: inf becomes the
    string "inf" and NaN becomes null."""
    with open(path, "w") as fh:
        json.dump(_json_safe(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _json_restore_floats(value):
    if value is None:
        return math.nan
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return float(value)


def save_archive(outcome: BenchOutcome, out_dir, plan: BenchPlan | None = None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_traces(os.path.join(out_dir, TRACES_FILE), outcome.traces)
    runs_payload = {"runs": [r.to_dict() for r in outcome.results]}
    if plan is not None:
        runs_payload["plan"] = plan.to_dict()
    write_json(os.path.join(out_dir, RUNS_FILE), runs_payload)
    write_json(os.path.join(out_dir, REPORT_FILE), outcome.report)


def load_archive(archive_dir):
    """Read back (traces, results) from a saved archive directory."""
    traces_path = os.path.join(archive_dir, TRACES_FILE)
    runs_path = os.path.join(archive_dir, RUNS_FILE)
    if not os.path.exists(traces_path) or not os.path.exists(runs_path):
        raise MatrixFileError(f"archive not found at {archive_dir}")
    traces = read_traces(traces_path)
    with open(runs_path) as fh:
        payload = json.load(fh)
    results = []
    for entry in payload["runs"]:
        entry = dict(entry)
        entry["final_error"] = _json_restore_floats(entry["final_error"])
        entry["time_to_final"] = _json_restore_floats(entry["time_to_final"])
        results.append(RunResult.from_dict(entry))
    return traces, results


def etcurve_rows(traces, running_best: bool = False, median_grid: int = 0):
    """Rows for the shifted-curve CSV, grouped per matrix.

    With ``median_grid`` > 0, per-solver median curves on a uniform grid are
    appended with run_id "median:<solver>".
    """
    by_matrix: dict[str, list] = {}
    for trace in traces:
        by_matrix.setdefault(trace.matrix_id, []).append(trace)
    rows = []
    for matrix_id in sorted(by_matrix):
        group = by_matrix[matrix_id]
        _, curves = excess_error_curves(group, running_best=running_best)
        for trace, (times, values) in zip(group, curves):
            for t, v in zip(times, values):
                rows.append((trace.run_id, trace.solver, matrix_id,
                             trace.init_id, float(t), float(v)))
        if median_grid > 0:
            horizon = max(float(times[-1]) for times, _ in curves)
            grid = np.linspace(0.0, horizon, median_grid)
            solvers = sorted({t.solver for t in group})
            for solver in solvers:
                chosen = [c for t, c in zip(group, curves) if t.solver == solver]
                med = median_curve(chosen, grid)
                for t, v in zip(grid, med):
                    rows.append((f"median:{solver}", solver, matrix_id, "",
                                 float(t), float(v)))
    return rows
