"""Command-line interface: generate data, solve one instance, run benchmark
plans, and regenerate reports from stored traces.

Exit codes: 0 success, 1 usage error, 2 data error, 3 solver failure.
Seeds are always printed so every invocation can be reproduced from its
manifest line. The bench worker count is --workers if given, else the
KLNMF_THREADS environment variable, else 1; --fair-timing caps it at the
physical core count.
"""
from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import benchmark
from .benchstats import performance_profile, ranking_vectors, summary_stats
from .errors import MatrixFileError, SolverInitError
from .matrices import ProblemInstance
from .matrixio import load_matrix, save_matrix
from .objective import KLObjective, kkt_residual
from .solver import SOLVER_KINDS, SolverConfig, run
from .synthetic import SyntheticSpec, gen_full_rank, gen_low_rank, poissonize
from .synthetic import init_random_scaled

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SOLVER = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap to the usage code.
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="klnmf", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    gen = sub.add_parser("generate", help="write a synthetic data matrix")
    gen.add_argument("--kind", choices=("low-rank", "full-rank"), required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--rank", type=int, help="ground-truth rank (low-rank only)")
    gen.add_argument("--density", type=float,
                     help="fraction of nonzeros in each factor (low-rank only)")
    gen.add_argument("--noise", choices=("none", "poisson"), default="none")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--format", choices=("matrixmarket", "csv"),
                     default="matrixmarket")

    solve = sub.add_parser("solve", help="factorize one matrix")
    solve.add_argument("--matrix", required=True)
    solve.add_argument("--rank", type=int, required=True)
    solve.add_argument("--solver", choices=SOLVER_KINDS, required=True)
    solve.add_argument("--epsilon", type=float, default=None)
    solve.add_argument("--max-iters", type=int, default=1000)
    solve.add_argument("--time-budget", type=float, default=math.inf)
    solve.add_argument("--tol", type=float, default=None,
                       help="stop when the relative objective decrease per "
                            "sweep falls below this")
    solve.add_argument("--kkt-tol", type=float, default=None)
    solve.add_argument("--inner-repeats", type=int, default=3)
    solve.add_argument("--snmu-cycle", default="10:1",
                       help="Newton sweeps : multiplicative steps per cycle")
    solve.add_argument("--record-every", type=int, default=1)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--out-factors", default=None,
                       help="prefix for <prefix>.W.mtx / <prefix>.H.mtx")
    solve.add_argument("--out-trace", default=None)

    bench = sub.add_parser("bench", help="run a benchmark plan")
    bench.add_argument("--plan", required=True)
    bench.add_argument("--workers", type=int, default=None)
    bench.add_argument("--fair-timing", action="store_true",
                       help="cap workers at the physical core count")
    bench.add_argument("--out-dir", required=True)

    report = sub.add_parser("report", help="recompute statistics from an archive")
    report.add_argument("--archive", required=True)
    report.add_argument("--what", choices=("etcurves", "profile", "ranking",
                                           "summary"), required=True)
    report.add_argument("--rho-max", type=float, default=benchmark.RHO_MAX)
    report.add_argument("--median-grid", type=int, default=0,
                        help="append per-solver median curves on this many "
                             "grid points (etcurves only)")
    report.add_argument("--running-best", action="store_true",
                        help="shift running-best errors instead of "
                             "instantaneous ones (etcurves only)")
    report.add_argument("--out", required=True)
    return parser


def _fmt(value: float) -> str:
    return repr(float(value))


def cmd_generate(ns) -> int:
    if ns.kind == "full-rank":
        for flag in ("rank", "density"):
            if getattr(ns, flag) is not None:
                print(f"error: --{flag} contradicts --kind full-rank",
                      file=sys.stderr)
                return EXIT_USAGE
    else:
        if ns.rank is None:
            print("error: --rank is required for --kind low-rank",
                  file=sys.stderr)
            return EXIT_USAGE
    density = 1.0 if ns.density is None else ns.density
    try:
        spec = SyntheticSpec(kind=ns.kind, m=ns.m, n=ns.n,
                             r_true=1 if ns.rank is None else ns.rank,
                             density=density, noise=ns.noise, seed=ns.seed)
    except ValueError as exc:
        flag = "--density" if "density" in str(exc) else "--kind/--m/--n/--rank"
        print(f"error: {exc} (check {flag})", file=sys.stderr)
        return EXIT_USAGE

    stem, ext = os.path.splitext(ns.out)
    written = []

    def emit(matrix, path):
        save_matrix(matrix, path, format=ns.format)
        written.append(path)

    if ns.kind == "low-rank":
        W, H, V = gen_low_rank(spec)
        emit(V, ns.out)
        emit(W, f"{stem}.W{ext}")
        emit(H, f"{stem}.H{ext}")
    else:
        V = gen_full_rank(spec)
        emit(V, ns.out)
    if ns.noise == "poisson":
        emit(poissonize(V.values, spec.seed), f"{stem}.poisson{ext}")
    print(f"generate kind={spec.kind} m={spec.m} n={spec.n} "
          f"r_true={spec.r_true} density={spec.density:g} noise={spec.noise} "
          f"seed={spec.seed} format={ns.format} files={','.join(written)}")
    return EXIT_OK


def _parse_cycle(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"--snmu-cycle must look like '10:1', got {text!r}")
    return int(parts[0]), int(parts[1])


def cmd_solve(ns) -> int:
    try:
        V = load_matrix(ns.matrix)
    except (OSError, MatrixFileError) as exc:
        print(f"error: cannot read matrix {ns.matrix}: {exc}", file=sys.stderr)
        return EXIT_DATA
    try:
        cycle = _parse_cycle(ns.snmu_cycle)
        config = SolverConfig(
            kind=ns.solver, epsilon=ns.epsilon,
            max_outer_iters=ns.max_iters, time_budget=ns.time_budget,
            objective_tol=ns.tol, kkt_tol=ns.kkt_tol,
            inner_repeats=ns.inner_repeats, snmu_cycle=cycle,
            record_every=ns.record_every)
        instance = ProblemInstance(V=V, rank=ns.rank)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"solve matrix={ns.matrix} rank={ns.rank} solver={ns.solver} "
          f"epsilon={config.resolved_epsilon()!r} seed={ns.seed}")
    started = time.perf_counter()
    try:
        init = init_random_scaled(V.rows, V.cols, ns.rank, V.values, ns.seed)
        pair, trace = run(instance, init, config)
    except (SolverInitError, ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"error: solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    wall = time.perf_counter() - started
    # Every figure describes the returned (best) iterate; for ccd the last
    # sweep may have ended above it.
    W, H = pair.W.values, pair.H.values
    objective = KLObjective(V)
    final = objective.of_factors(W, H)
    residual = kkt_residual(V.values, W, H, config.resolved_epsilon(),
                            objective)
    print(f"objective={_fmt(final.as_float())} "
          f"rel_error={_fmt(objective.relative(final))} "
          f"kkt_residual={_fmt(residual)} wall_s={wall:.3f} "
          f"sweeps={trace.samples[-1].sweep}")
    if ns.out_factors:
        save_matrix(pair.W, f"{ns.out_factors}.W.mtx")
        save_matrix(pair.H, f"{ns.out_factors}.H.mtx")
    if ns.out_trace:
        from .traces import write_traces
        write_traces(ns.out_trace, [trace])
    return EXIT_OK


def _physical_cores() -> int:
    """Distinct (package, core) pairs in the Linux CPU topology; the logical
    CPU count where that topology cannot be read."""
    cores = set()
    for topology in Path("/sys/devices/system/cpu").glob("cpu[0-9]*/topology"):
        try:
            cores.add(((topology / "physical_package_id").read_text().strip(),
                       (topology / "core_id").read_text().strip()))
        except OSError:
            continue
    return len(cores) or os.cpu_count() or 1


def _worker_count(ns) -> int:
    workers = ns.workers
    if workers is None:
        env = os.environ.get("KLNMF_THREADS") or "1"
        try:
            workers = int(env)
        except ValueError:
            raise _UsageError(f"KLNMF_THREADS must be an integer, got {env!r}")
    workers = max(1, workers)
    if ns.fair_timing:
        workers = min(workers, _physical_cores())
    return workers


def cmd_bench(ns) -> int:
    try:
        plan = benchmark.BenchPlan.from_json(ns.plan)
    except OSError as exc:
        print(f"error: cannot read plan {ns.plan}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    workers = _worker_count(ns)
    try:
        outcome = benchmark.execute(plan, workers=workers)
    except MatrixFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    benchmark.save_archive(outcome, ns.out_dir, plan=plan)
    print(f"bench plan={ns.plan} seed={plan.seed} workers={workers} "
          f"runs={len(outcome.results)} out={ns.out_dir}")
    print(f"{'class':24s} {'solver':8s} {'mean':>12s} {'std':>12s} {'1st':>5s}")
    for label, per_solver in outcome.report.items():
        for solver, node in per_solver.items():
            std = node["std"]
            std_text = "n/a" if math.isnan(std) else f"{std:12.4e}"
            print(f"{label:24s} {solver:8s} {node['mean']:12.4e} "
                  f"{std_text:>12s} {node['ranking'][0]:5d}")
    return EXIT_OK


def cmd_report(ns) -> int:
    try:
        traces, results = benchmark.load_archive(ns.archive)
    except (OSError, MatrixFileError, ValueError) as exc:
        print(f"error: cannot load archive {ns.archive}: {exc}", file=sys.stderr)
        return EXIT_DATA
    if ns.what == "etcurves":
        rows = benchmark.etcurve_rows(traces, running_best=ns.running_best,
                                      median_grid=ns.median_grid)
        with open(ns.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("run_id", "solver", "matrix_id", "init_id",
                             "elapsed_s", "excess_error"))
            for row in rows:
                writer.writerow(row[:4] + tuple(_fmt(x) for x in row[4:]))
    elif ns.what == "profile":
        rho_grid = np.linspace(0.0, ns.rho_max, benchmark.RHO_POINTS)
        profile = performance_profile(results, rho_grid)
        with open(ns.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("solver", "rho", "performance"))
            for solver in sorted(profile):
                for rho, perf in zip(rho_grid, profile[solver]):
                    writer.writerow((solver, _fmt(rho), _fmt(perf)))
    elif ns.what == "ranking":
        benchmark.write_json(ns.out, ranking_vectors(results))
    else:
        stats = summary_stats(results)
        benchmark.write_json(ns.out, {
            label: {solver: {"mean": mean, "std": std}
                    for solver, (mean, std) in per_solver.items()}
            for label, per_solver in stats.items()})
    print(f"report what={ns.what} archive={ns.archive} out={ns.out}")
    return EXIT_OK


_COMMANDS = {
    "generate": cmd_generate,
    "solve": cmd_solve,
    "bench": cmd_bench,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        return _COMMANDS[ns.subcommand](ns)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
