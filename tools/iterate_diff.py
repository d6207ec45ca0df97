"""Dump the outputs of capped runs from one checkout, and compare two dumps.

    mkdir ../cmp
    git archive --prefix=parent/ <parent-commit> | tar x -C ../cmp
    git archive --prefix=change/ <change-commit> | tar x -C ../cmp
    python3 tools/iterate_diff.py dump --checkout ../cmp/parent --out parent.npz
    python3 tools/iterate_diff.py dump --checkout ../cmp/change --out change.npz
    python3 tools/iterate_diff.py compare parent.npz change.npz
    python3 tools/iterate_diff.py dump --checkout ../cmp/parent --out nudged.npz --nudge
    python3 tools/iterate_diff.py compare parent.npz change.npz --floor nudged.npz

``dump`` imports ``klnmf`` from the checkout's ``src/`` and the instances
from its ``klbench/``, with every BLAS pool pinned to one thread, and runs:

- every solver kind on both klbench solve instances, capped at its
  ``sweeps_hint`` + 5 sweeps;
- ``mu``, ``bmd``, ``sn`` and ``ccd`` sweeps (``mu`` and ``sn`` at
  epsilon 0, ``bmd`` and ``ccd`` at machine precision), updating H first
  and then W first, on seeded random data with an empty first row and last
  column, passed as a raw array and transposed;
- every run of ``klbench/plan.json``.

It saves final W and H, every recorded objective, relative error and sweep
index, the plan's final errors and failure notes, and never a timestamp.
``--toy`` runs klbench's toy instances, its toy plan and fewer sweeps, in a
few seconds. Capped runs repeat bitwise, so two dumps of one checkout are
bitwise equal.

``--nudge`` moves every entry of every initial W and H up by one ulp
(``numpy.nextafter`` towards +inf) before the runs and sweeps start. The
compare of a checkout's plain dump with its nudged dump measures how far
rounding alone moves each output: the noise floor against which a change
of summation order is judged.

``compare`` prints, for every array, whether the two dumps hold it bitwise
equal and its largest relative difference, and exits 1 if any array
differs or is missing from one dump. With ``--floor``, a dump of the first
checkout made with ``--nudge``, it also prints for every differing array
the floor (the largest relative difference between the first dump and the
floor dump) and the ratio of the two, and ends with one line per output
class, such as ``plan:sn:final_error``, ``solve:dense-poisson:snmu:H`` or
``sweep:ccd:W``: the largest change over the class's arrays, the largest
floor and their ratio. A change equal to its floor, 0 included, has ratio
1; n/a marks an output that is not numeric.
"""
from __future__ import annotations

import argparse
import math
import sys
import tempfile
from pathlib import Path

KINDS = ("mu", "bmd", "sn", "snmu", "ccd")
#: Seeded data for the single sweeps: (cases, sweeps per case).
SWEEP_CASES = {"full": (20, 3), "toy": (3, 2)}
TOY_CAP = 5


def _load(checkout: Path):
    """Import klbench's bootstrap, instances and the program from ``checkout``."""
    bench = checkout.resolve() / "klbench"
    if not (bench / "bootstrap.py").is_file():
        raise SystemExit(f"iterate_diff: {checkout} has no klbench/bootstrap.py")
    sys.path.insert(0, str(bench))
    import bootstrap
    bootstrap.prepare()
    import instances
    import klnmf
    if Path(klnmf.__file__).resolve().parent != bootstrap.SRC / "klnmf":
        raise SystemExit(f"iterate_diff: imported klnmf from {klnmf.__file__}, "
                         f"not from {bootstrap.SRC}")
    return instances


def _trace_arrays(out: dict, key: str, trace) -> None:
    import numpy as np
    out[f"{key}:objective"] = np.array([s.objective.as_float() for s in trace.samples])
    out[f"{key}:rel_error"] = np.array([s.rel_error for s in trace.samples])
    out[f"{key}:sweep"] = np.array([s.sweep for s in trace.samples])


def _nudged(A):
    """A with every entry one ulp larger."""
    import numpy as np
    return np.nextafter(A, np.inf)


def _nudged_pair(pair):
    from klnmf.matrices import Factorization
    return Factorization(_nudged(pair.W.values), _nudged(pair.H.values))


def _solve_runs(out: dict, instances, toy: bool, nudge: bool, tmp: Path) -> None:
    import numpy as np
    from klnmf.solver import SolverConfig, run
    reference = instances.load_reference()
    for name in instances.SOLVE_WORKLOADS:
        spec = instances.TOY[name] if toy else reference["workloads"][name]
        if name == "sparse-counts":
            path = tmp / f"{name}.mtx"
            instances.write_coordinate(instances.sparse_counts(**spec["data"]), path)
            problem = instances.sparse_setup(spec, path)
        else:
            problem = instances.dense_setup(spec)
        init = _nudged_pair(problem.init) if nudge else problem.init
        for kind in KINDS:
            cap = TOY_CAP if toy else spec["sweeps_hint"][kind] + 5
            key = f"solve:{name}:{kind}"
            try:
                pair, trace = run(problem.instance, init,
                                  SolverConfig(kind=kind, max_outer_iters=cap))
            except Exception as exc:  # noqa: BLE001 - failures are data here
                out[f"{key}:failure"] = np.array(f"{type(exc).__name__}: {exc}")
                continue
            out[f"{key}:W"] = pair.W.values
            out[f"{key}:H"] = pair.H.values
            _trace_arrays(out, key, trace)


def _sweeps(out: dict, toy: bool, nudge: bool) -> None:
    import numpy as np
    from klnmf.mirror import bmd_step
    from klnmf.multiplicative import mu_step
    from klnmf.solver import MACHINE_EPS
    from klnmf.scalar_newton import ccd_sweep, sn_sweep
    from klnmf.state import SolverState
    steps = {"mu": (mu_step, 0.0), "bmd": (bmd_step, MACHINE_EPS),
             "sn": (sn_sweep, 0.0), "ccd": (ccd_sweep, MACHINE_EPS)}
    cases, sweeps = SWEEP_CASES["toy" if toy else "full"]
    rng = np.random.default_rng(20131)
    for case in range(cases):
        m, n = (int(d) for d in rng.integers(2, 31, size=2))
        r = int(rng.integers(1, min(m, n) + 1))
        density = float(rng.choice([0.2, 0.5, 0.8, 1.0]))
        V = rng.uniform(0.0, 3.0, (m, n)) * (rng.random((m, n)) < density)
        V[0] = V[:, -1] = 0.0  # the empty row and column rules of each step
        W = rng.uniform(0.1, 2.0, (m, r))
        H = rng.uniform(0.1, 2.0, (r, n))
        if nudge:
            W, H = _nudged(W), _nudged(H)
        for layout, (data, W0, H0) in {"raw": (V, W, H),
                                       "transposed": (V.T, H.T, W.T)}.items():
            for kind, (step, epsilon) in steps.items():
                for h_first in (True, False):
                    key = f"sweep:{case:02d}:{layout}:{kind}:h_first={h_first}"
                    state = SolverState.from_factors(W0, H0)
                    note = ""
                    try:
                        for _ in range(sweeps):
                            step(data, state, epsilon, h_first=h_first)
                    except Exception as exc:  # noqa: BLE001 - failures are data here
                        note = f"{type(exc).__name__}: {exc}"
                    out[f"{key}:W"] = state.W
                    out[f"{key}:H"] = state.H
                    out[f"{key}:failure"] = np.array(note)


def _plan_runs(out: dict, instances, toy: bool, nudge: bool) -> None:
    import numpy as np
    from klnmf import benchmark
    draw = benchmark.init_random_scaled
    if nudge:
        benchmark.init_random_scaled = lambda *args: _nudged_pair(draw(*args))
    try:
        outcome = benchmark.execute(benchmark.BenchPlan.from_dict(
            instances.load_plan_dict(toy=toy)))
    finally:
        benchmark.init_random_scaled = draw
    for trace, result in zip(outcome.traces, outcome.results):
        key = f"plan:{result.run_id}"
        _trace_arrays(out, key, trace)
        out[f"{key}:final_error"] = np.array(result.final_error)
        out[f"{key}:failure"] = np.array(result.failure or "")


def dump(checkout: Path, path: Path, toy: bool, nudge: bool) -> None:
    instances = _load(checkout)
    import numpy as np
    out: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        _solve_runs(out, instances, toy, nudge, Path(tmp))
    _sweeps(out, toy, nudge)
    _plan_runs(out, instances, toy, nudge)
    np.savez(path, **out)
    print(f"iterate_diff: {len(out)} arrays from {checkout} -> {path}")


def _bitwise_equal(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _largest_relative_difference(a, b) -> float:
    """max |a - b| / max(|a|, |b|) over numeric arrays of one shape, with
    equal entries (infinities included) counting 0; nan if not comparable."""
    import numpy as np
    if a.shape != b.shape or a.dtype.kind not in "biuf" or b.dtype.kind not in "biuf":
        return math.nan
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    equal = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    rel = np.where(equal, 0.0, np.nan_to_num(rel, nan=math.inf))
    return float(rel.max()) if rel.size else 0.0


def _output_class(key: str) -> str:
    """The kind and output of ``key``, without its matrix, init or case."""
    parts = key.split(":")
    if parts[0] == "plan":  # plan:<matrix>-<init>-<kind>:<output>
        return f"plan:{parts[1].rsplit('-', 1)[-1]}:{parts[-1]}"
    if parts[0] == "sweep":  # sweep:<case>:<layout>:<kind>:h_first=<b>:<output>
        return f"sweep:{parts[3]}:{parts[-1]}"
    return key  # solve:<workload>:<kind>:<output>


def _moved(a, b) -> float:
    """0 for bitwise equal arrays, else their largest relative difference."""
    return 0.0 if _bitwise_equal(a, b) else _largest_relative_difference(a, b)


def _ratio(change: float, floor: float) -> float:
    return 1.0 if change == floor else change / floor if floor else math.inf


def _fmt(value: float) -> str:
    return "n/a" if math.isnan(value) else f"{value:.3g}"


def _load_dump(path: Path) -> dict:
    import numpy as np
    with np.load(path) as dump:
        return {k: dump[k] for k in dump.files}


def compare(first: Path, second: Path, floor: Path | None = None) -> int:
    a, b = _load_dump(first), _load_dump(second)
    nudged = None if floor is None else _load_dump(floor)
    classes: dict = {}
    differing = 0
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            differing += 1
            print(f"MISSING  {key}: only in {first if key in a else second}")
            continue
        equal = _bitwise_equal(a[key], b[key])
        differing += not equal
        rel = _largest_relative_difference(a[key], b[key])
        line = (f"{'equal' if equal else 'DIFFERS':8s} {key}: largest relative "
                f"difference {_fmt(rel)}")
        if nudged is not None:
            change = 0.0 if equal else rel
            spread = _moved(a[key], nudged[key]) if key in nudged else math.nan
            if not equal:
                line += f", floor {_fmt(spread)}, ratio {_fmt(_ratio(change, spread))}"
            largest = classes.setdefault(_output_class(key), [0.0, 0.0])
            # max() would drop a nan that comes second.
            largest[0] = math.nan if math.isnan(change) else max(largest[0], change)
            largest[1] = math.nan if math.isnan(spread) else max(largest[1], spread)
        print(line)
    for name, (change, spread) in sorted(classes.items()):
        print(f"class {name}: largest change {_fmt(change)}, largest floor "
              f"{_fmt(spread)}, ratio {_fmt(_ratio(change, spread))}")
    print(f"iterate_diff: {len(a.keys() | b.keys()) - differing} of "
          f"{len(a.keys() | b.keys())} arrays bitwise equal")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    dumper = sub.add_parser("dump", help="run one checkout and save its outputs")
    dumper.add_argument("--checkout", type=Path, required=True)
    dumper.add_argument("--out", type=Path, required=True)
    dumper.add_argument("--toy", action="store_true",
                        help="toy instances, toy plan and fewer sweeps")
    dumper.add_argument("--nudge", action="store_true",
                        help="move every initial factor entry up by one ulp")
    comparer = sub.add_parser("compare", help="compare two dumps array by array")
    comparer.add_argument("first", type=Path)
    comparer.add_argument("second", type=Path)
    comparer.add_argument("--floor", type=Path,
                          help="the first checkout's --nudge dump, to print "
                          "each difference against")
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.checkout, args.out, args.toy, args.nudge)
        return 0
    return compare(args.first, args.second, args.floor)


if __name__ == "__main__":
    sys.exit(main())
