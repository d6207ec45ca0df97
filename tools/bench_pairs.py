"""Compare two checkouts on klbench in alternating pairs and write BENCH_<n>.json.

    mkdir ../cmp
    git archive --prefix=parent/ <parent-commit> | tar x -C ../cmp
    git archive --prefix=change/ <change-commit> | tar x -C ../cmp
    git archive --prefix=control/ <parent-commit> | tar x -C ../cmp
    python3 tools/bench_pairs.py --parent ../cmp/parent --change ../cmp/change \\
        --control ../cmp/control --first-seed 61 --pairs 10 \\
        --traced-seed 71 72 73 --what "..." --out BENCH_<n>.json

For every workload and seed it runs ``python3 klbench/run.py --workload <w>
--seed <s> --seconds <t> --trace 0`` once in each checkout, one process at a
time. The control is a second extraction of the parent, an A/A side: what
it reads against the parent is what identical code reads, the noise floor
for the change's figures. The three sides run in the order of the
permutation ``seed % 6`` of (parent, change, control), so over six seeds
each side runs before each other side three times. Each side reads its own
``klbench/`` and ``src/``, so each measures with the benchmark code of its
own commit; compare commits whose ``klbench/`` is the same. With
``--traced-seed`` each side then makes one traced run per workload and
traced seed, grouped and summarized the same way, for the per-layer
figures.

The output has the shape of the earlier ``BENCH_<n>.json`` files: per
workload and end-to-end metric, each side's median, quartiles
(``numpy.percentile``, linear) and runs, how many pairs the change won
(ties count for neither) and the ratio of the medians, and the same two
figures for the control against the parent, and a ``verdict``; the
correctness and failure counts of every run; the minor page faults per
solve; and the machine.

The verdict is the claim rule. A metric is ``faster`` (better, in the
direction ``BENCHMARK.json`` gives it) when it has at least 10 pairs, the
change wins at least 9 of 10 of them, ties counting for neither side, its
median over the parent's lies further from 1 than the control's does, and
its median lies further from the parent's than the parent's quartiles lie
from each other
(|change median - parent median| > parent q3 - q1); it is ``slower`` when
the parent wins that share and the same holds of the medians; otherwise it
is ``within noise``. So a change is called only when it beats, in almost
every pair, what identical code reads against itself, by more than the
spread of the parent's own runs. Fewer than 10 pairs, as in the traced
groups with one pair per traced seed, always read ``within noise``: 3 of 3
wins is what a layer of unchanged code reads often enough.

The ``control_verdict`` is the same rule applied to the control against the
parent, with no third side: ``faster`` (``slower``) when, of at least 10
pairs, the control wins (loses) at least 9 of 10 and its median lies
further from the parent's than the parent's q3 - q1; otherwise ``within
noise``. Identical code should read ``within noise`` on every metric; a
metric that does not is one whose noise the claim rule does not cover.
With ``--work`` every run's record is kept in that directory and a rerun
skips the runs already recorded there.
"""
from __future__ import annotations

import argparse
import itertools
import json
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

WORKLOADS = ("dense-poisson", "sparse-counts", "small-plan")
SIDES = ("parent", "change", "control")
#: The run order of the sides, by seed modulo 6.
ORDERS = tuple(itertools.permutations(SIDES))
KINDS = ("mu", "bmd", "sn", "snmu", "ccd")
COMMAND = "python3 klbench/run.py --workload {workload} --seed {seed} " \
          "--seconds {seconds:g} --trace {trace}"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout of the change")
    parser.add_argument("--control", type=Path, required=True,
                        help="a second checkout of the parent commit")
    parser.add_argument("--out", type=Path, required=True,
                        help="the BENCH_<n>.json file to write")
    parser.add_argument("--what", required=True,
                        help="one line on what the change does")
    parser.add_argument("--first-seed", type=int, default=61)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--traced-seed", type=int, nargs="+", default=[],
                        help="seeds of the traced runs, one run per seed, "
                             "side and workload")
    parser.add_argument("--work", type=Path,
                        help="directory that keeps every run's record")
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    for side in SIDES:
        if not (getattr(args, side) / "klbench" / "run.py").is_file():
            parser.error(f"--{side} {getattr(args, side)} has no klbench/run.py")
    return args


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One klbench run: its printed summary plus its full result file."""
    command = COMMAND.format(workload=workload, seed=seed, seconds=seconds,
                             trace=trace)
    proc = subprocess.run(command.split(), cwd=checkout, capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{command} in {checkout} exited with "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    path = checkout / "klbench" / "out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    with open(path) as fh:
        result = json.load(fh)
    return {"summary": summary, "result": result, "stderr": proc.stderr}


def recorded_run(work: Path | None, side: str, checkout: Path, workload: str,
                 seed: int, seconds: float, trace: int) -> dict:
    """``run_once``, read from ``work`` when that run was recorded before."""
    path = None if work is None else \
        work / f"{side}-{workload}-seed{seed}-trace{trace}.json"
    if path is not None and path.is_file():
        with open(path) as fh:
            return json.load(fh)
    print(f"bench_pairs: {side} {workload} seed {seed} trace {trace}",
          file=sys.stderr, flush=True)
    record = run_once(checkout, workload, seed, seconds, trace)
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(record, fh)
    return record


def spread(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "runs": list(values)}


def failed_of_attempted(summary: dict) -> str:
    return f"{summary['failed']}/{summary['attempted']}"


def minor_faults(result: dict) -> dict:
    """Median minor page faults per solve of each kind in one run."""
    samples = result.get("samples", {})
    return {f"{kind}.minor_faults": float(statistics.median(samples[name]))
            for kind in KINDS
            if (name := f"{kind}.minor_faults") in samples and samples[name]}


def verdict(wins: int, losses: int, pairs: int, change: float,
            control: float, iqr: float, sign: float) -> str:
    """The claim rule of the module docstring. ``wins`` and ``losses`` are
    the pairs, of ``pairs`` (at least 10 for any verdict but ``within
    noise``), the change reads better and worse than the parent in,
    ``change`` and ``control`` the ratios of their medians to the parent's,
    ``iqr`` the parent's q3 - q1 over its median, and ``sign`` is 1 where
    lower is better, -1 where higher is. The control's own verdict passes
    the control as ``change`` and 1.0 as ``control``."""
    if pairs < 10 or abs(change - 1) <= max(abs(control - 1), iqr):
        return "within noise"
    if 10 * wins >= 9 * pairs and sign * (change - 1) < 0:
        return "faster"
    if 10 * losses >= 9 * pairs and sign * (change - 1) > 0:
        return "slower"
    return "within noise"


def compare(pairs: list[dict], better: dict[str, str]) -> dict:
    """One workload's entry from its pairs, each {side: run} for every side."""
    entry = {
        "pairs": len(pairs),
        "correct": {side: [p[side]["summary"]["correct"] for p in pairs]
                    for side in SIDES},
        "failed_of_attempted": {side: [failed_of_attempted(p[side]["summary"])
                                       for p in pairs] for side in SIDES},
        "metrics": {},
    }
    names = [name for name in pairs[0]["parent"]["summary"]["metrics"]
             if all(name in p[side]["summary"]["metrics"]
                    for p in pairs for side in SIDES)]
    for name in names:
        values = {side: [p[side]["summary"]["metrics"][name]["value"] for p in pairs]
                  for side in SIDES}
        sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
        medians = {side: spread(values[side]) for side in SIDES}
        metric = {**medians,
                  "unit": pairs[0]["parent"]["summary"]["metrics"][name]["unit"]}
        wins, losses = {}, {}
        for side in SIDES[1:]:
            wins[side] = sum(sign * (c - p) < 0
                             for p, c in zip(values["parent"], values[side]))
            losses[side] = sum(sign * (c - p) > 0
                               for p, c in zip(values["parent"], values[side]))
            metric[f"{side}_wins"] = f"{wins[side]}/{len(pairs)}"
            metric[f"{side}_over_parent_median"] = \
                medians[side]["median"] / medians["parent"]["median"]
        parent = medians["parent"]
        iqr = (parent["q3"] - parent["q1"]) / parent["median"]
        control = metric["control_over_parent_median"]
        metric["verdict"] = verdict(
            wins["change"], losses["change"], len(pairs),
            metric["change_over_parent_median"], control, iqr, sign)
        # The control against the parent, with no third side to beat.
        metric["control_verdict"] = verdict(
            wins["control"], losses["control"], len(pairs), control, 1.0, iqr,
            sign)
        entry["metrics"][name] = metric
    faults = {side: [minor_faults(p[side]["result"]) for p in pairs] for side in SIDES}
    entry["minor_faults"] = {
        name: {side: float(statistics.median(run[name] for run in faults[side]))
               for side in SIDES}
        for name in faults["parent"][0]
        if all(name in run for side in SIDES for run in faults[side])}
    return entry


def machine(result: dict) -> dict:
    """The run's machine block without what changes from run to run."""
    return {k: v for k, v in result["machine"].items() if k != "loadavg_at_start"}


def main(argv=None) -> int:
    args = _parse(argv)
    checkouts = {side: getattr(args, side).resolve() for side in SIDES}
    with open(checkouts["change"] / "BENCHMARK.json") as fh:
        manifest = json.load(fh)
    better = {m["name"]: m["better"]
              for m in manifest["end_to_end"] + manifest["per_layer"]}
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))

    def paired(workload, seeds, trace):
        pairs = []
        for seed in seeds:
            order = ORDERS[seed % len(ORDERS)]
            pairs.append({side: recorded_run(args.work, side, checkouts[side],
                                             workload, seed, args.seconds, trace)
                          for side in order})
        return pairs

    workloads, host = {}, None
    for workload in args.workloads:
        pairs = paired(workload, seeds, 0)
        host = host or machine(pairs[0]["change"]["result"])
        workloads[workload] = compare(pairs, better)
    bench = {
        "what": args.what,
        "command": COMMAND.format(workload="<w>", seed="<s>", seconds=args.seconds,
                                  trace=0),
        "pairs": "one parent, one change and one control run per seed, in the "
                 "order of permutation seed % 6 of (parent, change, control); "
                 "one process at a time",
        "control": "a second extraction of the parent commit; its figures "
                   "against the parent are what identical code reads",
        "seeds": seeds,
        "statistic": "median and quartiles (numpy.percentile, linear) over the "
                     "runs of each side; wins counts pairs where the change (the "
                     "control) reads better than the parent, ties for neither; "
                     "minor_faults are per-solve medians "
                     "of each run's solves, then the median over runs",
        "claim_rule": "verdict faster (slower): of at least 10 pairs, the "
                      "change wins (loses) at least 9 of 10, ties for "
                      "neither, its median "
                      "ratio to the parent lies further from 1 than the "
                      "control's, and its median lies further from the "
                      "parent's than the parent's q3 - q1; otherwise within "
                      "noise. control_verdict: the same rule for the control "
                      "against the parent, with no third side",
        "machine": host,
        "workloads": workloads,
    }
    if args.traced_seed:
        bench["traced"] = {
            "command": COMMAND.format(workload="<w>", seed="<s>",
                                      seconds=args.seconds, trace=1),
            "seeds": args.traced_seed,
            "note": "one traced run per side, workload and seed, paired and "
                    "summarized as the untraced runs are; each run's per-layer "
                    "figures are medians of self time per call",
            "workloads": {workload: compare(paired(workload, args.traced_seed, 1),
                                            better)
                          for workload in args.workloads},
        }
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    for workload, entry in workloads.items():
        for name, metric in entry["metrics"].items():
            print(f"{workload:14s} {name:14s} parent {metric['parent']['median']:.4g} "
                  f"change {metric['change']['median']:.4g} "
                  f"wins {metric['change_wins']} "
                  f"control {metric['control']['median']:.4g} "
                  f"wins {metric['control_wins']} {metric['verdict']} "
                  f"(control {metric['control_verdict']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
