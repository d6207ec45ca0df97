"""Benchmark of klnmf: per-solver time to a fixed target, and a bench plan.

    python3 klbench/run.py --workload dense-poisson --seed 1 --seconds 30 --trace 0
    python3 klbench/run.py --toy            # every workload and check, in seconds

Run from the root of a checkout. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics BENCHMARK.json lists with ``--trace 0``, its
per-layer ones with ``--trace 1``. The machine, the checks' problems, notes
and every other measured figure go to standard error and to
``klbench/out/result-*.json``. See ``klbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys

import bootstrap

WORKLOADS = ("dense-poisson", "sparse-counts", "small-plan")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the solves inside each round")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the timed rounds run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy-size instances; without --workload, run all")
    args = parser.parse_args(argv)
    if args.workload is None and not args.toy:
        parser.error("--workload is required unless --toy is given")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def machine() -> dict:
    """Versions, cores and load; read before any work so the load is the start's."""
    import numpy

    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "platform": platform.platform(),
        "threads": {name: os.environ[name] for name in bootstrap.THREAD_VARS},
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["blas"] = "unknown"
    return info


def manifest_names(trace: int) -> list[str]:
    """The metric names BENCHMARK.json lists for ``--trace 0`` or ``--trace 1``."""
    with open(bootstrap.ROOT / "BENCHMARK.json") as fh:
        manifest = json.load(fh)
    return [entry["name"] for entry in manifest["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    args = _parse(argv)
    malloc_fixed = bootstrap.prepare()
    host = {**machine(), "malloc_mmap_threshold_fixed": malloc_fixed}
    import workloads

    names = [args.workload] if args.workload else list(WORKLOADS)
    seconds = args.seconds if args.workload or not args.toy else 0.2
    results = {}
    for name in names:
        for trace in ((args.trace,) if args.workload else (0, 1)):
            result = workloads.measure(name, args.seed, seconds, bool(trace), args.toy)
            tag = f"{name}{'-toy' if args.toy else ''}-seed{args.seed}-trace{trace}"
            with open(bootstrap.OUT_DIR / f"result-{tag}.json", "w") as fh:
                json.dump({"machine": host, "workload": name, "seed": args.seed,
                           "seconds": seconds, "trace": trace, **result}, fh, indent=1)
            for line in result["problems"] + result["notes"]:
                print(f"klbench {tag}: {line}", file=sys.stderr)
            results[tag] = result
    print(f"klbench machine: {json.dumps(host)}", file=sys.stderr)
    if args.workload:
        result = results[tag]
        names = manifest_names(args.trace)
        for name in names:
            if name not in result["metrics"]:
                print(f"klbench {tag}: metric {name} was not measured", file=sys.stderr)
        metrics = {name: result["metrics"][name] for name in names
                   if name in result["metrics"]}
        print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": metrics}))
        return 0
    for tag, result in results.items():
        print(f"{tag}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} metrics={len(result['metrics'])}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
