"""Derive each solve workload's reference minimum anew from long runs.

    python3 klbench/reference.py

For each instance, runs every solver from the shared init for the sweep
counts in ``reference.json`` (``long_run_sweeps``), takes the smallest
relative error any of them records as ``ref``, and prints it next to the
stored value, together with each solver's sweeps to ``ref + delta`` (the
stored ``sweeps_hint``) and the instance fingerprint.
"""
from __future__ import annotations

import json
import time

import bootstrap

bootstrap.prepare()

import instances  # noqa: E402 - needs the pinned, located program
import workloads  # noqa: E402


def main() -> None:
    bootstrap.OUT_DIR.mkdir(exist_ok=True)
    reference = instances.load_reference()
    for name in instances.SOLVE_WORKLOADS:
        spec = reference["workloads"][name]
        workload = workloads.make(name, seed=0)
        problem = workload.setup()
        start = time.perf_counter()
        derived = workloads.derive_reference(
            problem, spec["long_run_sweeps"], reference["delta"])
        print(json.dumps({
            "workload": name,
            "derived_ref": derived["ref"],
            "stored_ref": spec["ref"],
            "difference": None if spec["ref"] is None else derived["ref"] - spec["ref"],
            "delta": reference["delta"],
            "derived_sweeps_to_target": derived["sweeps_to_target"],
            "stored_sweeps_hint": spec["sweeps_hint"],
            "fingerprint": instances.fingerprint(problem.V),
            "stored_fingerprint": spec["fingerprint"],
            "seconds": round(time.perf_counter() - start, 1),
        }, indent=1))


if __name__ == "__main__":
    main()
