"""The benchmark's inputs: the two solve instances and the reference plan.

Instances are fixed: their seeds are stored in ``reference.json`` together
with each instance's reference minimum ``ref``, so the target ``ref + delta``
never depends on the run being measured. ``--seed`` only orders the solves
inside each round. The toy variants have the same make-up at a size that
runs in well under a second and derive their ``ref`` on the fly.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from bootstrap import BENCH_DIR
from klnmf import matrixio, synthetic
from klnmf.matrices import Factorization, ProblemInstance

REFERENCE_FILE = BENCH_DIR / "reference.json"
PLAN_FILE = BENCH_DIR / "plan.json"
SOLVE_WORKLOADS = ("dense-poisson", "sparse-counts")

TOY = {
    "dense-poisson": {
        "data": {"kind": "low-rank", "m": 30, "n": 24, "r_true": 4,
                 "density": 1.0, "noise": "poisson", "seed": 5},
        "rank": 4, "init_seed": 6,
        "long_run_sweeps": {"mu": 3000, "bmd": 3000, "sn": 60, "snmu": 12, "ccd": 60},
    },
    "sparse-counts": {
        "data": {"m": 60, "n": 40, "r_true": 4, "mean_count": 0.3,
                 "empty_rows": 3, "empty_cols": 2, "seed": 7},
        "rank": 3, "init_seed": 8,
        "long_run_sweeps": {"mu": 3000, "bmd": 3000, "sn": 60, "snmu": 12, "ccd": 60},
    },
}


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def load_plan_dict(toy: bool = False) -> dict:
    """The reference plan; the toy plan keeps one matrix per class and one init."""
    with open(PLAN_FILE) as fh:
        plan = json.load(fh)
    if toy:
        seen, matrices = set(), []
        for entry in plan["matrices"]:
            key = (entry["kind"], entry.get("density"))
            if key not in seen:
                seen.add(key)
                matrices.append(entry)
        plan = {**plan, "matrices": matrices, "inits_per_matrix": 1}
    return plan


def sparse_counts(m, n, r_true, mean_count, empty_rows, empty_cols, seed) -> np.ndarray:
    """Seeded sparse Poisson counts with a low-rank mean and empty rows/columns.

    The mean is the product of Gamma(0.5) factors, so a few entries carry
    most of the mass, scaled to ``mean_count`` per entry; ``empty_rows`` rows
    of W and ``empty_cols`` columns of H are zeroed, which leaves those rows
    and columns of the counts empty.
    """
    rng = np.random.default_rng(seed)
    W = rng.gamma(0.5, 1.0, (m, r_true))
    H = rng.gamma(0.5, 1.0, (r_true, n))
    W[rng.choice(m, empty_rows, replace=False)] = 0.0
    H[:, rng.choice(n, empty_cols, replace=False)] = 0.0
    mean = W @ H
    mean *= mean_count * m * n / mean.sum()
    return rng.poisson(mean).astype(np.float64)


def write_coordinate(V: np.ndarray, path) -> None:
    """Write integer counts as a MatrixMarket coordinate file (1-based)."""
    rows, cols = np.nonzero(V)
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate integer general\n")
        fh.write(f"{V.shape[0]} {V.shape[1]} {rows.size}\n")
        fh.writelines(f"{i + 1} {j + 1} {int(V[i, j])}\n" for i, j in zip(rows, cols))


@dataclass
class Problem:
    instance: ProblemInstance
    init: Factorization

    @property
    def V(self) -> np.ndarray:
        return self.instance.V.values


def dense_setup(spec: dict) -> Problem:
    """Generate the data through the program and draw the shared init."""
    V = synthetic.generate(synthetic.SyntheticSpec(**spec["data"]))
    m, n = V.shape
    init = synthetic.init_random_scaled(m, n, spec["rank"], V.values, spec["init_seed"])
    return Problem(ProblemInstance(V, spec["rank"]), init)


def sparse_setup(spec: dict, path) -> Problem:
    """Read the counts back through the program's loader and draw the init."""
    V = matrixio.load_matrix(path)
    m, n = V.shape
    init = synthetic.init_random_scaled(m, n, spec["rank"], V.values, spec["init_seed"])
    return Problem(ProblemInstance(V, spec["rank"]), init)


def fingerprint(V: np.ndarray) -> dict:
    return {"shape": list(V.shape), "sum": float(V.sum()),
            "nnz": int(np.count_nonzero(V))}
