"""Objective traces for single runs and their CSV serialization."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .objective import ExtendedObjective

#: Column order of the trace CSV schema. The objective column holds the
#: literal "inf" for the infinite state.
TRACE_FIELDS = ("run_id", "solver", "matrix_id", "init_id",
                "elapsed_s", "objective", "rel_error", "sweep")


@dataclass(frozen=True)
class TraceSample:
    elapsed_s: float
    objective: ExtendedObjective
    rel_error: float
    sweep: int = 0  # sweeps completed when recorded; 0 at the initial point


@dataclass(frozen=True, eq=False)
class RunTrace:
    """Timestamped objective values for one (matrix, init, solver) run."""

    run_id: str
    solver: str
    matrix_id: str
    init_id: str
    samples: tuple[TraceSample, ...]

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        if not self.samples:
            raise ValueError("a trace needs at least one sample")
        times = [s.elapsed_s for s in self.samples]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("trace timestamps must be strictly increasing")

    @property
    def best_error(self) -> float:
        """Smallest recorded relative error (the error of the kept solution)."""
        return min(s.rel_error for s in self.samples)

    @property
    def time_to_best(self) -> float:
        """Elapsed seconds of the first sample attaining the best error."""
        best = self.best_error
        for s in self.samples:
            if s.rel_error <= best:
                return s.elapsed_s
        return self.samples[-1].elapsed_s


def write_traces(path, traces) -> None:
    """Write traces as one flat CSV, one row per sample."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_FIELDS)
        for trace in traces:
            for s in trace.samples:
                writer.writerow([
                    trace.run_id, trace.solver, trace.matrix_id, trace.init_id,
                    repr(s.elapsed_s), repr(s.objective.as_float()),
                    repr(s.rel_error), s.sweep,
                ])


def read_traces(path) -> list[RunTrace]:
    """Read a trace CSV back into RunTrace objects (rows grouped by run_id)."""
    groups: dict[str, tuple] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != TRACE_FIELDS:
            raise ValueError(f"unexpected trace header in {path}: {reader.fieldnames}")
        for row in reader:
            run_id = row["run_id"]
            if run_id not in groups:
                groups[run_id] = (row["solver"], row["matrix_id"],
                                  row["init_id"], [])
            obj = float(row["objective"])
            objective = (ExtendedObjective.infinite() if math.isinf(obj)
                         else ExtendedObjective.finite(obj))
            groups[run_id][3].append(TraceSample(
                float(row["elapsed_s"]), objective, float(row["rel_error"]),
                int(row["sweep"])))
    return [
        RunTrace(run_id=rid, solver=solver, matrix_id=matrix_id,
                 init_id=init_id, samples=tuple(samples))
        for rid, (solver, matrix_id, init_id, samples) in groups.items()
    ]
