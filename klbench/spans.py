"""Spans around the calls into each layer of ``klnmf``, for the traced run.

Each wrapped name is replaced in the module where its caller looks it up
(``klnmf.solver.sn_sweep`` is what the solver's stepper calls), so the
program's code is unchanged. Spans stay in memory while the run lasts; the
self time of a span is its duration minus the durations of its child spans.
A name that no longer exists is skipped with a note and its metrics drop out.
"""
from __future__ import annotations

import csv
import functools
import importlib
import os
import statistics
from contextlib import contextmanager
from time import perf_counter_ns


def _newton_slices(args, kwargs):
    state = args[1]
    repeats = kwargs.get("inner_repeats", args[3] if len(args) > 3 else 3)
    return 2 * state.W.shape[1] * repeats


def _run_kind(args, kwargs):
    config = args[2] if len(args) > 2 else kwargs["config"]
    return config.kind


def _file_bytes(args, kwargs):
    return os.path.getsize(args[0])


def _samples_saved(args, kwargs):
    return sum(len(trace.samples) for trace in args[0].traces)


# (module, attribute path, layer label, measure taken at call time)
WRAPPED = (
    ("klnmf.solver", "run", "solver.run", _run_kind),
    ("klnmf.benchmark", "run", "solver.run", _run_kind),
    ("klnmf.solver", "SolverState.resync", "solver.resync", None),
    ("klnmf.solver", "snmu_step", "solver.snmu_step", None),
    ("klnmf.solver", "mu_step", "multiplicative.mu_step", None),
    ("klnmf.solver", "bmd_step", "mirror.bmd_step", None),
    ("klnmf.solver", "sn_sweep", "scalar_newton.sn_sweep", _newton_slices),
    ("klnmf.solver", "ccd_sweep", "scalar_newton.ccd_sweep", _newton_slices),
    ("klnmf.solver", "self_concordant_constants",
     "scalar_newton.self_concordant_constants", None),
    ("klnmf.objective", "KLObjective.of_product", "objective.of_product", None),
    ("klnmf.multiplicative", "support_ratio", "objective.support_ratio", None),
    ("klnmf.mirror", "support_ratio", "objective.support_ratio", None),
    ("klnmf.synthetic", "generate", "synthetic.generate", None),
    ("klnmf.benchmark", "generate", "synthetic.generate", None),
    ("klnmf.synthetic", "init_random_scaled", "synthetic.init_random_scaled", None),
    ("klnmf.benchmark", "init_random_scaled", "synthetic.init_random_scaled", None),
    ("klnmf.matrixio", "load_matrix", "matrixio.load_matrix", _file_bytes),
    ("klnmf.benchmark", "load_matrix", "matrixio.load_matrix", _file_bytes),
    ("klnmf.benchmark", "execute", "benchmark.execute", None),
    ("klnmf.benchmark", "build_report", "benchmark.build_report", None),
    ("klnmf.benchmark", "save_archive", "benchmark.save_archive", _samples_saved),
    ("klnmf.benchmark", "load_archive", "benchmark.load_archive", None),
    ("klnmf.benchmark", "etcurve_rows", "benchmark.etcurve_rows", None),
)


class Recorder:
    """In-memory spans: [label, start_ns, end_ns, parent index, measure]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.notes: list[str] = []

    def wrap(self, label, fn, measure=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [label, 0, 0, stack[-1] if stack else -1,
                    measure(args, kwargs) if measure else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
        return traced

    @contextmanager
    def patched(self):
        """Wrap every name in WRAPPED for the duration of the block."""
        undo = []
        try:
            for module_name, path, label, measure in WRAPPED:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                try:
                    for part in parents:
                        owner = getattr(owner, part)
                    original = owner.__dict__[attr] if isinstance(owner, type) \
                        else getattr(owner, attr)
                except (AttributeError, KeyError):
                    self.notes.append(f"{module_name}.{path} not found; "
                                      f"its {label} metrics are left out")
                    continue
                setattr(owner, attr, self.wrap(label, original, measure))
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def self_times(self) -> list[int]:
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def dump(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("index", "label", "start_ns", "end_ns", "parent",
                             "self_ns", "measure"))
            for idx, (span, own) in enumerate(zip(self.spans, self.self_times())):
                label, start, end, parent, measure = span
                writer.writerow((idx, label, start, end, parent, own,
                                 "" if measure is None else measure))


# layer label -> name of its median-self-time metric (milliseconds per call)
_PER_CALL_MS = {
    "solver.resync": "solver.resync_ms",
    "solver.snmu_step": "solver.snmu_step_ms",
    "multiplicative.mu_step": "multiplicative.mu_step_ms",
    "mirror.bmd_step": "mirror.bmd_step_ms",
    "scalar_newton.sn_sweep": "scalar_newton.sn_sweep_ms",
    "scalar_newton.ccd_sweep": "scalar_newton.ccd_sweep_ms",
    "scalar_newton.self_concordant_constants": "scalar_newton.constants_ms",
    "objective.of_product": "objective.of_product_ms",
    "objective.support_ratio": "objective.support_ratio_ms",
    "synthetic.generate": "synthetic.generate_ms",
    "synthetic.init_random_scaled": "synthetic.init_ms",
    "matrixio.load_matrix": "matrixio.load_matrix_ms",
    "benchmark.build_report": "benchmark.build_report_ms",
    "benchmark.save_archive": "benchmark.save_archive_ms",
    "benchmark.load_archive": "benchmark.load_archive_ms",
    "benchmark.etcurve_rows": "benchmark.etcurve_rows_ms",
}


def layer_metrics(recorder: Recorder, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)} from the recorded spans.

    Times are medians of self time per call; counts are per round of the
    workload. Metrics of layers with no recorded span are left out.
    """
    own = recorder.self_times()
    by_label: dict[str, list[int]] = {}
    for idx, span in enumerate(recorder.spans):
        by_label.setdefault(span[0], []).append(idx)

    def median_ms(indices, scale=1.0):
        return statistics.median(own[i] * scale for i in indices) / 1e6

    out: dict[str, tuple[float, str]] = {}
    for label, name in _PER_CALL_MS.items():
        if label in by_label:
            out[name] = (median_ms(by_label[label]), "ms")
    spans = recorder.spans
    if "benchmark.execute" in by_label:
        out["benchmark.execute_s"] = (median_ms(by_label["benchmark.execute"]) / 1e3, "s")
    slices = by_label.get("scalar_newton.sn_sweep", []) + \
        by_label.get("scalar_newton.ccd_sweep", [])
    if slices:
        out["scalar_newton.slice_ms"] = (
            statistics.median(own[i] / spans[i][4] for i in slices) / 1e6, "ms")
    if "objective.of_product" in by_label:
        out["objective.of_product_calls"] = (
            len(by_label["objective.of_product"]) / rounds, "count")
    if "objective.support_ratio" in by_label:
        out["objective.support_ratio_calls"] = (
            len(by_label["objective.support_ratio"]) / rounds, "count")
    if "matrixio.load_matrix" in by_label:
        out["matrixio.load_mb_per_s"] = (statistics.median(
            spans[i][4] / 1e6 / ((spans[i][2] - spans[i][1]) / 1e9)
            for i in by_label["matrixio.load_matrix"]), "MB/s")
    if "benchmark.save_archive" in by_label:
        out["traces.samples_written"] = (sum(
            spans[i][4] for i in by_label["benchmark.save_archive"]) / rounds, "count")
    runs = set(by_label.get("solver.run", ()))
    if runs:
        monitor = [i for i in by_label.get("objective.of_product", ())
                   if spans[i][3] in runs]
        # run() evaluates the objective at its start and after every sweep.
        per_kind: dict[str, int] = {}
        for i in runs:
            per_kind[spans[i][4]] = per_kind.get(spans[i][4], 0) - 1
        for i in monitor:
            kind = spans[spans[i][3]][4]
            per_kind[kind] += 1
        for kind, count in sorted(per_kind.items()):
            out[f"solver.{kind}.sweeps"] = (count / rounds, "count")
        sweeps = len(monitor) - len(runs)
        if sweeps > 0:
            out["solver.run_self_ms"] = (
                sum(own[i] for i in runs) / sweeps / 1e6, "ms")
        busy = sum(spans[i][2] - spans[i][1] for i in runs)
        if monitor and busy > 0:
            out["objective.monitor_share"] = (
                sum(spans[i][2] - spans[i][1] for i in monitor) / busy, "share")
    return out
