"""The three workloads: set-up, timed rounds of operations, and their checks.

A solve workload times each solver's ``run()`` from outside, capped at the
sweep where the solve first meets its target ``ref + delta``; because
iteration-capped runs reproduce bitwise, that sweep count is fixed and found
once per run by an untimed calibration solve. ``small-plan`` times each
solver's share of a reference bench plan, then the plan's report and archive
round trip. Every workload reports a time per round for each solver and for
the whole round. Every round attempts the same operations, so the share of
failed operations never changes.
"""
from __future__ import annotations

import dataclasses
import json
import random
import resource
import statistics
import time

import checks
import instances
import spans
import speed
from bootstrap import OUT_DIR
from klnmf import benchmark as kbench
from klnmf import solver as ksolver

KINDS = ("mu", "bmd", "sn", "snmu", "ccd")
MONOTONE = ("mu", "bmd", "sn", "snmu")
SETUP_REPEATS = {"dense-poisson": 15, "sparse-counts": 9, "small-plan": 15}
PLAN_LOADS_PER_SAMPLE = 20
MEDIAN_GRID = 50
MAX_PROBLEMS = 20


class Tally:
    """Operations attempted and failed, problems found and per-round walls."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.walls: list[float] = []

    def problem(self, text: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(text)


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def derive_reference(problem, long_run_sweeps: dict, delta: float) -> dict:
    """Reference minimum and sweeps to ``ref + delta`` from long runs.

    ``ref`` is the smallest relative error any solver records in a run of
    ``long_run_sweeps[kind]`` sweeps from the instance's init; a solver that
    fails is left out.
    """
    errors = {}
    for kind, cap in long_run_sweeps.items():
        config = ksolver.SolverConfig(kind=kind, max_outer_iters=cap)
        try:
            _, trace = ksolver.run(problem.instance, problem.init, config)
        except Exception as exc:  # noqa: BLE001 - a failing solver is reported
            errors[kind] = _error_text(exc)
            continue
        errors[kind] = [s.rel_error for s in trace.samples]
    ref = min(min(e) for e in errors.values() if isinstance(e, list))
    target = ref + delta
    sweeps = {}
    for kind, errs in errors.items():
        if isinstance(errs, list):
            hit = next((i for i, e in enumerate(errs) if i and e <= target), None)
            sweeps[kind] = hit
        else:
            sweeps[kind] = errs
    return {"ref": ref, "sweeps_to_target": sweeps}


class SolveWorkload:
    """dense-poisson and sparse-counts: every solver from one init to a target."""

    def __init__(self, name: str, seed: int, toy: bool):
        reference = instances.load_reference()
        self.name = name
        self.toy = toy
        self.delta = reference["delta"]
        self.spec = instances.TOY[name] if toy else reference["workloads"][name]
        self.order = random.Random(seed)
        self.path = OUT_DIR / f"{name}{'-toy' if toy else ''}.mtx"
        self.generated = None
        if name == "sparse-counts":
            self.generated = instances.sparse_counts(**self.spec["data"])
            instances.write_coordinate(self.generated, self.path)
        self.sweeps: dict[str, int] = {}
        self.final_objective: dict[str, float] = {}
        self.failing: dict[str, int] = {}
        self.raised: set[str] = set()
        self.times: dict[str, list[float]] = {kind: [] for kind in KINDS}
        self.raw: dict[str, list[float]] = {kind: [] for kind in KINDS}
        self.faults: dict[str, list[int]] = {kind: [] for kind in KINDS}

    def setup(self):
        if self.generated is None:
            return instances.dense_setup(self.spec)
        return instances.sparse_setup(self.spec, self.path)

    def prepare(self, problem, tally: Tally) -> None:
        """Check the inputs, fix the target and calibrate each solver."""
        if self.generated is not None and not (
                problem.V.shape == self.generated.shape
                and (problem.V == self.generated).all()):
            tally.problem("load_matrix did not return the matrix that was written")
        if self.toy:
            derived = derive_reference(problem, self.spec["long_run_sweeps"], self.delta)
            self.ref = derived["ref"]
            hints = {k: v if isinstance(v, int) else self.spec["long_run_sweeps"][k]
                     for k, v in derived["sweeps_to_target"].items()}
        else:
            stored = self.spec["fingerprint"]
            if instances.fingerprint(problem.V) != stored:
                tally.problem(f"instance {instances.fingerprint(problem.V)} is not "
                              f"the reference instance {stored}")
            self.ref = self.spec["ref"]
            hints = self.spec["sweeps_hint"]
        self.target = self.ref + self.delta
        for kind in KINDS:
            self._calibrate(problem, kind, hints.get(kind) or 1, tally)

    def _calibrate(self, problem, kind, hint, tally):
        cap = hint
        while True:
            config = ksolver.SolverConfig(kind=kind, max_outer_iters=cap)
            try:
                _, trace = ksolver.run(problem.instance, problem.init, config)
            except Exception as exc:  # noqa: BLE001 - failures are counted
                text = _error_text(exc)
                self.failing[kind] = cap
                self.raised.add(kind)
                if not checks.is_known_fault(self.name, kind, text):
                    tally.problem(f"{kind} failed: {text}")
                return
            hit = next((i for i, s in enumerate(trace.samples)
                        if i and s.rel_error <= self.target), None)
            if hit is not None:
                self.sweeps[kind] = hit
                self.final_objective[kind] = trace.samples[hit].objective.as_float()
                return
            if cap >= 4 * hint:
                self.failing[kind] = cap
                tally.problem(f"{kind}: target not reached in {cap} sweeps")
                return
            cap *= 2

    def round(self, problem, tally: Tally, probe) -> None:
        order = list(KINDS)
        self.order.shuffle(order)
        probes = [probe()]
        timed = []
        for kind in order:
            sweeps = self.sweeps.get(kind)
            config = ksolver.SolverConfig(
                kind=kind, max_outer_iters=sweeps or self.failing[kind])
            tally.attempted += 1
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            try:
                pair, trace = ksolver.run(problem.instance, problem.init, config)
            except Exception as exc:  # noqa: BLE001 - failures are counted
                pair, text = None, _error_text(exc)
            elapsed = time.perf_counter() - start
            self.faults[kind].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
            probes.append(probe())
            timed.append((kind, elapsed))
            if pair is None:
                tally.failed += 1
                if sweeps is not None or not checks.is_known_fault(
                        self.name, kind, text):
                    tally.problem(f"{kind} failed: {text}")
            elif sweeps is None:
                # It missed its target in calibration, which recorded why.
                tally.failed += 1
                if kind in self.raised:
                    tally.problem(f"{kind} failed in calibration but not in a round")
            else:
                self._check(kind, config, problem, pair, trace, tally)
        wall = 0.0
        for i, (kind, elapsed) in enumerate(timed):
            scaled = elapsed * speed.speed_factor(probes[i:i + 2])
            wall += scaled
            self.raw[kind].append(elapsed)
            self.times[kind].append(scaled)
        tally.walls.append(wall)

    def _check(self, kind, config, problem, pair, trace, tally):
        epsilon = config.resolved_epsilon(problem.instance.epsilon)
        objectives = [s.objective.as_float() for s in trace.samples]
        for text in checks.check_solve(
                problem.V, pair.W.values, pair.H.values, epsilon,
                trace.best_error, self.target,
                objectives if kind in MONOTONE else None):
            tally.problem(f"{kind}: {text}")
        if objectives[-1] != self.final_objective[kind]:
            tally.problem(f"{kind}: final objective {objectives[-1]!r} differs "
                          f"from the calibration's {self.final_objective[kind]!r}")

    def end_to_end(self) -> dict:
        return {f"{kind}.solve_s": (statistics.median(times), "s")
                for kind, times in self.times.items()}

    def samples(self) -> dict:
        return {**{f"{kind}.solve_s": t for kind, t in self.times.items()},
                **{f"{kind}.wall_s": t for kind, t in self.raw.items()},
                **{f"{kind}.minor_faults": t for kind, t in self.faults.items()}}


class PlanWorkload:
    """small-plan: execute a reference plan one solver at a time, then its
    report and archive round trip.

    Each solver's runs are a sub-plan of their own, so each solver's share
    of the plan is timed from outside. The runs, their ids and their inits
    are those of the whole plan; the results are put back in plan order
    before the report is built and the archive written.
    """

    def __init__(self, seed: int, toy: bool):
        self.path = instances.PLAN_FILE
        if toy:
            self.path = OUT_DIR / "small-plan-toy.json"
            with open(self.path, "w") as fh:
                json.dump(instances.load_plan_dict(toy=True), fh)
        self.archive = OUT_DIR / f"small-plan{'-toy' if toy else ''}-archive"
        self.order = random.Random(seed)
        self.first = None
        self.times: dict[str, list[float]] = {kind: [] for kind in KINDS}
        self.raw: dict[str, list[float]] = {kind: [] for kind in KINDS}
        self.archive_raw: list[float] = []

    def setup(self):
        for _ in range(PLAN_LOADS_PER_SAMPLE - 1):
            kbench.BenchPlan.from_json(self.path)
        return kbench.BenchPlan.from_json(self.path)

    def prepare(self, plan, tally: Tally) -> None:
        """Split the plan by solver, then one untimed warm-up round whose
        results later rounds must repeat."""
        self.subplans = {config.kind: dataclasses.replace(plan, solvers=(config,))
                         for config in plan.solvers}
        self.round(plan, Tally(), speed.Probe())
        for kind in KINDS:
            self.times[kind].clear()
            self.raw[kind].clear()
        self.archive_raw.clear()

    def round(self, plan, tally: Tally, probe) -> None:
        order = list(self.subplans)
        self.order.shuffle(order)
        probes = [probe()]
        timed, outcomes = [], {}
        for kind in order:
            start = time.perf_counter()
            outcomes[kind] = kbench.execute(self.subplans[kind], workers=1)
            timed.append((kind, time.perf_counter() - start))
            probes.append(probe())
        start = time.perf_counter()
        position = {config.kind: i for i, config in enumerate(plan.solvers)}
        pairs = sorted(
            ((trace, result) for outcome in outcomes.values()
             for trace, result in zip(outcome.traces, outcome.results)),
            key=lambda pair: (pair[1].matrix_id, pair[1].init_id,
                              position[pair[1].solver]))
        results = [result for _, result in pairs]
        outcome = kbench.BenchOutcome(traces=[trace for trace, _ in pairs],
                                      results=results,
                                      report=kbench.build_report(results))
        kbench.save_archive(outcome, self.archive, plan=plan)
        traces, loaded = kbench.load_archive(self.archive)
        rows = kbench.etcurve_rows(traces, median_grid=MEDIAN_GRID)
        timed.append((None, time.perf_counter() - start))
        probes.append(probe())
        wall = 0.0
        for i, (kind, elapsed) in enumerate(timed):
            scaled = elapsed * speed.speed_factor(probes[i:i + 2])
            wall += scaled
            if kind is None:
                self.archive_raw.append(elapsed)
            else:
                self.raw[kind].append(elapsed)
                self.times[kind].append(scaled)
        tally.walls.append(wall)
        tally.attempted += len(results)
        tally.failed += sum(r.failure is not None for r in results)
        for text in checks.check_plan(results, outcome.report, loaded):
            tally.problem(text)
        if not rows:
            tally.problem("etcurve_rows returned no rows")
        finals = [(r.run_id, r.final_error, r.failure) for r in results]
        if self.first is None:
            self.first = finals
        elif finals != self.first:
            tally.problem("plan results differ from the first round's")

    def end_to_end(self) -> dict:
        return {f"{kind}.solve_s": (statistics.median(times), "s")
                for kind, times in self.times.items()}

    def samples(self) -> dict:
        return {**{f"{kind}.solve_s": t for kind, t in self.times.items()},
                **{f"{kind}.wall_s": t for kind, t in self.raw.items()},
                "archive.wall_s": self.archive_raw}


def make(name: str, seed: int, toy: bool = False):
    if name == "small-plan":
        return PlanWorkload(seed, toy)
    return SolveWorkload(name, seed, toy)


def _timed_setup(workload, repeats, probe):
    """Speed-normalized set-up times of ``repeats`` set-ups, and the last one."""
    samples, subject = [], None
    per_sample = PLAN_LOADS_PER_SAMPLE if isinstance(workload, PlanWorkload) else 1
    for _ in range(repeats):
        before = probe()
        start = time.perf_counter()
        subject = workload.setup()
        elapsed = time.perf_counter() - start
        samples.append(elapsed * speed.speed_factor([before, probe()]) / per_sample)
    return subject, samples


def _rounds(workload, subject, tally, probe, seconds=None, count=None):
    """Whole rounds until ``seconds`` have passed, or exactly ``count``."""
    start = time.perf_counter()
    done = 0
    while True:
        workload.round(subject, tally, probe)
        done += 1
        if done == count or (count is None and time.perf_counter() - start >= seconds):
            return done


def measure(name: str, seed: int, seconds: float, trace: bool,
            toy: bool = False) -> dict:
    """Run one workload; returns the result object plus its details.

    Untraced, the metrics are the end-to-end ones. Traced, half the time goes
    to untraced rounds and the same number of rounds then runs traced; the
    metrics are the per-layer ones and the traced-minus-untraced round wall.
    """
    OUT_DIR.mkdir(exist_ok=True)
    workload = make(name, seed, toy)
    tally = Tally()
    repeats = 3 if toy else SETUP_REPEATS[name]
    probe = speed.Probe()
    subject, setup_samples = _timed_setup(workload, repeats, probe)
    workload.prepare(subject, tally)
    notes = []
    if not trace:
        _rounds(workload, subject, tally, probe, seconds)
        metrics = {"setup_s": (statistics.median(setup_samples), "s"),
                   **workload.end_to_end(),
                   "round_s": (statistics.median(tally.walls), "s"),
                   "peak_rss_mb": (resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")}
    else:
        rounds = _rounds(workload, subject, tally, probe, seconds / 2)
        untraced = statistics.median(tally.walls)
        tally.walls.clear()
        recorder = spans.Recorder()
        with recorder.patched():
            _timed_setup(workload, repeats, probe)
            _rounds(workload, subject, tally, probe, count=rounds)
        notes += recorder.notes
        recorder.dump(OUT_DIR / f"spans-{name}{'-toy' if toy else ''}.csv")
        metrics = {**spans.layer_metrics(recorder, rounds),
                   "bench.trace_overhead_s": (
                       statistics.median(tally.walls) - untraced, "s"),
                   "bench.speed_probe_ms": (
                       statistics.median(probe.samples) * 1e3, "ms")}
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": tally.problems,
        "notes": notes,
        "samples": {"setup_s": setup_samples, **workload.samples(),
                    "round_s": tally.walls, "speed_probe_s": probe.samples},
    }
