import json
import math

import pytest

from klnmf import (BenchPlan, FileMatrix, MatrixFileError, SolverConfig,
                   SyntheticSpec, execute, save_matrix)
from klnmf.benchmark import build_report, load_archive, save_archive


def tiny_plan(seed=101, solvers=("mu", "bmd"), inits=1, iters=15):
    return BenchPlan(
        matrices=(SyntheticSpec(kind="low-rank", m=6, n=6, r_true=2, seed=7),),
        inits_per_matrix=inits,
        solvers=tuple(SolverConfig(kind=k, max_outer_iters=iters)
                      for k in solvers),
        time_budget=math.inf,
        rank=2,
        seed=seed,
    )


class TestPlanParsing:
    def test_round_trip_through_json_dict(self):
        plan = tiny_plan()
        again = BenchPlan.from_dict(plan.to_dict())
        assert again == plan

    def test_missing_seed_for_matrix_is_derived_deterministically(self):
        payload = {
            "seed": 3, "rank": 2, "inits_per_matrix": 1, "time_budget": 1.0,
            "matrices": [{"kind": "low-rank", "m": 4, "n": 4, "r_true": 2}],
            "solvers": [{"kind": "mu"}],
        }
        a = BenchPlan.from_dict(payload)
        b = BenchPlan.from_dict(payload)
        assert a.matrices[0].seed == b.matrices[0].seed

    def test_malformed_plan_raises_value_error(self):
        with pytest.raises(ValueError, match="malformed plan"):
            BenchPlan.from_dict({"rank": 2})

    def test_duplicate_solver_kinds_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            tiny_plan(solvers=("mu", "mu"))


class TestExecute:
    def test_smoke_archive_counts(self):
        outcome = execute(tiny_plan())
        assert len(outcome.traces) == 2
        assert len(outcome.results) == 2
        assert set(outcome.report) == {"low-rank-l1-none"}

    def test_shared_init_gives_identical_first_objective(self):
        outcome = execute(tiny_plan(solvers=("mu", "bmd", "sn")))
        firsts = {t.solver: t.samples[0].objective.as_float()
                  for t in outcome.traces}
        assert len(set(firsts.values())) == 1

    def test_rerun_reproduces_final_errors_bitwise(self):
        a = execute(tiny_plan(seed=55, iters=20))
        b = execute(tiny_plan(seed=55, iters=20))
        for x, y in zip(a.results, b.results):
            assert x.run_id == y.run_id
            assert x.final_error == y.final_error  # bitwise equality

    def test_different_seed_changes_inits(self):
        a = execute(tiny_plan(seed=1))
        b = execute(tiny_plan(seed=2))
        assert a.traces[0].samples[0].objective.as_float() != \
            b.traces[0].samples[0].objective.as_float()

    def test_group_has_exact_rank_truth_so_min_error_near_zero(self):
        outcome = execute(tiny_plan(solvers=("mu",), iters=4000))
        assert min(r.final_error for r in outcome.results) >= -1e-12

    def test_failure_recorded_not_raised(self, monkeypatch):
        import klnmf.benchmark as bench_mod

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(bench_mod, "run", boom)
        outcome = execute(tiny_plan(solvers=("mu", "bmd")))
        assert all(r.failure is not None for r in outcome.results)
        assert all(r.final_error == math.inf for r in outcome.results)
        assert len(outcome.traces) == 2  # one-point traces at the init

    def test_missing_matrix_file_names_path(self, tmp_path):
        plan = BenchPlan(
            matrices=(FileMatrix(path=str(tmp_path / "nope.mtx")),),
            inits_per_matrix=1,
            solvers=(SolverConfig(kind="mu"),),
            time_budget=1.0, rank=1, seed=0)
        with pytest.raises(MatrixFileError, match="nope.mtx"):
            execute(plan)

    def test_file_matrices_run(self, tmp_path, rng):
        path = tmp_path / "v.mtx"
        save_matrix(rng.uniform(0.1, 1.0, size=(5, 5)), path)
        plan = BenchPlan(
            matrices=(FileMatrix(path=str(path), label="disk"),),
            inits_per_matrix=1,
            solvers=(SolverConfig(kind="mu", max_outer_iters=5),),
            time_budget=math.inf, rank=2, seed=4)
        outcome = execute(plan)
        assert outcome.results[0].class_label == "disk"

    def test_parallel_workers_match_inline(self):
        plan = tiny_plan(seed=9, iters=10, inits=2)
        inline = execute(plan, workers=1)
        parallel = execute(plan, workers=2)
        want = {r.run_id: r.final_error for r in inline.results}
        got = {r.run_id: r.final_error for r in parallel.results}
        assert want == got


class TestArchive:
    def test_save_load_round_trip(self, tmp_path):
        plan = tiny_plan()
        outcome = execute(plan)
        save_archive(outcome, tmp_path / "arch", plan=plan)
        traces, results = load_archive(tmp_path / "arch")
        assert len(traces) == len(outcome.traces)
        assert {r.run_id for r in results} == {r.run_id for r in outcome.results}
        for a, b in zip(results, outcome.results):
            assert a.final_error == b.final_error

    def test_round_trip_keeps_sweep_index(self, tmp_path):
        plan = BenchPlan(
            matrices=(SyntheticSpec(kind="low-rank", m=6, n=6, r_true=2,
                                    seed=7),),
            inits_per_matrix=1,
            solvers=(SolverConfig(kind="mu", max_outer_iters=10,
                                  record_every=4),),
            time_budget=math.inf, rank=2, seed=3)
        outcome = execute(plan)
        save_archive(outcome, tmp_path / "arch", plan=plan)
        traces, _ = load_archive(tmp_path / "arch")
        assert [s.sweep for s in outcome.traces[0].samples] == [0, 4, 8, 10]
        assert [s.sweep for s in traces[0].samples] == [0, 4, 8, 10]

    def test_report_json_is_strict_and_deterministic(self, tmp_path):
        plan = tiny_plan(seed=12, iters=10)
        for name in ("one", "two"):
            outcome = execute(plan)
            save_archive(outcome, tmp_path / name, plan=plan)
        a = (tmp_path / "one" / "report.json").read_bytes()
        b = (tmp_path / "two" / "report.json").read_bytes()
        assert a == b
        json.loads(a)  # strict JSON: no Infinity/NaN literals

    def test_round_trip_keeps_failed_run(self, tmp_path, monkeypatch):
        import klnmf.benchmark as bench_mod

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        plan = tiny_plan(solvers=("mu",))
        monkeypatch.setattr(bench_mod, "run", boom)
        outcome = execute(plan)
        save_archive(outcome, tmp_path / "arch", plan=plan)
        _, results = load_archive(tmp_path / "arch")
        assert results[0].final_error == math.inf
        assert results[0].failure == "RuntimeError: synthetic failure"
        assert results == outcome.results

    def test_missing_archive_raises(self, tmp_path):
        with pytest.raises(MatrixFileError, match="archive"):
            load_archive(tmp_path / "missing")


class TestReportTree:
    def test_schema_and_profile_shape(self):
        outcome = execute(tiny_plan(solvers=("mu", "bmd"), inits=2, iters=10))
        report = build_report(outcome.results)
        node = report["low-rank-l1-none"]["mu"]
        assert set(node) == {"mean", "std", "ranking", "profile"}
        assert len(node["ranking"]) == 2
        assert len(node["profile"]) == 101
        perf = [p for _, p in node["profile"]]
        assert all(b >= a for a, b in zip(perf, perf[1:]))
