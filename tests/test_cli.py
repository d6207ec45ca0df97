import json

import numpy as np
import pytest

from klnmf import load_matrix, read_traces, save_matrix
from klnmf.cli import main
from klnmf.synthetic import SyntheticSpec, generate, poissonize


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_low_rank_writes_data_and_factors(self, tmp_path, capsys):
        out = tmp_path / "v.mtx"
        code, stdout, _ = run_cli(
            capsys, "generate", "--kind", "low-rank", "--m", "8", "--n", "8",
            "--rank", "2", "--density", "1.0", "--seed", "7",
            "--out", str(out))
        assert code == 0
        assert "seed=7" in stdout
        V = load_matrix(out)
        W = load_matrix(tmp_path / "v.W.mtx")
        H = load_matrix(tmp_path / "v.H.mtx")
        np.testing.assert_allclose(W.values @ H.values, V.values, rtol=1e-15)

    def test_rerun_bit_identical(self, tmp_path, capsys):
        args = ("generate", "--kind", "low-rank", "--m", "6", "--n", "5",
                "--rank", "2", "--seed", "3")
        run_cli(capsys, *args, "--out", str(tmp_path / "a.mtx"))
        run_cli(capsys, *args, "--out", str(tmp_path / "b.mtx"))
        assert (tmp_path / "a.mtx").read_bytes() == \
            (tmp_path / "b.mtx").read_bytes()

    def test_poisson_writes_noisy_copy(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "generate", "--kind", "full-rank", "--m", "6", "--n", "6",
            "--noise", "poisson", "--seed", "1",
            "--out", str(tmp_path / "v.mtx"))
        assert code == 0
        clean = load_matrix(tmp_path / "v.mtx").values
        noisy = load_matrix(tmp_path / "v.poisson.mtx").values
        np.testing.assert_array_equal(noisy, np.round(noisy))
        np.testing.assert_array_equal(noisy, poissonize(clean, 1).values)

    def test_bad_density_exits_one_naming_flag(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "generate", "--kind", "low-rank", "--m", "4", "--n", "4",
            "--rank", "2", "--density", "1.5", "--out", str(tmp_path / "v.mtx"))
        assert code == 1
        assert "--density" in stderr

    def test_zero_rank_exits_one_naming_r_true(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "generate", "--kind", "low-rank", "--m", "4", "--n", "4",
            "--rank", "0", "--out", str(tmp_path / "v.mtx"))
        assert code == 1
        assert "r_true" in stderr
        assert not (tmp_path / "v.mtx").exists()

    def test_density_with_full_rank_contradicts(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "generate", "--kind", "full-rank", "--m", "4", "--n", "4",
            "--density", "0.5", "--out", str(tmp_path / "v.mtx"))
        assert code == 1
        assert "contradicts" in stderr

    def test_unknown_flag_exits_one(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "generate", "--bogus", "1")
        assert code == 1


class TestSolve:
    @pytest.fixture
    def matrix_file(self, tmp_path, rng):
        path = tmp_path / "v.csv"
        save_matrix(rng.uniform(0.1, 2.0, size=(8, 8)), path, format="csv")
        return path

    def test_solve_writes_factors_and_trace(self, tmp_path, capsys, matrix_file):
        code, stdout, _ = run_cli(
            capsys, "solve", "--matrix", str(matrix_file), "--rank", "2",
            "--solver", "mu", "--max-iters", "50", "--seed", "5",
            "--out-factors", str(tmp_path / "fac"),
            "--out-trace", str(tmp_path / "trace.csv"))
        assert code == 0
        assert "rel_error=" in stdout and "kkt_residual=" in stdout
        W = load_matrix(tmp_path / "fac.W.mtx")
        assert W.shape == (8, 2)
        assert (tmp_path / "trace.csv").exists()

    def test_figures_are_of_the_returned_iterate(self, tmp_path, capsys):
        # ccd need not decrease the objective, and run() returns its best
        # iterate. On this 40x30 sparse Poisson matrix, from init seed 0, its
        # 50th and last sweep ends 4.3e-14 above the best one.
        path = tmp_path / "v.mtx"
        save_matrix(generate(SyntheticSpec(
            kind="low-rank", m=40, n=30, r_true=4, density=0.3,
            noise="poisson", seed=300)), path)
        code, stdout, _ = run_cli(
            capsys, "solve", "--matrix", str(path), "--rank", "4",
            "--solver", "ccd", "--max-iters", "50", "--seed", "0",
            "--out-trace", str(tmp_path / "trace.csv"))
        assert code == 0
        printed = dict(field.split("=") for field in stdout.splitlines()[1].split())
        samples = read_traces(tmp_path / "trace.csv")[0].samples
        best = min(samples, key=lambda s: s.objective)
        assert samples[-1].objective.value > best.objective.value
        assert float(printed["objective"]) == best.objective.value
        assert float(printed["rel_error"]) == best.rel_error

    def test_sweeps_counts_sweeps_not_recorded_samples(self, capsys,
                                                       matrix_file):
        code, stdout, _ = run_cli(
            capsys, "solve", "--matrix", str(matrix_file), "--rank", "2",
            "--solver", "mu", "--max-iters", "250", "--record-every", "100")
        assert code == 0
        assert "sweeps=250" in stdout.split()

    def test_mu_epsilon_zero_positive_init_no_warning(self, capsys,
                                                      matrix_file, recwarn):
        code, _, _ = run_cli(
            capsys, "solve", "--matrix", str(matrix_file), "--rank", "2",
            "--solver", "mu", "--epsilon", "0", "--max-iters", "5")
        assert code == 0
        assert not [w for w in recwarn if "clamped" in str(w.message)]

    def test_unknown_solver_lists_valid_names(self, capsys, matrix_file):
        code, _, stderr = run_cli(
            capsys, "solve", "--matrix", str(matrix_file), "--rank", "2",
            "--solver", "newton")
        assert code == 1
        assert "mu" in stderr and "snmu" in stderr

    def test_unreadable_matrix_exits_two(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "solve", "--matrix", str(tmp_path / "nope.csv"),
            "--rank", "2", "--solver", "mu")
        assert code == 2
        assert "nope.csv" in stderr

    def test_solver_failure_exits_three(self, tmp_path, capsys):
        # rank exceeding the data dimensions is a solver-level failure? No:
        # it is a usage error; a data column of zeros with bmd stays fine, so
        # force failure via an unfactorizable setup: epsilon=0 zero data.
        path = tmp_path / "z.csv"
        save_matrix(np.zeros((3, 3)), path, format="csv")
        code, _, stderr = run_cli(
            capsys, "solve", "--matrix", str(path), "--rank", "1",
            "--solver", "mu")
        assert code == 3
        assert "failed" in stderr


class TestBenchAndReport:
    @pytest.fixture
    def plan_file(self, tmp_path):
        plan = {
            "seed": 77, "rank": 2, "inits_per_matrix": 2, "time_budget": 30.0,
            "matrices": [
                {"kind": "low-rank", "m": 6, "n": 6, "r_true": 2, "seed": 5},
            ],
            "solvers": [
                {"kind": "mu", "max_outer_iters": 15},
                {"kind": "bmd", "max_outer_iters": 15},
            ],
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        return path

    def test_bench_smoke_and_reports(self, tmp_path, capsys, plan_file):
        out_dir = tmp_path / "arch"
        code, stdout, _ = run_cli(
            capsys, "bench", "--plan", str(plan_file),
            "--out-dir", str(out_dir))
        assert code == 0
        assert "runs=4" in stdout
        assert (out_dir / "traces.csv").exists()
        assert (out_dir / "report.json").exists()

        code, _, _ = run_cli(
            capsys, "report", "--archive", str(out_dir), "--what", "ranking",
            "--out", str(tmp_path / "rank.json"))
        assert code == 0
        vectors = json.loads((tmp_path / "rank.json").read_text())
        totals = np.sum([vectors[s] for s in vectors], axis=0)
        np.testing.assert_array_equal(totals, [2, 2])

        code, _, _ = run_cli(
            capsys, "report", "--archive", str(out_dir), "--what", "profile",
            "--rho-max", "1.0", "--out", str(tmp_path / "prof.csv"))
        assert code == 0
        rows = (tmp_path / "prof.csv").read_text().strip().splitlines()[1:]
        per_solver = {}
        for row in rows:
            solver, rho, perf = row.split(",")
            per_solver.setdefault(solver, []).append(float(perf))
        for perf in per_solver.values():
            assert all(b >= a for a, b in zip(perf, perf[1:]))
            assert perf[-1] <= 1.0

        code, _, _ = run_cli(
            capsys, "report", "--archive", str(out_dir), "--what", "etcurves",
            "--out", str(tmp_path / "et.csv"))
        assert code == 0
        rows = (tmp_path / "et.csv").read_text().strip().splitlines()[1:]
        values = [float(r.rsplit(",", 1)[1]) for r in rows]
        assert min(values) == 0.0

        code, _, _ = run_cli(
            capsys, "report", "--archive", str(out_dir), "--what", "summary",
            "--out", str(tmp_path / "sum.json"))
        assert code == 0
        summary = json.loads((tmp_path / "sum.json").read_text())
        assert "mu" in summary["low-rank-l1-none"]

        code, _, _ = run_cli(
            capsys, "report", "--archive", str(out_dir), "--what", "etcurves",
            "--median-grid", "16", "--out", str(tmp_path / "et_med.csv"))
        assert code == 0
        rows = (tmp_path / "et_med.csv").read_text().strip().splitlines()[1:]
        med_rows = [r for r in rows if r.startswith("median:mu,")]
        assert len(med_rows) == 16

    def test_bench_rerun_identical_report(self, tmp_path, capsys, plan_file):
        for name in ("one", "two"):
            run_cli(capsys, "bench", "--plan", str(plan_file),
                    "--out-dir", str(tmp_path / name))
        assert (tmp_path / "one" / "report.json").read_bytes() == \
            (tmp_path / "two" / "report.json").read_bytes()

    def test_malformed_plan_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, stderr = run_cli(
            capsys, "bench", "--plan", str(path),
            "--out-dir", str(tmp_path / "a"))
        assert code == 2
        assert "malformed" in stderr

    def test_plan_with_missing_matrix_exits_two_naming_path(self, tmp_path,
                                                             capsys):
        plan = {
            "seed": 1, "rank": 1, "inits_per_matrix": 1, "time_budget": 1.0,
            "matrices": [{"path": str(tmp_path / "ghost.mtx")}],
            "solvers": [{"kind": "mu"}],
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        code, _, stderr = run_cli(
            capsys, "bench", "--plan", str(path),
            "--out-dir", str(tmp_path / "a"))
        assert code == 2
        assert "ghost.mtx" in stderr

    def test_missing_archive_exits_two(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "report", "--archive", str(tmp_path / "none"),
            "--what", "summary", "--out", str(tmp_path / "s.json"))
        assert code == 2

    def test_workers_env_cap(self, tmp_path, capsys, plan_file, monkeypatch):
        monkeypatch.setenv("KLNMF_THREADS", "2")
        code, stdout, _ = run_cli(
            capsys, "bench", "--plan", str(plan_file),
            "--out-dir", str(tmp_path / "env"))
        assert code == 0
        assert "workers=2" in stdout

    @pytest.fixture
    def one_core(self, monkeypatch):
        """One physical core, and an execute that records the worker count
        it gets but runs inline."""
        import klnmf.cli as cli_mod

        real_execute = cli_mod.benchmark.execute
        seen = []

        def inline_execute(plan, workers=1, **kwargs):
            seen.append(workers)
            return real_execute(plan, workers=1, **kwargs)

        monkeypatch.setattr(cli_mod, "_physical_cores", lambda: 1)
        monkeypatch.setattr(cli_mod.benchmark, "execute", inline_execute)
        return seen

    def test_fair_timing_caps_printed_and_used_workers(self, tmp_path, capsys,
                                                       plan_file, one_core):
        code, stdout, _ = run_cli(
            capsys, "bench", "--plan", str(plan_file), "--workers", "4",
            "--fair-timing", "--out-dir", str(tmp_path / "fair"))
        assert code == 0
        assert "workers=1" in stdout.split()
        assert one_core == [1]

    def test_workers_flag_uncapped_without_fair_timing(self, tmp_path, capsys,
                                                       plan_file, one_core):
        code, stdout, _ = run_cli(
            capsys, "bench", "--plan", str(plan_file), "--workers", "4",
            "--out-dir", str(tmp_path / "free"))
        assert code == 0
        assert "workers=4" in stdout.split()
        assert one_core == [4]
