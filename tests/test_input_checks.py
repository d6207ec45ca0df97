"""Every input check raises or exits with its documented error."""
import math

import numpy as np
import pytest

from klnmf import (BenchPlan, KLObjective, MatrixFileError, RunResult,
                   ShapeError, SolverConfig, SyntheticSpec, load_matrix,
                   median_curve, performance_profile, ranking_vectors,
                   read_traces, save_matrix)
from klnmf.cli import main
from klnmf.synthetic import gen_full_rank, gen_low_rank

SPEC = SyntheticSpec(kind="low-rank", m=6, n=6, r_true=2, seed=7)


def plan(**changes):
    fields = {"matrices": (SPEC,), "inits_per_matrix": 1,
              "solvers": (SolverConfig(kind="mu"),), "time_budget": math.inf,
              "rank": 2, "seed": 1}
    return BenchPlan(**{**fields, **changes})


@pytest.mark.parametrize("changes, message", [
    ({"inits_per_matrix": 0}, "inits_per_matrix"),
    ({"matrices": ()}, "at least one matrix"),
    ({"solvers": ()}, "at least one solver"),
    ({"rank": 0}, "rank"),
])
def test_bench_plan_rejects(changes, message):
    with pytest.raises(ValueError, match=message):
        plan(**changes)


@pytest.mark.parametrize("changes, message", [
    ({"epsilon": -1e-9}, "epsilon"),
    ({"max_outer_iters": -1}, "max_outer_iters"),
])
def test_solver_config_rejects(changes, message):
    with pytest.raises(ValueError, match=message):
        SolverConfig(kind="mu", **changes)


@pytest.mark.parametrize("changes, message", [
    ({"kind": "diagonal"}, "kind"),
    ({"noise": "gaussian"}, "noise"),
    ({"m": 0}, "dimensions"),
    ({"n": 0}, "dimensions"),
])
def test_synthetic_spec_rejects(changes, message):
    fields = {"kind": "low-rank", "m": 4, "n": 4, "r_true": 1, **changes}
    with pytest.raises(ValueError, match=message):
        SyntheticSpec(**fields)


@pytest.mark.parametrize("generator, kind", [(gen_low_rank, "full-rank"),
                                             (gen_full_rank, "low-rank")])
def test_generators_reject_the_other_kind(generator, kind):
    with pytest.raises(ValueError, match=f"spec kind is '{kind}'"):
        generator(SyntheticSpec(kind=kind, m=4, n=4))


COORDINATE = "%%MatrixMarket matrix coordinate real general\n"
ARRAY = "%%MatrixMarket matrix array real general\n"


@pytest.mark.parametrize("text, message", [
    (COORDINATE + "2 2 1\n1 1 inf\n", r":3: non-finite value"),
    (COORDINATE + "% only a comment\n", "missing size line"),
    (ARRAY + "0 2\n", r":2: dimensions must be positive"),
    (COORDINATE + "2 2 1\n1 1\n", r":3: expected 'row col value'"),
    (COORDINATE + "2 2 1\n1 a 1.0\n", r":3: bad indices"),
    (ARRAY + "1 2\n1.0 2.0\n3.0\n", r":3: expected one value per line"),
])
def test_matrixmarket_loader_rejects(tmp_path, text, message):
    path = tmp_path / "bad.mtx"
    path.write_text(text)
    with pytest.raises(MatrixFileError, match=message):
        load_matrix(path)


def test_trace_csv_header_checked(tmp_path):
    path = tmp_path / "traces.csv"
    path.write_text("run_id,solver,elapsed_s\nr,mu,0.0\n")
    with pytest.raises(ValueError, match="unexpected trace header"):
        read_traces(path)


def test_gather_rejects_a_product_of_another_shape():
    objective = KLObjective(np.ones((3, 4)))
    with pytest.raises(ShapeError, match=r"product of shape \(4, 3\)"):
        objective.gather(np.ones((4, 3)))


def test_median_curve_needs_curves():
    with pytest.raises(ValueError, match="no curves"):
        median_curve([], np.linspace(0.0, 1.0, 3))


@pytest.mark.parametrize("statistic", [
    ranking_vectors, lambda results: performance_profile(results, [0.0, 1.0])])
def test_solver_twice_in_a_group_rejected(statistic):
    results = [RunResult(run_id=f"r{k}", solver="mu", matrix_id="m0",
                         init_id="i0", class_label="c", final_error=0.5,
                         time_to_final=1.0) for k in range(2)]
    with pytest.raises(ValueError, match="'mu' appears twice"):
        statistic(results)


class TestCli:
    @pytest.fixture
    def matrix_file(self, tmp_path):
        path = tmp_path / "v.mtx"
        save_matrix(np.full((4, 3), 2.0), path)
        return path

    def run_cli(self, capsys, *argv):
        code = main([str(arg) for arg in argv])
        return code, capsys.readouterr().err

    def test_low_rank_needs_rank(self, tmp_path, capsys):
        code, err = self.run_cli(capsys, "generate", "--kind", "low-rank",
                                 "--m", 4, "--n", 4, "--out", tmp_path / "v.mtx")
        assert code == 1
        assert "--rank is required" in err
        assert not (tmp_path / "v.mtx").exists()

    @pytest.mark.parametrize("cycle, message", [
        ("10", "must look like '10:1'"),
        ("10:x", "invalid literal"),
    ])
    def test_malformed_snmu_cycle_exits_one(self, capsys, matrix_file, cycle,
                                            message):
        code, err = self.run_cli(capsys, "solve", "--matrix", matrix_file,
                                 "--rank", 1, "--solver", "snmu",
                                 "--snmu-cycle", cycle)
        assert code == 1
        assert message in err

    def test_non_integer_worker_variable_exits_one(self, tmp_path, capsys,
                                                   monkeypatch):
        path = tmp_path / "plan.json"
        path.write_text('{"seed": 1, "rank": 1, "solvers": [{"kind": "mu"}], '
                        '"matrices": [{"kind": "full-rank", "m": 3, "n": 3}]}')
        monkeypatch.setenv("KLNMF_THREADS", "two")
        code, err = self.run_cli(capsys, "bench", "--plan", path,
                                 "--out-dir", tmp_path / "out")
        assert code == 1
        assert "KLNMF_THREADS must be an integer, got 'two'" in err
        assert not (tmp_path / "out").exists()

    def test_unreadable_plan_exits_two(self, tmp_path, capsys):
        code, err = self.run_cli(capsys, "bench", "--plan", tmp_path / "none.json",
                                 "--out-dir", tmp_path / "out")
        assert code == 2
        assert "cannot read plan" in err
