"""Fast tests of the benchmark's own checks and of its toy-size mode.

    python3 -m pytest -q klbench/selftest.py

The file name keeps it out of the program's test suite; pass it explicitly.
"""
from __future__ import annotations

import math

import bootstrap

bootstrap.prepare()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from klnmf import benchmark as kbench  # noqa: E402
from klnmf import objective as kobjective  # noqa: E402
from klnmf.benchstats import RunResult  # noqa: E402


@pytest.fixture
def solved():
    rng = np.random.default_rng(3)
    V = rng.poisson(rng.uniform(0, 3, (12, 9)) @ rng.uniform(0, 1, (9, 9))).astype(float)
    V[2] = 0.0
    W = rng.uniform(0.1, 1.0, (12, 3))
    H = rng.uniform(0.1, 1.0, (3, 9))
    reported = kobjective.relative_error(V, W, H).value
    return V, W, H, reported


def test_own_kl_matches_program_on_sparse_data(solved):
    V, W, H, reported = solved
    assert math.isclose(checks.relative_error(V, W, H), reported, rel_tol=1e-12)
    assert math.isclose(checks.kl_divergence(V, W @ H),
                        kobjective.kl_divergence(V, W, H).value, rel_tol=1e-12)


def test_check_solve_passes_a_correct_solve(solved):
    V, W, H, reported = solved
    assert checks.check_solve(V, W, H, 0.0, reported, reported, [3.0, 2.0, 2.0]) == []


def test_check_solve_catches_nan_factor(solved):
    V, W, H, reported = solved
    W = W.copy()
    W[0, 0] = np.nan
    assert any("non-finite" in p for p in checks.check_solve(V, W, H, 0.0, reported, 1.0))


def test_check_solve_catches_entry_below_epsilon(solved):
    V, W, H, reported = solved
    assert any("below epsilon" in p for p in checks.check_solve(V, W, H, 0.2, reported, 1.0))


def test_check_solve_catches_objective_one_percent_off(solved):
    V, W, H, reported = solved
    problems = checks.check_solve(V, W, H, 0.0, reported * 1.01, 1.0)
    assert any("differs from the recomputed" in p for p in problems)


def test_check_solve_catches_missed_target(solved):
    V, W, H, reported = solved
    assert any("above the target" in p
               for p in checks.check_solve(V, W, H, 0.0, reported, reported * 0.99))


def test_check_monotone_catches_increase():
    assert checks.check_monotone([5.0, 4.0, 4.0 * (1 + 1e-13)]) == []
    assert checks.check_monotone([5.0, 4.0, 4.1, 3.0])


NAN_FAILURE = "ValueError: finite objective required, got nan"


def test_known_fault_is_tied_to_named_operations():
    assert checks.is_known_fault("sparse-counts", "ccd", NAN_FAILURE)
    assert checks.is_known_fault("small-plan", "m006-i01-ccd", NAN_FAILURE)
    assert not checks.is_known_fault("dense-poisson", "ccd", NAN_FAILURE)
    assert not checks.is_known_fault("sparse-counts", "sn", NAN_FAILURE)
    assert not checks.is_known_fault("small-plan", "m006-i00-ccd", NAN_FAILURE)
    assert not checks.is_known_fault("sparse-counts", "ccd", "ValueError: boom")


def test_check_plan_catches_bad_report_and_archive():
    results = [
        RunResult("m006-i01-mu", "mu", "m006", "i01", "c", 0.5, 0.1),
        RunResult("m006-i01-ccd", "ccd", "m006", "i01", "c", math.inf, 0.0,
                  failure=NAN_FAILURE),
    ]
    report = kbench.build_report(results)
    assert checks.check_plan(results, report, list(results)) == []
    report["c"]["mu"]["mean"] *= 1.01
    report["c"]["ccd"]["ranking"] = [0, 0]
    problems = checks.check_plan(results, report, results[:1])
    assert any("mean of mu" in p for p in problems)
    assert any("ranking of ccd" in p for p in problems)
    assert any("load_archive" in p for p in problems)
    for run_id, solver in (("m000-i01-ccd", "ccd"), ("m006-i01-sn", "sn")):
        other = [results[0], RunResult(run_id, solver, "m006", "i01", "c", math.inf,
                                       0.0, failure=NAN_FAILURE)]
        assert any(f"run {run_id} failed" in p for p in
                   checks.check_plan(other, kbench.build_report(other), other))


def test_ccd_failure_on_dense_data_is_a_problem(monkeypatch):
    run = workloads.ksolver.run

    def failing_ccd(instance, init, config):
        if config.kind == "ccd":
            raise ValueError("finite objective required, got nan")
        return run(instance, init, config)

    monkeypatch.setattr(workloads.ksolver, "run", failing_ccd)
    result = workloads.measure("dense-poisson", seed=1, seconds=0.05,
                               trace=False, toy=True)
    assert not result["correct"]
    assert any("ccd failed: ValueError: finite objective required" in p
               for p in result["problems"])


@pytest.mark.parametrize("name", ["dense-poisson", "sparse-counts", "small-plan"])
@pytest.mark.parametrize("trace", [False, True])
def test_toy_workload_runs_every_check(name, trace):
    result = workloads.measure(name, seed=1, seconds=0.05, trace=trace, toy=True)
    assert result["correct"], result["problems"]
    assert result["attempted"] >= 1
    missing = set(run.manifest_names(trace)) - set(result["metrics"])
    assert not missing, f"{name} does not measure {sorted(missing)}"
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
