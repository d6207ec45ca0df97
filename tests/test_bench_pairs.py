"""tools/bench_pairs.py: the statistics of BENCH_<n>.json from pairs of runs."""
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def record(solve_s, faults, failed=0):
    return {"summary": {"correct": failed == 0, "attempted": 5, "failed": failed,
                        "metrics": {"sn.solve_s": {"value": solve_s, "unit": "s"}}},
            "result": {"samples": {"sn.minor_faults": faults}}}


def test_compare_reports_spread_wins_and_faults():
    parent = [0.40, 0.44, 0.42, 0.50]
    change = [0.30, 0.45, 0.31, 0.50]
    control = [0.41, 0.43, 0.42, 0.49]
    pairs = [{"parent": record(p, [10, 12, 14]), "change": record(c, [3, 5], failed),
              "control": record(a, [11])}
             for p, c, a, failed in zip(parent, change, control, (0, 0, 1, 0))]
    entry = bench_pairs.compare(pairs, {"sn.solve_s": "lower"})
    metric = entry["metrics"]["sn.solve_s"]
    assert metric["parent"] == {"median": pytest.approx(0.43), "q1": pytest.approx(0.415),
                                "q3": pytest.approx(0.455), "runs": parent}
    assert metric["change"]["median"] == pytest.approx(0.38)
    # One pair is a tie, which counts for neither side.
    assert metric["change_wins"] == "2/4"
    assert metric["change_over_parent_median"] == pytest.approx(0.38 / 0.43)
    assert metric["control_wins"] == "2/4"
    assert metric["control_over_parent_median"] == pytest.approx(0.425 / 0.43)
    assert entry["correct"]["change"] == [True, True, False, True]
    assert entry["failed_of_attempted"]["change"][2] == "1/5"
    assert entry["minor_faults"] == {
        "sn.minor_faults": {"parent": 12.0, "change": 4.0, "control": 11.0}}


def test_claim_rule_calls_faster_slower_and_within_noise():
    parent = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.1, 0.9, 1.0]
    steady = [p * 1.01 for p in parent]

    def call(change, control):
        pairs = [{"parent": record(p, [1]), "change": record(c, [1]),
                  "control": record(a, [1])}
                 for p, c, a in zip(parent, change, control)]
        return bench_pairs.compare(pairs, {"sn.solve_s": "lower"})[
            "metrics"]["sn.solve_s"]["verdict"]

    faster = [p * 0.8 for p in parent]
    faster[3] = 1.0  # a tie, which counts for neither side: 9 wins of 10
    assert call(faster, steady) == "faster"
    assert call([p * 1.2 for p in parent], steady) == "slower"
    # 9 wins, but the control reads further from the parent than the change.
    assert call(faster, [p * 0.7 for p in parent]) == "within noise"
    # The medians are far apart, but the change wins only 8 of 10 pairs.
    mixed = [p * 0.8 for p in parent]
    mixed[0], mixed[1] = 1.2, 1.3
    assert call(mixed, steady) == "within noise"
    # 9 wins and further from 1 than the control, but the shift of 0.05 is
    # inside the parent's q3 - q1 of 0.075.
    close = [p * 0.95 for p in parent]
    close[3] = 1.0
    assert call(close, steady) == "within noise"


def test_traced_seeds_are_paired_and_summarized(tmp_path, monkeypatch):
    for side in bench_pairs.SIDES:
        (tmp_path / side / "klbench").mkdir(parents=True)
        (tmp_path / side / "klbench" / "run.py").write_text("")
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "sn.solve_s", "better": "lower"}],
         "per_layer": [{"name": "scalar_newton.slice_ms", "better": "lower"}]}))
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        side = checkout.name
        calls.append((side, seed, trace))
        rec = record({"parent": 0.4, "change": 0.3, "control": 0.41}[side], [7])
        rec["result"]["machine"] = {"cpu": "x", "loadavg_at_start": seed}
        if trace:
            rec["summary"]["metrics"]["scalar_newton.slice_ms"] = {
                "value": seed + {"parent": 0.0, "change": 0.5,
                                 "control": -0.25}[side], "unit": "ms"}
        return rec

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([
        "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
        "--control", str(tmp_path / "control"), "--out", str(out), "--what", "test", "--workloads", "sparse-counts",
        "--first-seed", "1", "--pairs", "2", "--traced-seed", "5", "6", "7"]) == 0
    # One traced run per side and seed, in the order of permutation seed % 6
    # of (parent, change, control).
    assert [c for c in calls if c[2]] == [
        ("control", 5, 1), ("change", 5, 1), ("parent", 5, 1),
        ("parent", 6, 1), ("change", 6, 1), ("control", 6, 1),
        ("parent", 7, 1), ("control", 7, 1), ("change", 7, 1)]
    bench = json.loads(out.read_text())
    assert bench["machine"] == {"cpu": "x"}
    traced = bench["traced"]
    assert traced["seeds"] == [5, 6, 7]
    entry = traced["workloads"]["sparse-counts"]
    assert entry["pairs"] == 3
    metric = entry["metrics"]["scalar_newton.slice_ms"]
    assert metric["parent"]["runs"] == [5.0, 6.0, 7.0]
    assert metric["change"]["median"] == 6.5
    assert metric["change_wins"] == "0/3"
    assert metric["control"]["runs"] == [4.75, 5.75, 6.75]
    assert metric["control_wins"] == "3/3"
    assert metric["control_over_parent_median"] == pytest.approx(5.75 / 6.0)
    solve = entry["metrics"]["sn.solve_s"]
    assert solve["change_wins"] == "3/3" and solve["control_wins"] == "0/3"
    assert solve["control_over_parent_median"] == pytest.approx(0.41 / 0.4)
    assert entry["correct"]["control"] == [True] * 3
    assert entry["minor_faults"] == {
        "sn.minor_faults": {"parent": 7.0, "change": 7.0, "control": 7.0}}
    untraced = bench["workloads"]["sparse-counts"]
    assert untraced["pairs"] == 2
    assert "scalar_newton.slice_ms" not in untraced["metrics"]
