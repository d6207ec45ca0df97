"""tools/bench_pairs.py: the statistics of BENCH_<n>.json from pairs of runs."""
import importlib.util
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
    pairs = [{"parent": record(p, [10, 12, 14]), "change": record(c, [3, 5], failed)}
             for p, c, failed in zip(parent, change, (0, 0, 1, 0))]
    entry = bench_pairs.compare(pairs, {"sn.solve_s": "lower"})
    metric = entry["metrics"]["sn.solve_s"]
    assert metric["parent"] == {"median": pytest.approx(0.43), "q1": pytest.approx(0.415),
                                "q3": pytest.approx(0.455), "runs": parent}
    assert metric["change"]["median"] == pytest.approx(0.38)
    # One pair is a tie, which counts for neither side.
    assert metric["change_wins"] == "2/4"
    assert metric["change_over_parent_median"] == pytest.approx(0.38 / 0.43)
    assert entry["correct"]["change"] == [True, True, False, True]
    assert entry["failed_of_attempted"]["change"][2] == "1/5"
    assert entry["minor_faults"] == {"sn.minor_faults": {"parent": 12.0, "change": 4.0}}
