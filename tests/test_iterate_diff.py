"""tools/iterate_diff.py: capped runs dump bitwise equal twice, and compare
flags every array that differs."""
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
_PATH = ROOT / "tools" / "iterate_diff.py"
_spec = importlib.util.spec_from_file_location("iterate_diff", _PATH)
iterate_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(iterate_diff)


def test_toy_dumps_of_one_checkout_are_bitwise_equal(tmp_path, capsys):
    dumps = [tmp_path / "first.npz", tmp_path / "second.npz"]
    for path in dumps:
        subprocess.run([sys.executable, str(_PATH), "dump", "--checkout", str(ROOT),
                        "--out", str(path), "--toy"],
                       check=True, capture_output=True, text=True)
    assert iterate_diff.compare(*dumps) == 0
    assert "DIFFERS" not in capsys.readouterr().out
    with np.load(dumps[0]) as dump:
        keys = set(dump.files)
        for workload in ("dense-poisson", "sparse-counts"):
            for kind in iterate_diff.KINDS:
                assert dump[f"solve:{workload}:{kind}:sweep"][-1] == iterate_diff.TOY_CAP
        assert any(key.startswith("sweep:") for key in keys)
        assert any(key.startswith("plan:") and key.endswith(":final_error")
                   for key in keys)
    assert not any(key.endswith(("elapsed_s", "time")) for key in keys)


def test_compare_flags_differing_and_missing_arrays(tmp_path, capsys):
    base = {"W": np.array([1.0, 2.0]), "note": np.array("")}
    np.savez(tmp_path / "a.npz", **base)
    np.savez(tmp_path / "b.npz", **base)
    assert iterate_diff.compare(tmp_path / "a.npz", tmp_path / "b.npz") == 0

    np.savez(tmp_path / "c.npz", W=np.array([1.0, np.nextafter(2.0, 3.0)]),
             extra=np.zeros(1), note=np.array("ValueError: x"))
    capsys.readouterr()
    assert iterate_diff.compare(tmp_path / "a.npz", tmp_path / "c.npz") == 1
    out = capsys.readouterr().out
    assert "DIFFERS  W: largest relative difference 2.22e-16" in out
    assert "DIFFERS  note: largest relative difference n/a" in out
    assert "MISSING  extra" in out
    assert "0 of 3 arrays bitwise equal" in out


@pytest.fixture(scope="module")
def plain_and_nudged(tmp_path_factory):
    """Toy dumps of this checkout, plain and with the init nudged."""
    tmp = tmp_path_factory.mktemp("dumps")
    dumps = {}
    for name, flags in (("plain", []), ("nudged", ["--nudge"])):
        dumps[name] = tmp / f"{name}.npz"
        subprocess.run([sys.executable, str(_PATH), "dump", "--checkout", str(ROOT),
                        "--out", str(dumps[name]), "--toy", *flags],
                       check=True, capture_output=True, text=True)
    return dumps


def test_nudged_toy_dump_moves_every_solve_but_not_its_sweeps(plain_and_nudged):
    dumps = plain_and_nudged
    assert iterate_diff.compare(dumps["plain"], dumps["nudged"]) == 1
    with np.load(dumps["plain"]) as plain, np.load(dumps["nudged"]) as nudged:
        assert set(plain.files) == set(nudged.files)
        for workload in ("dense-poisson", "sparse-counts"):
            for kind in iterate_diff.KINDS:
                key = f"solve:{workload}:{kind}"
                # The init moved, the sweeps run did not.
                assert not all(np.array_equal(plain[f"{key}:{part}"],
                                              nudged[f"{key}:{part}"])
                               for part in ("W", "H", "objective"))
                np.testing.assert_array_equal(plain[f"{key}:sweep"],
                                              nudged[f"{key}:sweep"])


def test_floor_of_the_nudged_dump_itself_has_ratio_one(plain_and_nudged, capsys):
    dumps = plain_and_nudged
    assert iterate_diff.compare(dumps["plain"], dumps["nudged"],
                                floor=dumps["nudged"]) == 1
    lines = capsys.readouterr().out.splitlines()
    differing = [line for line in lines if line.startswith("DIFFERS")]
    classes = dict(line[len("class "):].split(": ", 1) for line in lines
                   if line.startswith("class "))
    assert differing and all(line.endswith("ratio 1") for line in differing)
    with np.load(dumps["plain"]) as plain:
        assert set(classes) == {iterate_diff._output_class(key)
                                for key in plain.files}
    assert {"plan:sn:final_error", "solve:dense-poisson:snmu:H",
            "sweep:ccd:W"} <= set(classes)
    assert all(summary.endswith("ratio 1") for summary in classes.values())
    # At least one class moved, so its floor is not 0.
    assert any("largest floor 0," not in summary for summary in classes.values())
