"""scripts/compare_numbers.py diff: every missing or changed array is listed."""

import importlib.util
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_numbers.py"
_spec = importlib.util.spec_from_file_location("compare_numbers", SCRIPT)
compare_numbers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_numbers)


def test_diff_lists_changed_and_missing_arrays(tmp_path, capsys):
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    same = {"band/x/V0": np.array(1.5), "escalate/ex1": np.array("Result(y1=3.0)")}
    np.savez(a, **same, grid=np.array([1.0, 2.0]))
    np.savez(b, **same, grid=np.array([1.0, 2.5]), extra=np.zeros(2))
    assert compare_numbers.main(["diff", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "4 arrays compared; differing: 2" in out
    assert "grid: largest relative difference 0.2" in out
    assert f"extra: only in {b}" in out

    assert compare_numbers.main(["diff", str(a), str(a)]) == 0
    assert "differing: 0" in capsys.readouterr().out
