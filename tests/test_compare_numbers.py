"""scripts/compare_numbers.py: diff lists every missing or changed array, and dump's verify,
escalate and kernel arrays are verify_strategy's report fields and grid, the crossovers, the
escalate result without its report's numbers, and the kernels' values."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bandctl import (BandOne, BandTwo, OptimizationResult, build_scale, total_cost, total_cost_two,
                     verify_strategy)
from bandctl.passage import ExitContext
from bandctl.verify import _min_crossovers
from .conftest import make_ex1, make_ex1_hyper, make_ex3

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_numbers.py"
_spec = importlib.util.spec_from_file_location("compare_numbers", SCRIPT)
compare_numbers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_numbers)


def test_diff_lists_changed_and_missing_arrays(tmp_path, capsys):
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    same = {"band/x/V0": np.array(1.5), "escalate/ex1": np.array("Result(y1=3.0)")}
    np.savez(a, **same, grid=np.array([1.0, 2.0]), res=np.array([3.0, 1e-15]))
    np.savez(b, **same, grid=np.array([1.0, 2.5]), res=np.array([3.0, 2e-15]), extra=np.zeros(2))
    assert compare_numbers.main(["diff", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "5 arrays compared; differing: 3" in out
    assert "grid: largest absolute difference 0.5, relative 0.2" in out
    # a residual near 0: the relative change is large, the absolute one is not
    assert "res: largest absolute difference 1e-15, relative 0.5" in out
    assert f"extra: only in {b}" in out

    assert compare_numbers.main(["diff", str(a), str(a)]) == 0
    assert "differing: 0" in capsys.readouterr().out


@pytest.mark.parametrize("th", [(2.468, 3.114, 4.610), (2.468, 3.114, 4.610, 7.66)],
                         ids=["type-one", "type-two"])
def test_verify_arrays_hold_the_report_fields(th):
    model = make_ex3()
    arrays = compare_numbers._verify_arrays("ex3-base", model, th)
    assert list(arrays) == [f"verify/ex3-base/{name}"
                            for name in compare_numbers.VERIFY_FIELDS + ("crossovers",)]
    surface = total_cost_two(model, BandTwo(*th)) if len(th) == 4 else total_cost(model, BandOne(*th))
    report = verify_strategy(model, surface)
    for name in compare_numbers.VERIFY_FIELDS:
        assert np.array_equal(arrays[f"verify/ex3-base/{name}"], getattr(report, name))
    # the points the residuals and slacks are read at
    grid = arrays["verify/ex3-base/grid"]
    assert grid.shape == arrays["verify/ex3-base/residual_L1"].shape and np.all(np.diff(grid) > 0)
    # the min-selection's one kink, near y3
    crossovers = _min_crossovers(surface)
    assert len(crossovers) == 1 and abs(crossovers[0] - 3.114) < 1e-2
    assert np.array_equal(arrays["verify/ex3-base/crossovers"], crossovers)


def test_escalate_summary_leaves_out_the_report_numbers():
    # kind, thresholds, objective, verified flag and failure count; the
    # report's scale, residuals and gaps are dumped under verify/* alone
    model = make_ex1()
    band = BandOne(0.0, 0.0, 3.3743305488598034)
    surface = total_cost(model, band)
    report = verify_strategy(model, surface)
    result = OptimizationResult("doshi", band, surface.V0, surface, report.passed, report)
    summary = compare_numbers._escalate_summary(result)
    assert summary.shape == () and summary.dtype.kind == "U"
    assert str(summary) == repr(("doshi", (0.0, 0.0, 3.3743305488598034), surface.V0, True, 0))
    assert repr(report.scale) not in str(summary)


@pytest.mark.parametrize("config, make", [("ex1", make_ex1), ("ex1-hyper", make_ex1_hyper)])
def test_kernel_arrays_hold_the_kernel_values(config, make):
    model = make()
    arrays = compare_numbers._kernel_arrays(config, model)
    names = [f"kernel/{config}/p{phase}/{fn}"
             for phase in (1, 2) for fn in compare_numbers.KERNEL_FNS]
    if config in compare_numbers.RESOLVENT_CONFIGS:
        names.append(f"kernel/{config}/p2/resolvent_transform")
    assert list(arrays) == names
    inputs = compare_numbers._kernel_inputs(model.b)
    assert [x.shape for x in inputs] == [(), (48,), (401,), (3, 200, 48)]
    for phase in (1, 2):
        scale = build_scale(model, phase)
        for fn in compare_numbers.KERNEL_FNS:
            want = np.concatenate([np.ravel(getattr(scale, fn)(x)) for x in inputs])
            assert np.array_equal(arrays[f"kernel/{config}/p{phase}/{fn}"], want)
    if config in compare_numbers.RESOLVENT_CONFIGS:
        ctx = ExitContext(build_scale(model, 2), 0.25 * model.b, model.b)
        want = np.concatenate([np.ravel(ctx.resolvent_transform(x, ctx.exits(x, model.h2)[0]))
                               for x in compare_numbers._resolvent_inputs(model.b)])
        assert want.size == len(model.demand.rates) * (401 + 20 * 48 + 3001 + 40 * 9)
        assert np.array_equal(arrays[f"kernel/{config}/p2/resolvent_transform"], want)
