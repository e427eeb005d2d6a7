import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from bandctl import BandTwo, OptimizationResult, cli, optimize, validate
from bandctl.cli import load_config, main, model_echo

from .conftest import make_ex1, make_ex1_hyper, make_ex2, make_ex3, strip_timing

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DATA = Path(__file__).resolve().parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"
SHIPPED = {
    "ex1": (CONFIGS / "ex1.json", make_ex1),
    "ex2": (CONFIGS / "ex2.json", make_ex2),
    "ex3": (CONFIGS / "ex3.json", make_ex3),
    "ex1-hyper": (CONFIGS.parent / "perfbench" / "configs" / "ex1-hyper.json", make_ex1_hyper),
}


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_configs_are_the_fixtures(name):
    # solve_cached keys by name alone and is fed both forms of each example
    path, make = SHIPPED[name]
    assert validate(load_config(str(path))) == make()


@pytest.mark.parametrize("name", SHIPPED)
def test_model_echo_gives_back_the_file(name):
    path, _ = SHIPPED[name]
    raw = json.loads(path.read_text())
    if raw["demand"]["kind"] == "exponential":
        raw["demand"] = {"kind": "exponential", "rates": [raw["demand"]["rate"]],
                         "weights": [1.0]}
    # compared as a report shows it: JSON writes the echo's tuples as lists
    assert json.loads(json.dumps(model_echo(load_config(str(path))))) == raw


def test_load_and_echo_roundtrip(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["evaluate", str(CONFIGS / "ex1.json"), "--y2", "1.526", "--y3", "1.526",
               "--y1", "5.077", "--grid", "12", "--output", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["model"]["sigma1"] == 3.0
    assert rep["model"]["switching"][0][1] == 4.0
    assert len(rep["grid"]) == 12
    assert rep["objective"] == rep["level_b"]["V0"]


def test_evaluate_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["evaluate", str(CONFIGS / "ex3.json"), "--y2", "2.468", "--y3", "3.114",
            "--y1", "4.610", "--y4", "7.660", "--grid", "40"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert strip_timing(a.read_text()) == strip_timing(b.read_text())


def test_verify_matches_recorded_report(tmp_path):
    # the whole verify report, byte for byte apart from the timing field
    out = tmp_path / "v.json"
    rc = main(["verify", str(CONFIGS / "ex3.json"), "--y2", "2.468", "--y3", "3.114",
               "--y1", "4.610", "--y4", "7.660", "--grid", "100", "--output", str(out)])
    assert rc == 0
    want = (DATA / "verify-ex3.json").read_text()
    assert strip_timing(out.read_text()) == strip_timing(want)


@pytest.mark.parametrize("args, recorded", [
    (["solve", "ex1.json"], "solve-ex1.json"),
    (["evaluate", "ex3.json", "--y2", "2.468", "--y3", "3.114", "--y1", "4.610",
      "--y4", "7.660", "--grid", "40"], "evaluate-ex3-two.json"),
    (["simulate", "ex1.json", "--y2", "1.526", "--y1", "5.077", "--x0", "3.0",
      "--phase", "2", "--paths", "4000", "--seed", "7"], "simulate-ex1.json"),
], ids=["solve-ex1", "evaluate-ex3-two", "simulate-ex1"])
def test_report_matches_recorded(tmp_path, args, recorded):
    cmd, config, *rest = args
    out = tmp_path / "r.json"
    assert main([cmd, str(CONFIGS / config), *rest, "--output", str(out)]) == 0
    want = (DATA / recorded).read_text()
    assert strip_timing(out.read_text()) == strip_timing(want)


def test_simulate_jobs_invariant_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["simulate", str(CONFIGS / "ex1.json"), "--y2", "1.526", "--y1", "5.077",
            "--x0", "3.0", "--phase", "2", "--paths", "4000", "--seed", "7"]
    assert main(base + ["--jobs", "1", "--output", str(a)]) == 0
    assert main(base + ["--jobs", "3", "--output", str(b)]) == 0
    assert strip_timing(a.read_text()) == strip_timing(b.read_text())


def test_solve_two_passes_tol(tmp_path, monkeypatch):
    # stub optimizers: only the tolerance handed to type two is under test;
    # type two runs its own type-one search, so the type-one stage never runs
    band = BandTwo(2.468, 3.114, 4.610, 7.660)
    surface = SimpleNamespace(H0=1.0, S0=2.0, K0=3.0, V0=6.0)
    seen = {}

    report = SimpleNamespace(failures=[])

    def type_one(model, tol=None):
        raise AssertionError("solve --strategy two ran the verified type-one stage")

    def type_two(model, base=None, tol=None):
        seen["two"] = (base, tol)
        return OptimizationResult("two", band, surface.V0, surface, True, report)

    monkeypatch.setattr(cli, "optimize_type_one", type_one)
    monkeypatch.setattr(cli, "optimize_type_two", type_two)
    out = tmp_path / "s.json"
    assert main(["solve", str(CONFIGS / "ex3.json"), "--strategy", "two", "--tol", "0.123",
                 "--output", str(out)]) == 0
    assert seen == {"two": (None, 0.123)}
    assert json.loads(out.read_text())["strategy_kind"] == "two"


def test_solve_two_verifies_only_type_two_bands(tmp_path, monkeypatch):
    # the type-one search that supplies (y2, y3, y1) is not verified: escalate
    # needs that verdict to decide whether type two runs, solve --strategy two not
    bands = []
    real_verify = optimize.verify_strategy

    def verify(model, surface, tol):
        bands.append(surface.band)
        return real_verify(model, surface, tol=tol)

    monkeypatch.setattr(optimize, "verify_strategy", verify)
    out = tmp_path / "s.json"
    assert main(["solve", str(CONFIGS / "ex3.json"), "--strategy", "two",
                 "--output", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["strategy_kind"] == "two" and rep["verified"] is True
    assert bands == [BandTwo(**rep["thresholds"])]


def test_verify_subcommand(tmp_path):
    out = tmp_path / "v.json"
    rc = main(["verify", str(CONFIGS / "ex3.json"), "--y2", "2.468", "--y3", "3.114",
               "--y1", "4.610", "--y4", "7.660", "--output", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["verified"] is True
    assert rep["failures"] == []


def test_plot_data_threshold_doubling(tmp_path):
    out = tmp_path / "p.csv"
    rc = main(["plot-data", str(CONFIGS / "ex1.json"), "--y2", "1.526", "--y3", "1.526",
               "--y1", "5.077", "--grid", "25", "--output", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,V1,H1,S1,K1,V2,H2,S2,K2,V0,H0,S0,K0"
    xs = [float(line.split(",")[0]) for line in lines[1:]]
    assert xs.count(1.526) == 2 and xs.count(5.077) == 2
    # the two rows at a threshold expose the jump in V2
    rows = [line.split(",") for line in lines[1:]]
    at = [r for r in rows if float(r[0]) == 1.526]
    assert float(at[0][5]) != float(at[1][5])


@pytest.mark.parametrize("config, thresholds, recorded", [
    ("ex1.json", ["--y2", "1.526", "--y3", "1.526", "--y1", "5.077"], "plot-data-ex1.csv"),
    ("ex3.json", ["--y2", "2.468", "--y3", "3.114", "--y1", "4.61", "--y4", "7.66"],
     "plot-data-ex3-two.csv"),
], ids=["ex1", "ex3-two"])
def test_plot_data_matches_recorded_csv(tmp_path, config, thresholds, recorded):
    # the CSV keeps the recorded header and x column byte for byte, and every
    # value within 1e-12 relative: the recorded files came from quadrature of
    # the transfer-map tails and the shortage integral, now closed forms
    out = tmp_path / "p.csv"
    rc = main(["plot-data", str(CONFIGS / config), *thresholds, "--grid", "25",
               "--output", str(out)])
    assert rc == 0
    got = out.read_text().splitlines()
    want = (DATA / recorded).read_text().splitlines()
    assert got[0] == want[0]
    assert len(got) == len(want)
    for row, ref in zip(got[1:], want[1:]):
        cells, ref_cells = row.split(","), ref.split(",")
        assert cells[0] == ref_cells[0]
        assert len(cells) == len(ref_cells)
        for cell, ref_cell in zip(cells[1:], ref_cells[1:]):
            assert float(cell) == pytest.approx(float(ref_cell), rel=1e-12, abs=0.0), row


def test_invalid_config_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    cfg = json.loads((CONFIGS / "ex1.json").read_text())
    cfg["sigma2"] = 9.0
    bad.write_text(json.dumps(cfg))
    assert main(["evaluate", str(bad), "--y2", "1.0", "--y1", "5.0"]) == 2
    assert main(["evaluate", str(tmp_path / "missing.json"), "--y2", "1.0",
                 "--y1", "5.0"]) == 2


@pytest.mark.parametrize("cmd, output", [
    (["evaluate", "ex1.json", "--y2", "1.526", "--y1", "5.077", "--grid", "5"],
     "missing/r.json"),
    (["plot-data", "ex1.json", "--y2", "1.526", "--y1", "5.077", "--grid", "5"], "."),
], ids=["evaluate-missing-directory", "plot-data-directory"])
def test_unwritable_output_exits_two(tmp_path, capsys, cmd, output):
    name, config, *rest = cmd
    path = str(tmp_path / output)
    assert main([name, str(CONFIGS / config), *rest, "--output", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"bandctl: cannot write output {path}: [Errno ")
    assert "configuration" not in err and "Traceback" not in err


@pytest.mark.parametrize("field, value, message", [
    ("b", '"ten"', "config field b: ValueError"),
    ("switching", "[[null, 0, 0], [null, null, 0.05], [0, 0.05, null]]",
     "config field switching[1][0]: TypeError"),
    ("switching", "[[null, 0, 0], [0.01, null, 0.05]]",
     "config field switching[2][0]: IndexError"),
    ("demand", "[1.5]", "config field demand: TypeError"),
    ("q", "NaN", "q must be finite"),
    ("lambda", "NaN", "lam must be finite"),
    ("h0_b", "NaN", "h0_b must be finite"),
    ("b", "Infinity", "b must be finite"),
    ("demand", '{"kind": "gamma", "rate": 1.0}', "unknown demand kind 'gamma'"),
], ids=["b-string", "switching-null", "switching-short", "demand-list", "q-nan",
        "lambda-nan", "h0_b-nan", "b-inf", "demand-unknown-kind"])
def test_malformed_config_exits_two(tmp_path, capsys, field, value, message):
    cfg = json.loads((CONFIGS / "ex3.json").read_text())
    text = json.dumps(cfg).replace(f'"{field}": {json.dumps(cfg[field])}', f'"{field}": {value}')
    assert json.loads(text)[field] != cfg[field]
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["evaluate", str(bad), "--y2", "2.468", "--y1", "4.61", "--grid", "5"]) == 2
    err = capsys.readouterr().err
    assert f"bandctl: invalid configuration: {message}" in err
    assert "Traceback" not in err


def test_verify_nan_tolerance_exits_two(capsys):
    # the tabulated ex1 band fails verification; a NaN tolerance must not pass it
    rc = main(["verify", str(CONFIGS / "ex1.json"), "--y2", "1.526", "--y1", "5.077",
               "--tol", "nan"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bandctl: invalid argument: verification needs a finite tol > 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("strategy", ["doshi", "one", "two", "auto"])
def test_solve_nan_tolerance_exits_before_optimizing(monkeypatch, capsys, strategy):
    # the first stage that runs checks the tolerance before it searches
    def unreachable(*args, **kwargs):
        raise AssertionError("an optimizer stage searched before the tolerance was checked")

    for name in ("_lattice", "_polish", "total_cost_two", "verify_strategy"):
        monkeypatch.setattr(optimize, name, unreachable)
    rc = main(["solve", str(CONFIGS / "ex2.json"), "--strategy", strategy, "--tol", "nan"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bandctl: invalid argument: verification needs a finite tol > 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("cmd, grid", [("evaluate", "-3"), ("verify", "0"), ("plot-data", "-2")])
def test_nonpositive_grid_is_a_usage_error(capsys, cmd, grid):
    with pytest.raises(SystemExit) as exc:
        main([cmd, str(CONFIGS / "ex3.json"), "--y2", "2.468", "--y1", "4.61", "--grid", grid])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "must be a positive integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_nonpositive_jobs_is_a_usage_error(capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", str(CONFIGS / "ex1.json"), "--y2", "1.526", "--y1", "5.077",
              "--x0", "3.0", "--phase", "2", "--paths", "100", "--jobs", jobs])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "must be a positive integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("x0, shown", [("nan", "nan"), ("inf", "inf"), ("11", "11.0")])
def test_simulate_invalid_start_exits_two(capsys, x0, shown):
    rc = main(["simulate", str(CONFIGS / "ex1.json"), "--y2", "1.526", "--y1", "5.077",
               "--x0", x0, "--phase", "1", "--paths", "100"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"bandctl: invalid argument: x0={shown} outside [0.0, 10.0]" in err
    assert "Traceback" not in err


# a valid config with a bad command-line value: the value, not the config, is named
@pytest.mark.parametrize("argv, message", [
    (["simulate", "--y2", "1.526", "--y1", "5.077", "--x0", "3.0", "--phase", "2",
      "--paths", "0"], "n_paths must be >= 2 for a standard error"),
    (["evaluate", "--y2", "nan", "--y1", "5.077"], "band ordering violated: BandOne(y2=nan"),
], ids=["simulate-paths-0", "evaluate-y2-nan"])
def test_bad_command_line_value_exits_two(capsys, argv, message):
    assert main([argv[0], str(CONFIGS / "ex1.json"), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert f"bandctl: invalid argument: {message}" in err
    assert "invalid configuration" not in err and "Traceback" not in err


def test_import_loads_neither_scipy_nor_a_process_pool():
    code = ("import sys, bandctl; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process'))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_escalate_and_verify_load_no_numpy_ma():
    # np.unique imports numpy.ma on first use; the package sorts and dedups without it
    code = ("import sys; from bandctl import escalate, validate, verify_strategy; "
            "from bandctl.cli import load_config; m = validate(load_config(sys.argv[1])); "
            "verify_strategy(m, escalate(m).surface); print('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code, str(CONFIGS / "ex1.json")], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_escalate_loads_neither_numpy_ma_nor_numpy_random():
    # the polish's start perturbations are frozen numbers, so no solve loads
    # numpy.random, and its workers are forked directly, without a process pool
    code = ("import sys; from bandctl import escalate, validate; "
            "from bandctl.cli import load_config; "
            "[escalate(validate(load_config(p))) for p in sys.argv[1:]]; "
            "print([m for m in ('numpy.ma', 'numpy.random', 'multiprocessing',"
            " 'concurrent.futures') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    paths = [str(CONFIGS / f"{name}.json") for name in ("ex1", "ex2", "ex3")]
    out = subprocess.run([sys.executable, "-c", code, *paths], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_solve_require_verified_exit_three(tmp_path):
    # the best two-threshold policy for the second example is unverifiable
    out = tmp_path / "s.json"
    rc = main(["solve", str(CONFIGS / "ex2.json"), "--strategy", "doshi",
               "--require-verified", "--output", str(out)])
    assert rc == 3
    rep = json.loads(out.read_text())
    assert rep["verified"] is False
    assert rep["verification_failures"]


def test_solve_fixed_strategy_report(tmp_path):
    out = tmp_path / "s.json"
    rc = main(["solve", str(CONFIGS / "ex1.json"), "--strategy", "doshi",
               "--output", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["strategy_kind"] == "doshi"
    assert rep["verified"] is True
    assert rep["thresholds"]["y2"] == pytest.approx(0.0, abs=1e-3)
    assert rep["thresholds"]["y1"] == pytest.approx(3.374, abs=5e-3)
