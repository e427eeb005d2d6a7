"""Command-line front end: solve / evaluate / verify / simulate / plot-data.

Configs are single JSON documents mirroring the model dataclasses; reports
are JSON with sorted keys so identical inputs give byte-identical output
apart from the timing field.  Exit codes: 0 success, 2 an invalid configuration
or command-line value or an unwritable --output, 3 verification failure under
--require-verified, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .cost_one import BandOne, BandTwo, total_cost
from .cost_two import total_cost_two
from .errors import (
    BandctlError,
    FixedPointNotContractive,
    NoFeasiblePoint,
    QuadratureNotConverged,
    RootFindingFailed,
    ValidationError,
)
from .model import (
    DemandLaw,
    HoldingCost,
    ModelConfig,
    PenaltyCost,
    SwitchMatrix,
    validate,
)
from .optimize import escalate, optimize_doshi, optimize_type_one, optimize_type_two
from .simulate import SimStrategy, estimate_cost
from .verify import DEFAULT_GRID, DEFAULT_TOL, sorted_unique, verify_strategy

log = logging.getLogger("bandctl")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNVERIFIED = 3
EXIT_NUMERIC = 4

_NUMERIC_ERRORS = (QuadratureNotConverged, FixedPointNotContractive, RootFindingFailed,
                   NoFeasiblePoint)


def _demand(d) -> DemandLaw:
    if d["kind"] == "exponential":
        return DemandLaw.exponential(d["rate"])
    if d["kind"] == "hyperexponential":
        return DemandLaw.hyperexponential(d["weights"], d["rates"])
    raise ValidationError(f"unknown demand kind {d['kind']!r}")


# The config's keys in the order load_config reads them, so that a malformed config names
# its first bad field: JSON key, ModelConfig field, and the reader of its value: a number,
# a demand law, or a cost group member by member (switching[i][j] is the cost k_ij).
_CONFIG_KEYS = (
    ("sigma1", "sigma1", float), ("sigma2", "sigma2", float), ("lambda", "lam", float),
    ("q", "q", float), ("b", "b", float), ("l", "l", float), ("demand", "demand", _demand),
    ("h1", "h1", HoldingCost), ("h2", "h2", HoldingCost), ("h0_b", "h0_b", float),
    ("penalty", "penalty", PenaltyCost), ("switching", "switching", SwitchMatrix),
)


def load_config(path: str) -> ModelConfig:
    """Read a JSON config; a missing or malformed field raises ValidationError naming it."""
    with open(path) as fh:
        raw = json.load(fh)
    if isinstance(raw, dict):
        raw.setdefault("l", 0.0)  # the backlog floor may be left out

    def read(path: tuple, parse=float):
        name = path[0] + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path[1:])
        try:
            value = raw
            for k in path:
                value = value[k]
            return parse(value)
        except (TypeError, ValueError, IndexError, KeyError) as exc:
            raise ValidationError(f"config field {name}: {type(exc).__name__}: {exc}") from None

    values = {}
    for key, attr, kind in _CONFIG_KEYS:
        if kind in (float, _demand):
            values[attr] = read((key,), kind)
        elif kind is SwitchMatrix:
            values[attr] = kind(**{f"k{i}{j}": read((key, i, j))
                                   for i in range(3) for j in range(3) if i != j})
        else:
            values[attr] = kind(*(read((key, m)) for m in kind.__match_args__))
    return ModelConfig(**values)


def model_echo(model: ModelConfig) -> dict:
    """The model as a config document; a demand law shows its weights and rates."""
    echo = {}
    for key, attr, kind in _CONFIG_KEYS:
        value = getattr(model, attr)
        if kind is float:
            echo[key] = value
        elif kind is SwitchMatrix:
            echo[key] = [[None if i == j else getattr(value, f"k{i}{j}") for j in range(3)]
                         for i in range(3)]
        else:  # a demand law also shows its kind
            echo[key] = dict(asdict(value), kind=value.kind) if kind is _demand else asdict(value)
    return echo


def _surface_report(surface) -> dict:
    return {
        "H0": surface.H0, "S0": surface.S0, "K0": surface.K0, "V0": surface.V0,
    }


def _run(args, model: ModelConfig, t0: float) -> int:
    """Run a subcommand on its loaded config: build its band and surface, write its report."""
    band = surface = None
    if args.cmd != "solve":
        y3 = args.y2 if args.y3 is None else args.y3
        band = (BandOne(args.y2, y3, args.y1) if args.y4 is None
                else BandTwo(args.y2, y3, args.y1, args.y4))
        if args.cmd != "simulate":
            surface = (total_cost_two if args.y4 is not None else total_cost)(model, band)
    out = args.fn(args, model, band, surface)  # plot-data's CSV, else the report's own fields
    if args.cmd != "plot-data":
        rep = {
            "command": args.cmd,
            "model": model_echo(model),
            "seed": getattr(args, "seed", None),
            "tool_version": __version__,
        }
        if band is not None:
            rep["thresholds"] = asdict(band)
        rep.update(out)
        rep["timing_seconds"] = time.perf_counter() - t0
        out = json.dumps(rep, sort_keys=True, indent=2) + "\n"
    if not args.output:
        sys.stdout.write(out)
    else:
        try:
            with open(args.output, "w") as fh:
                fh.write(out)
        except OSError as exc:
            print(f"bandctl: cannot write output {args.output}: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
    if getattr(args, "require_verified", False) and not rep["verified"]:
        log.error("solve result failed verification")
        return EXIT_UNVERIFIED
    return EXIT_OK


def cmd_solve(args, model, band, surface) -> dict:
    # type two runs its own type-one search, unverified
    stage = {"auto": escalate, "doshi": optimize_doshi, "one": optimize_type_one,
             "two": optimize_type_two}[args.strategy]
    result = stage(model, tol=args.tol)
    return dict(
        strategy_kind=result.strategy_kind,
        thresholds=asdict(result.band),
        objective=result.objective,
        level_b=_surface_report(result.surface),
        verified=result.verified,
        verification_failures=list(result.report.failures),
    )


def cmd_evaluate(args, model, band, surface) -> dict:
    xs = np.linspace(0.0, model.b, args.grid, endpoint=False)
    return dict(
        level_b=_surface_report(surface),
        objective=surface.V0,
        grid=list(xs),
        V1=list(surface.V(1, xs)),
        V2=list(surface.V(2, xs)),
    )


def cmd_verify(args, model, band, surface) -> dict:
    report = verify_strategy(model, surface, tol=args.tol, grid_points=args.grid)
    return dict(
        level_b=_surface_report(surface),
        verified=report.passed,
        tolerance=report.tol,
        scale=report.scale,
        L0_residual=report.L0_residual,
        boundary_1=report.boundary_1,
        boundary_2=report.boundary_2,
        max_abs_residual_L1=float(np.max(np.abs(report.residual_L1))),
        max_abs_residual_L2=float(np.max(np.abs(report.residual_L2))),
        min_hjb_1=float(np.min(report.hjb(1))),
        min_hjb_2=float(np.min(report.hjb(2))),
        failures=list(report.failures),
    )


def cmd_simulate(args, model, band, surface) -> dict:
    strategy = SimStrategy.from_band(band, model)
    est = estimate_cost(model, strategy, args.x0, args.phase, args.paths,
                        base_seed=args.seed, jobs=args.jobs)
    return dict(asdict(est), x0=args.x0, phase=args.phase)


def cmd_plot_data(args, model, band, surface) -> str:
    base = np.linspace(0.0, model.b, args.grid, endpoint=False)
    thresholds = [t for t in surface.thresholds if 0.0 < t < model.b]
    level_b = f",{surface.V0!r},{surface.H0!r},{surface.S0!r},{surface.K0!r}"
    lines = ["x,V1,H1,S1,K1,V2,H2,S2,K2,V0,H0,S0,K0"]
    for x in sorted_unique(np.concatenate([base, thresholds])):
        sides = (-1, +1) if any(abs(x - t) < 1e-12 for t in thresholds) else (0,)
        for side in sides:
            row = [x, *surface.components(1, x, side), *surface.components(2, x, side)]
            lines.append(",".join(repr(float(v)) for v in row) + level_b)
    return "\n".join(lines) + "\n"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bandctl",
                                description="band switching policies for a two-rate "
                                            "production-inventory system")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def command(name, fn, summary, thresholds=True):
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("config")
        sp.add_argument("--output", default=None)
        if thresholds:
            for y in ("--y2", "--y3", "--y1", "--y4"):
                sp.add_argument(y, type=float, required=y in ("--y2", "--y1"))
        sp.set_defaults(fn=fn)
        return sp

    sp = command("solve", cmd_solve, "run the optimize-and-verify escalation", thresholds=False)
    sp.add_argument("--strategy", choices=("doshi", "one", "two", "auto"), default="auto")
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
    sp.add_argument("--require-verified", action="store_true")

    sp = command("evaluate", cmd_evaluate, "cost surface for given thresholds")
    sp.add_argument("--grid", type=_positive_int, default=200)

    sp = command("verify", cmd_verify, "HJB verification report for given thresholds")
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
    sp.add_argument("--grid", type=_positive_int, default=DEFAULT_GRID)

    sp = command("simulate", cmd_simulate, "Monte Carlo estimate for given thresholds")
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--phase", type=int, choices=(0, 1, 2), required=True)
    sp.add_argument("--paths", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--jobs", type=_positive_int, default=1)

    sp = command("plot-data", cmd_plot_data, "CSV of the cost decomposition on a grid")
    sp.add_argument("--grid", type=_positive_int, default=400)

    return p


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("BANDCTL_LOG", "WARNING").upper())
    args = build_parser().parse_args(argv)
    bad = "invalid configuration"
    try:
        t0 = time.perf_counter()
        model = validate(load_config(args.config), allow_backlog=args.cmd == "simulate")
        bad = "invalid argument"  # the config is valid, so a command-line value is at fault
        return _run(args, model, t0)
    except ValidationError as exc:
        print(f"bandctl: {bad}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _NUMERIC_ERRORS as exc:
        print(f"bandctl: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"bandctl: cannot load configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BandctlError as exc:
        print(f"bandctl: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
