"""Command-line front end: solve / evaluate / verify / simulate / plot-data.

Configs are single JSON documents mirroring the model dataclasses; reports
are JSON with sorted keys so identical inputs give byte-identical output
apart from the timing field.  Exit codes: 0 success, 2 validation error,
3 verification failure under --require-verified, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

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
from .verify import DEFAULT_TOL, verify_strategy

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


def load_config(path: str) -> ModelConfig:
    """Read a JSON config; a missing or malformed field raises ValidationError naming it."""
    with open(path) as fh:
        raw = json.load(fh)

    def field(name: str, parse):
        try:
            return parse()
        except (TypeError, ValueError, IndexError, KeyError) as exc:
            raise ValidationError(f"config field {name}: {type(exc).__name__}: {exc}") from None

    def num(key: str, sub: str | None = None) -> float:
        if sub is None:
            return field(key, lambda: float(raw[key]))
        return field(f"{key}.{sub}", lambda: float(raw[key][sub]))

    def k(i: int, j: int) -> float:
        return field(f"switching[{i}][{j}]", lambda: float(raw["switching"][i][j]))

    return ModelConfig(
        sigma1=num("sigma1"),
        sigma2=num("sigma2"),
        lam=num("lambda"),
        q=num("q"),
        b=num("b"),
        l=field("l", lambda: float(raw.get("l", 0.0))),
        demand=field("demand", lambda: _demand(raw["demand"])),
        h1=HoldingCost(num("h1", "a"), num("h1", "c")),
        h2=HoldingCost(num("h2", "a"), num("h2", "c")),
        h0_b=num("h0_b"),
        penalty=PenaltyCost(num("penalty", "p0"), num("penalty", "p1")),
        switching=SwitchMatrix(k01=k(0, 1), k02=k(0, 2), k10=k(1, 0),
                               k12=k(1, 2), k20=k(2, 0), k21=k(2, 1)),
    )


def model_echo(model: ModelConfig) -> dict:
    k = model.switching
    return {
        "sigma1": model.sigma1, "sigma2": model.sigma2, "lambda": model.lam,
        "q": model.q, "b": model.b, "l": model.l,
        "demand": {"kind": model.demand.kind, "weights": list(model.demand.weights),
                   "rates": list(model.demand.rates)},
        "h1": {"a": model.h1.a, "c": model.h1.c},
        "h2": {"a": model.h2.a, "c": model.h2.c},
        "h0_b": model.h0_b,
        "penalty": {"p0": model.penalty.p0, "p1": model.penalty.p1},
        "switching": [[None, k.k01, k.k02], [k.k10, None, k.k12], [k.k20, k.k21, None]],
    }


def _band_from_args(args, model: ModelConfig):
    y3 = args.y3 if args.y3 is not None else args.y2
    if getattr(args, "y4", None) is not None:
        return BandTwo(args.y2, y3, args.y1, args.y4)
    return BandOne(args.y2, y3, args.y1)


def _surface_for(model, band):
    if isinstance(band, BandTwo):
        return total_cost_two(model, band)
    return total_cost(model, band)


def _band_dict(band) -> dict:
    out = {"y2": band.y2, "y3": band.y3, "y1": band.y1}
    if isinstance(band, BandTwo):
        out["y4"] = band.y4
    return out


def _report_base(args, model, command: str) -> dict:
    return {
        "command": command,
        "model": model_echo(model),
        "seed": getattr(args, "seed", None),
        "tool_version": __version__,
    }


def _emit(report: dict, out_path: str | None, t0: float) -> None:
    report["timing_seconds"] = time.perf_counter() - t0
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _surface_report(surface) -> dict:
    return {
        "H0": surface.H0, "S0": surface.S0, "K0": surface.K0, "V0": surface.V0,
    }


def cmd_solve(args) -> int:
    t0 = time.perf_counter()
    model = validate(load_config(args.config))
    if args.strategy == "auto":
        result = escalate(model, tol=args.tol)
    elif args.strategy == "two":
        result = optimize_type_two(model, optimize_type_one(model), tol=args.tol)
    else:
        result = {"doshi": optimize_doshi, "one": optimize_type_one}[args.strategy](model)
    if result.report is None:
        report = verify_strategy(model, result.surface, tol=args.tol)
        result.verified, result.report = report.passed, report
    rep = _report_base(args, model, "solve")
    rep.update(
        strategy_kind=result.strategy_kind,
        thresholds=_band_dict(result.band),
        objective=result.objective,
        level_b=_surface_report(result.surface),
        verified=result.verified,
        verification_failures=list(result.report.failures) if result.report else [],
    )
    _emit(rep, args.output, t0)
    if args.require_verified and not result.verified:
        log.error("solve result failed verification")
        return EXIT_UNVERIFIED
    return EXIT_OK


def cmd_evaluate(args) -> int:
    t0 = time.perf_counter()
    model = validate(load_config(args.config))
    band = _band_from_args(args, model)
    surface = _surface_for(model, band)
    xs = np.linspace(0.0, model.b, args.grid, endpoint=False)
    rep = _report_base(args, model, "evaluate")
    rep.update(
        thresholds=_band_dict(band),
        level_b=_surface_report(surface),
        objective=surface.V0,
        grid=list(xs),
        V1=list(surface.V(1, xs)),
        V2=list(surface.V(2, xs)),
    )
    _emit(rep, args.output, t0)
    return EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    model = validate(load_config(args.config))
    band = _band_from_args(args, model)
    surface = _surface_for(model, band)
    report = verify_strategy(model, surface, tol=args.tol, grid_points=args.grid)
    rep = _report_base(args, model, "verify")
    rep.update(
        thresholds=_band_dict(band),
        level_b=_surface_report(surface),
        verified=report.passed,
        tolerance=report.tol,
        scale=report.scale,
        L0_residual=report.L0_residual,
        boundary_1=report.boundary_1,
        boundary_2=report.boundary_2,
        max_abs_residual_L1=float(np.max(np.abs(report.residual_L1))),
        max_abs_residual_L2=float(np.max(np.abs(report.residual_L2))),
        min_hjb_1=float(np.min(np.minimum(report.residual_L1, report.switch_slack_12))),
        min_hjb_2=float(np.min(np.minimum(report.residual_L2, report.switch_slack_21))),
        failures=list(report.failures),
    )
    _emit(rep, args.output, t0)
    return EXIT_OK


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    model = validate(load_config(args.config), allow_backlog=True)
    band = _band_from_args(args, model)
    strategy = SimStrategy.from_band(band, model)
    est = estimate_cost(model, strategy, args.x0, args.phase, args.paths,
                        base_seed=args.seed, jobs=args.jobs)
    rep = _report_base(args, model, "simulate")
    rep.update(
        thresholds=_band_dict(band),
        x0=args.x0,
        phase=args.phase,
        n_paths=est.n_paths,
        mean=est.mean,
        std_error=est.std_error,
        holding={"mean": est.holding.mean, "std_error": est.holding.std_error},
        shortage={"mean": est.shortage.mean, "std_error": est.shortage.std_error},
        switching={"mean": est.switching.mean, "std_error": est.switching.std_error},
        truncation_horizon=est.truncation_horizon,
        truncation_bound=est.truncation_bound,
    )
    _emit(rep, args.output, t0)
    return EXIT_OK


def cmd_plot_data(args) -> int:
    model = validate(load_config(args.config))
    band = _band_from_args(args, model)
    surface = _surface_for(model, band)
    base = np.linspace(0.0, model.b, args.grid, endpoint=False)
    thresholds = [t for t in surface.thresholds if 0.0 < t < model.b]
    rows = []
    xs = np.unique(np.concatenate([base, thresholds]))
    for x in xs:
        sides = (-1, +1) if any(abs(x - t) < 1e-12 for t in thresholds) else (0,)
        for side in sides:
            rows.append(
                [float(x)]
                + [float(v) for v in surface.components(1, x, side)]
                + [float(v) for v in surface.components(2, x, side)]
            )
    header = "x,V1,H1,S1,K1,V2,H2,S2,K2,V0,H0,S0,K0"
    lines = [header]
    for r in rows:
        lines.append(",".join(repr(v) for v in r)
                     + f",{surface.V0!r},{surface.H0!r},{surface.S0!r},{surface.K0!r}")
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


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

    def common(sp, thresholds=False):
        sp.add_argument("config")
        sp.add_argument("--output", default=None)
        if thresholds:
            sp.add_argument("--y2", type=float, required=True)
            sp.add_argument("--y3", type=float, default=None)
            sp.add_argument("--y1", type=float, required=True)
            sp.add_argument("--y4", type=float, default=None)

    sp = sub.add_parser("solve", help="run the optimize-and-verify escalation")
    common(sp)
    sp.add_argument("--strategy", choices=("doshi", "one", "two", "auto"), default="auto")
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
    sp.add_argument("--require-verified", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("evaluate", help="cost surface for given thresholds")
    common(sp, thresholds=True)
    sp.add_argument("--grid", type=_positive_int, default=200)
    sp.set_defaults(fn=cmd_evaluate)

    sp = sub.add_parser("verify", help="HJB verification report for given thresholds")
    common(sp, thresholds=True)
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
    sp.add_argument("--grid", type=_positive_int, default=400)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("simulate", help="Monte Carlo estimate for given thresholds")
    common(sp, thresholds=True)
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--phase", type=int, choices=(0, 1, 2), required=True)
    sp.add_argument("--paths", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--jobs", type=int, default=1)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("plot-data", help="CSV of the cost decomposition on a grid")
    common(sp, thresholds=True)
    sp.add_argument("--grid", type=_positive_int, default=400)
    sp.set_defaults(fn=cmd_plot_data)

    return p


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("BANDCTL_LOG", "WARNING").upper())
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"bandctl: invalid configuration: {exc}", file=sys.stderr)
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
