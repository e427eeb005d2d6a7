#!/usr/bin/env python3
"""Solve a configuration end to end and leave reproducible artifacts.

Runs the escalation solver, verifies the winner, spot-checks it against the
Monte Carlo simulator at a few states, and writes the solve report plus the
cost-decomposition CSV under --out.

    python3 scripts/run_benchmark.py configs/ex1.json --out out/ex1
"""

import argparse
import json
import pathlib
import sys
import time

from bandctl import (
    BandOne, BandTwo, SimStrategy, estimate_cost, total_cost, total_cost_two, validate,
)
from bandctl.cli import load_config, main as cli_main


def run(config: str, out_dir: str, paths: int, seed: int, jobs: int) -> int:
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "solve.json"
    rc = cli_main(["solve", config, "--output", str(report_path)])
    if rc != 0:
        return rc
    rep = json.loads(report_path.read_text())
    th = rep["thresholds"]
    print(f"strategy: {rep['strategy_kind']}  verified: {rep['verified']}")
    print(f"thresholds: {th}")
    print(f"idle value V0(b) = {rep['objective']:.6f}")

    args = [arg for name, y in th.items() for arg in (f"--{name}", str(y))]
    rc = cli_main(["plot-data", config, *args, "--grid", "400",
                   "--output", str(out / "surface.csv")])
    if rc != 0:
        return rc

    model = validate(load_config(config))
    if "y4" in th:
        band, cost = BandTwo(**th), total_cost_two
    else:
        band, cost = BandOne(**th), total_cost
    surface = cost(model, band)
    strat = SimStrategy.from_band(band, model)

    print(f"\nMonte Carlo spot-check ({paths} paths per state):")
    t0 = time.perf_counter()
    for phase in (1, 2):
        for frac in (0.15, 0.55, 0.85):
            x0 = round(frac * model.b, 3)
            est = estimate_cost(model, strat, x0, phase, paths,
                                base_seed=seed + phase, jobs=jobs)
            ana = float(surface.V(phase, x0))
            z = (ana - est.mean) / est.std_error if est.std_error else 0.0
            print(f"  V{phase}({x0:>6}): analytic {ana:9.5f}   "
                  f"simulated {est.mean:9.5f} +- {est.std_error:.5f}   z = {z:+.2f}")
    print(f"spot-check time: {time.perf_counter() - t0:.1f}s")
    print(f"\nartifacts: {report_path}, {out / 'surface.csv'}")
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("config")
    ap.add_argument("--out", default="out/benchmark")
    ap.add_argument("--paths", type=int, default=50_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=2)
    a = ap.parse_args()
    sys.exit(run(a.config, a.out, a.paths, a.seed, a.jobs))
