#!/usr/bin/env python3
"""Profile the type-one assemblies of one serial escalate() run.

    PYTHONPATH=src python3 scripts/assembly_profile.py CONFIG [--top 12] [--json]

Runs escalate() on the JSON config CONFIG with every polish start in this
process (bandctl._workers.usable_workers gives 1), and profiles
TypeOneAssembly construction alone under cProfile: the profiler is enabled
for each construction and disabled after it, so the rest of the solve runs
unprofiled.  It prints the number of assemblies, the profiled calls made
inside them per assembly, their seconds (under the profiler) and the
functions with the largest self times inside them.  --json prints the same
as one JSON object.  The counts depend only on the code and the config, so
two runs in fresh interpreters give the same counts; the seconds vary.
bandctl is imported from the current PYTHONPATH, so another tree is
profiled by putting its src first.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
import time


def profile_escalate(path: str, top: int = 12) -> dict:
    """Assemblies, profiled calls inside them, their seconds and top self times."""
    import bandctl._workers as workers
    import bandctl.cost_one as cost_one
    from bandctl import escalate, validate
    from bandctl.cli import load_config

    model = validate(load_config(path))
    prof = cProfile.Profile()
    cls = cost_one.TypeOneAssembly
    init = cls.__init__
    seen = {"assemblies": 0, "seconds": 0.0}

    def profiled_init(self, *args, **kwargs):
        seen["assemblies"] += 1
        t0 = time.perf_counter()
        prof.enable()
        try:
            init(self, *args, **kwargs)
        finally:
            prof.disable()
            seen["seconds"] += time.perf_counter() - t0

    usable = workers.usable_workers
    cls.__init__, workers.usable_workers = profiled_init, lambda n: 1
    try:
        result = escalate(model)
    finally:
        cls.__init__, workers.usable_workers = init, usable
    stats = pstats.Stats(prof)
    rows = sorted(stats.stats.items(), key=lambda kv: kv[1][2], reverse=True)[:top]
    n = seen["assemblies"]
    return {
        "config": path,
        "strategy_kind": result.strategy_kind,
        "assemblies": n,
        "calls": stats.total_calls,
        "calls_per_assembly": stats.total_calls / n if n else 0.0,
        "assembly_s": seen["seconds"],
        "top_self": [{"function": pstats.func_std_string(func), "calls": nc, "self_s": tt}
                     for func, (_, nc, tt, _, _) in rows],
    }


def report_lines(rep: dict) -> list[str]:
    lines = [f"{rep['config']}: escalate -> {rep['strategy_kind']}",
             f"assemblies: {rep['assemblies']}",
             f"profiled calls in assemblies: {rep['calls']} "
             f"({rep['calls_per_assembly']:.1f} per assembly)",
             f"assembly seconds (profiled): {rep['assembly_s']:.3f}",
             "top self times:"]
    lines += [f"  {r['self_s']:8.4f} s {r['calls']:8d} calls  {r['function']}"
              for r in rep["top_self"]]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config")
    ap.add_argument("--top", type=int, default=12)
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args(argv)
    rep = profile_escalate(args.config, args.top)
    print(json.dumps(rep) if args.json else "\n".join(report_lines(rep)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
