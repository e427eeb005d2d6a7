"""Span recorder for the traced benchmark run.

The recorder wraps the public entry points of each ``bandctl`` layer by
rebinding names at run time: a function is replaced in every loaded
``bandctl`` module that holds it, a method on its class.  Nothing under
``src/`` is edited, and ``uninstall`` puts every original back.

Every wrapped call updates per-name aggregates (calls, points, inclusive
and self time; self time is span time minus the time of child spans).
Calls at coarse layer boundaries are also kept as span records (name,
start, end, parent, run id, points) and written out when the run ends.
Hot leaf calls (kernel evaluations, quadrature rules) are aggregated only,
so memory stays bounded on long runs.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np


class _Frame:
    __slots__ = ("name", "span_id", "child_s")

    def __init__(self, name: str, span_id: int):
        self.name = name
        self.span_id = span_id
        self.child_s = 0.0


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.stack: list[_Frame] = []
        # name -> [calls, points, total_s, self_s]
        self.stats: dict[str, list] = {}
        # derived counters attributed through an enclosing span
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []
        self._next_id = 1
        self._restore: list[tuple] = []

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, name: str, keep: bool = True, points=None, under=()):
        """Wrap fn as span `name`.

        points(args, kwargs) gives the work size counted per call; `under` is
        a list of (name prefix, counter, use_points) rules that add the call
        (or its points) to `counter` when an enclosing span's name starts
        with the prefix.
        """
        stats = self.stats.setdefault(name, [0, 0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = 0
            if keep:
                span_id = self._next_id
                self._next_id += 1
            parent = stack[-1].span_id if stack else 0
            frame = _Frame(name, span_id)
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                n = points(args, kwargs) if points is not None else 0
                stats[0] += 1
                stats[1] += n
                stats[2] += dur
                stats[3] += dur - frame.child_s
                if stack:
                    stack[-1].child_s += dur
                for prefix, counter, use_points in under:
                    if any(f.name.startswith(prefix) for f in stack):
                        self.counters[counter] = (
                            self.counters.get(counter, 0) + (n if use_points else 1)
                        )
                if keep:
                    self.spans.append((span_id, parent, name, t0, t1, n))

        return traced

    def patch_function(self, module, attr: str, name: str, **kw) -> None:
        """Rebind module.attr, and every alias of it in bandctl modules."""
        old = getattr(module, attr)
        new = self.wrap(old, name, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bandctl" or mod_name.startswith("bandctl.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is old:
                    setattr(mod, key, new)
                    self._restore.append((mod, key, old))

    def patch_method(self, cls, attr: str, name: str, **kw) -> None:
        old = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(old, name, **kw))
        self._restore.append((cls, attr, old))

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._restore):
            setattr(owner, key, old)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def points(self, name: str) -> int:
        return self.stats.get(name, [0, 0])[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0.0, 0.0])[3]

    def dump(self, path) -> None:
        """Write aggregates and kept spans as one JSON document."""
        doc = {
            "run_id": self.run_id,
            "aggregates": {
                k: {"calls": v[0], "points": v[1], "total_s": v[2], "self_s": v[3]}
                for k, v in sorted(self.stats.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "span_fields": ["id", "parent", "name", "start", "end", "points"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _size_of(pos: int):
    def points(args, kwargs):
        return int(np.size(args[pos]))

    return points


def _n_paths(args, kwargs):
    return int(kwargs["n_paths"] if "n_paths" in kwargs else args[4])


def install(run_id: str) -> Recorder:
    """Instrument the loaded bandctl package; returns the live recorder."""
    import bandctl.cost_one as cost_one
    import bandctl.cost_two as cost_two
    import bandctl.optimize as optimize
    import bandctl.passage as passage
    import bandctl.scale as scale
    import bandctl.simulate as simulate
    import bandctl.verify as verify

    rec = Recorder(run_id)
    in_optimizer = ("optimize.", "optimize.objective_evals", False)
    # scale: kernel construction and kernel evaluation
    rec.patch_function(scale, "build_scale", "scale.build_scale")
    rec.patch_method(scale.ScaleSet, "W", "scale.W", keep=False, points=_size_of(1))
    # passage: node-doubling quadrature and the phase-2 transfer map
    rec.patch_function(passage, "integrate", "passage.integrate", keep=False)
    rec.patch_function(passage, "integrate_rows", "passage.integrate_rows", keep=False)
    rec.patch_method(passage.Omega2, "__init__", "passage.Omega2")
    # cost_one: cached type-one assembly and the surfaces built on it
    rec.patch_function(cost_one, "total_cost", "cost_one.total_cost", under=[in_optimizer])
    rec.patch_function(cost_one, "_assembly", "cost_one._assembly", keep=False)
    rec.patch_method(cost_one.TypeOneAssembly, "__init__", "cost_one.TypeOneAssembly")
    rec.patch_method(
        cost_one.CostSurface, "V", "cost_one.CostSurface.V", keep=False,
        points=_size_of(2), under=[("verify.", "verify.surface_points", True)],
    )
    # cost_two: the upper-component overlay
    rec.patch_function(cost_two, "total_cost_two", "cost_two.total_cost_two",
                       under=[in_optimizer])
    rec.patch_method(cost_two.TypeTwoOverlay, "__init__", "cost_two.TypeTwoOverlay")
    # optimize: the escalation ladder and its stages
    for fn in ("escalate", "optimize_doshi", "optimize_type_one", "optimize_type_two"):
        rec.patch_function(optimize, fn, f"optimize.{fn}")
    # verify and simulate: the two independent checks
    rec.patch_function(verify, "verify_strategy", "verify.verify_strategy",
                       under=[("optimize.", "optimize.verify_calls", False)])
    rec.patch_function(simulate, "estimate_cost", "simulate.estimate_cost", points=_n_paths)
    return rec


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer metric values, keyed by the names in BENCHMARK.json."""
    lookups = rec.calls("cost_one._assembly")
    assemblies = rec.calls("cost_one.TypeOneAssembly")
    return {
        "scale.build_calls": rec.calls("scale.build_scale"),
        "scale.build_s": rec.self_s("scale.build_scale"),
        "scale.W_calls": rec.calls("scale.W"),
        "scale.W_points": rec.points("scale.W"),
        "scale.W_s": rec.self_s("scale.W"),
        "passage.integrate_calls": rec.calls("passage.integrate"),
        "passage.integrate_rows_calls": rec.calls("passage.integrate_rows"),
        "passage.quad_s": rec.self_s("passage.integrate") + rec.self_s("passage.integrate_rows"),
        "passage.omega2_builds": rec.calls("passage.Omega2"),
        "cost_one.total_cost_calls": rec.calls("cost_one.total_cost"),
        "cost_one.assembly_lookups": lookups,
        "cost_one.assemblies": assemblies,
        "cost_one.assembly_s": rec.self_s("cost_one.TypeOneAssembly"),
        "cost_one.cache_hit_ratio": 1.0 - assemblies / lookups if lookups else 0.0,
        "cost_one.surface_points": rec.points("cost_one.CostSurface.V"),
        "cost_one.surface_s": rec.self_s("cost_one.CostSurface.V"),
        "cost_two.total_cost_two_calls": rec.calls("cost_two.total_cost_two"),
        "cost_two.overlays": rec.calls("cost_two.TypeTwoOverlay"),
        "optimize.doshi_calls": rec.calls("optimize.optimize_doshi"),
        "optimize.type_one_calls": rec.calls("optimize.optimize_type_one"),
        "optimize.type_two_calls": rec.calls("optimize.optimize_type_two"),
        "optimize.objective_evals": rec.counters.get("optimize.objective_evals", 0),
        "optimize.verify_calls": rec.counters.get("optimize.verify_calls", 0),
        "verify.calls": rec.calls("verify.verify_strategy"),
        "verify.s": rec.self_s("verify.verify_strategy"),
        "verify.surface_points": rec.counters.get("verify.surface_points", 0),
        "simulate.estimate_calls": rec.calls("simulate.estimate_cost"),
        "simulate.paths": rec.points("simulate.estimate_cost"),
    }
