#!/usr/bin/env python3
"""Run escalate() on 32 fixed jittered perturbations of configs/ex1-ex3.json.

    PYTHONPATH=src python3 scripts/sweep.py

The configs come from the jitter recipe (jittered): for each base config a
fresh random.Random(7) multiplies, in this order, sigma1, sigma2, lambda, q,
b, h0_b, h1.a, h1.c, h2.a, h2.c, penalty.p0, penalty.p1 and the switching
costs (row-major, nulls skipped; a 0.0 still takes a draw) by
rng.uniform(0.7, 1.3), then swaps sigma1 and sigma2 if sigma1 <= sigma2.
ex1 gets 8 draws and ex2 and ex3 12 each; exN-7-i is the i-th draw of exN,
counting from 0.  Each config is read by load_config, as `bandctl solve`
reads it.  The recipe does not keep the restart inequality K0i <= K0j + Kji,
which ex1 meets with equality, so escalate rejects some ex1 draws with
SwitchInequalityViolated (`bandctl solve` exits 2 on them).

For each config the script prints one line: the label, the strategy kind,
the verified flag, the thresholds and V0 (as repr), the failure count and
the first failure, and the seconds escalate took, or, when escalate raises,
the exception's type and message.  Then it prints the counts of each
(kind, verified) outcome and of the raises.  It is report-only: its exit
status is 0 whatever the outcomes.  bandctl is imported from the current
PYTHONPATH, so another tree is swept by putting its src first.
"""

from __future__ import annotations

import copy
import json
import pathlib
import random
import sys
import tempfile
import time
from collections import Counter
from dataclasses import astuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEED = 7
DRAWS = {"ex1": 8, "ex2": 12, "ex3": 12}
# the perturbed scalar fields, in draw order; the switching costs follow
FIELDS = (("sigma1",), ("sigma2",), ("lambda",), ("q",), ("b",), ("h0_b",), ("h1", "a"),
          ("h1", "c"), ("h2", "a"), ("h2", "c"), ("penalty", "p0"), ("penalty", "p1"))


def jittered(name: str, draws: int) -> list[dict]:
    """The first draws perturbed config documents of configs/<name>.json, in order."""
    base = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    rng = random.Random(SEED)
    docs = []
    for _ in range(draws):
        doc = copy.deepcopy(base)
        for *head, key in FIELDS:
            group = doc
            for k in head:
                group = group[k]
            group[key] *= rng.uniform(0.7, 1.3)
        for row in doc["switching"]:
            for j, cost in enumerate(row):
                if cost is not None:
                    row[j] = cost * rng.uniform(0.7, 1.3)
        if doc["sigma1"] <= doc["sigma2"]:
            doc["sigma1"], doc["sigma2"] = doc["sigma2"], doc["sigma1"]
        docs.append(doc)
    return docs


def sweep_configs() -> list[tuple[str, dict]]:
    """(label, config document) of all 32 sweep configs: ex1-7-0 ... ex3-7-11."""
    return [(f"{name}-{SEED}-{i}", doc) for name, draws in DRAWS.items()
            for i, doc in enumerate(jittered(name, draws))]


def load_model(doc: dict, folder):
    """The model of a config document, read back from a JSON file in folder."""
    from bandctl.cli import load_config

    path = pathlib.Path(folder) / "config.json"
    path.write_text(json.dumps(doc))
    return load_config(str(path))


def outcome(model) -> tuple[tuple, str]:
    """escalate() on model: its (kind, verified) or ("raised",) key, and its report line."""
    from bandctl import escalate

    t0 = time.perf_counter()
    try:
        res = escalate(model)
    except Exception as exc:  # noqa: BLE001  a sweep reports every failure
        return ("raised",), f"raised {type(exc).__name__}: {exc}"
    failures = res.report.failures
    line = (f"{res.strategy_kind} verified={res.verified} thresholds={astuple(res.band)!r} "
            f"V0={res.objective!r} failures={len(failures)} "
            f"first={failures[0] if failures else 'none'} [{time.perf_counter() - t0:.2f} s]")
    return (res.strategy_kind, res.verified), line


def main() -> int:
    counts = Counter()
    with tempfile.TemporaryDirectory() as folder:
        for label, doc in sweep_configs():
            key, line = outcome(load_model(doc, folder))
            counts[key] += 1
            print(f"{label}: {line}", flush=True)
    print("counts: " + ", ".join(
        f"{' '.join(map(str, key))} {n}" for key, n in sorted(counts.items(), key=str)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
