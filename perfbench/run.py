"""bandctl benchmark: run one workload with one seed and print its metrics.

    python3 perfbench/run.py --workload solve-ex2 --seed 1 --seconds 30 --trace 0

Run from the repository root; bandctl is imported from ./src.  Workloads:

* solve-ex1, solve-ex2: one escalate() on configs/ex1.json / ex2.json;
* crosscheck: evaluate, verify and simulate four fixed policies.

Every round runs in a fresh interpreter (task.py), so the lru caches of
cost_one, cost_two and passage start cold as they do for a `bandctl solve`
user.  Rounds repeat while the next one should end within --seconds (at
least one runs); set-up is timed in at least SETUP_SAMPLES fresh
interpreters.  Every operation's output is checked against
perfbench/reference/ (checks.py).

--trace 0 reports the end-to-end metrics (medians over rounds).  --trace 1
runs one plain and one traced round with the same inputs, requires equal
outputs, and reports the per-layer metrics of the traced round plus the
tracing overhead.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; metric names and units come from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import task

SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0   # a run must end within 180 s
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RoundFailed(RuntimeError):
    pass


def missing_inputs(workload: str) -> list[str]:
    need = [os.path.join("src", "bandctl", "__init__.py"), "BENCHMARK.json"]
    need += list(task.CONFIGS[workload].values())
    if workload == "crosscheck":
        need += [os.path.join("perfbench", "reference", f) for f in
                 ("crosscheck-inputs.json", "crosscheck-expected.json", "crosscheck-grids.npz")]
    else:
        need.append(os.path.join("perfbench", "reference", f"{workload}.json"))
    return [p for p in need if not os.path.isfile(os.path.join(task.ROOT, p))]


def run_round(workload: str, seed: int, round_idx: int, deadline: float, trace=False,
              setup_only=False) -> dict:
    """Run task.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, os.path.join(task.HERE, "task.py"),
           "--workload", workload, "--seed", str(seed), "--round", str(round_idx)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RoundFailed("no time left for another round")
    try:
        proc = subprocess.run(cmd, cwd=task.ROOT, env={**os.environ, **SINGLE_THREAD},
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"round {round_idx} did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"round {round_idx} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=task.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = missing_inputs(args.workload)
    if missing:
        print(f"perfbench: run from a bandctl checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    import checks

    with open(os.path.join(task.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ref = checks.Reference(task.REFERENCE, args.workload)

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    try:
        if args.trace:
            rounds = [run_round(args.workload, args.seed, 0, deadline),
                      run_round(args.workload, args.seed, 0, deadline, trace=True)]
        else:
            rounds = []
            while True:
                t0 = time.monotonic()
                rounds.append(run_round(args.workload, args.seed, len(rounds), deadline))
                # start another round only if it should end within --seconds
                if time.monotonic() - start + (time.monotonic() - t0) > args.seconds:
                    break
            setups = [rd["setup_s"] for rd in rounds]
            while len(setups) < SETUP_SAMPLES:
                setups.append(
                    run_round(args.workload, args.seed, 0, deadline, setup_only=True)["setup_s"])
    except RoundFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = failed = 0
    for i, rd in enumerate(rounds):
        bad = checks.failures(rd["ops"], ref)
        attempted += len(rd["ops"])
        failed += len(bad)
        steps = {k: rd[k] for k in ("task_s", "evaluate_s", "verify_s", "simulate_s", "paths")
                 if k in rd}
        if rd.get("paths"):
            steps["paths_per_s"] = rd["paths"] / rd["simulate_s"]
        print(f"round {i}{' traced' if 'layers' in rd else ''}: {len(rd['ops'])} operations, "
              f"{len(bad)} failed; {json.dumps(steps)}")
        for msg in bad[:10]:
            print(f"  FAIL {msg}")

    if args.trace:
        plain, traced = rounds
        differ = sum(a != b for a, b in zip(plain["ops"], traced["ops"]))
        if differ or len(plain["ops"]) != len(traced["ops"]):
            print(f"  FAIL traced round changed {differ} operation outputs")
            failed += max(differ, 1)
        values = dict(traced["layers"])
        values["trace.overhead_s"] = traced["task_s"] - plain["task_s"]
        print(f"trace file: {traced['trace_file']}")
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "task_s": statistics.median(rd["task_s"] for rd in rounds),
            "peak_rss_mb": statistics.median(rd["peak_rss_mb"] for rd in rounds),
        }
        print(f"{len(rounds)} rounds, {len(setups)} set-up samples")
        wanted = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
