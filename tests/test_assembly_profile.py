"""scripts/assembly_profile.py profiles the type-one assemblies of a serial escalate()."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "assembly_profile.py"


def _profile(config: str) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, str(SCRIPT), config, "--json", "--top", "5"], cwd=ROOT,
                         env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_counts_are_positive_and_repeat_exactly():
    # two fresh interpreters: the counts depend only on the code and the config
    first, second = (_profile("configs/ex1.json") for _ in range(2))
    assert first["strategy_kind"] == "doshi"
    assert first["assemblies"] > 0 and first["calls"] > 0 and first["assembly_s"] > 0
    for key in ("assemblies", "calls", "calls_per_assembly"):
        assert first[key] == second[key], key
    assert first["calls_per_assembly"] == first["calls"] / first["assemblies"]
    assert len(first["top_self"]) == 5
    assert [r["calls"] for r in first["top_self"]] and all(
        r["calls"] > 0 and r["self_s"] >= 0 for r in first["top_self"])
