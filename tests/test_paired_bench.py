"""scripts/paired_bench.py summarizes paired benchmark runs of two trees."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "paired_bench.py"
_spec = importlib.util.spec_from_file_location("paired_bench", SCRIPT)
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)


def test_summary_of_fixed_pairs():
    parent = [0.50, 0.40, 0.60, 0.45, 0.55]
    change = [0.45, 0.40, 0.50, 0.50, 0.44]
    pairs = [({"task_s": p, "peak_rss_mb": 41.6}, {"task_s": c, "peak_rss_mb": 35.6})
             for p, c in zip(parent, change)]
    summary = paired_bench.summarize(["task_s", "peak_rss_mb"], pairs)
    task = summary["task_s"]
    assert task["parent_median"] == 0.50 and task["change_median"] == 0.45
    # linear-interpolated quartiles 0.45 and 0.55, as numpy.percentile gives them
    q1, q3 = np.percentile(parent, [25, 75])
    assert task["parent_iqr_over_median"] == pytest.approx((q3 - q1) / 0.50)
    assert task["parent_iqr_over_median"] == pytest.approx(0.2)
    # lower in pairs 0, 2 and 4; pair 1 is a tie, pair 3 higher
    assert task["change_lower"] == 3 and task["pairs"] == 5
    assert summary["peak_rss_mb"]["change_lower"] == 5
    assert summary["peak_rss_mb"]["parent_iqr_over_median"] == 0.0
    assert paired_bench.summary_lines(summary) == [
        "task_s: parent median 0.5, change median 0.45 (-10.0%), parent IQR/median 0.200,"
        " change lower in 3 of 5 pairs",
        "peak_rss_mb: parent median 41.6, change median 35.6 (-14.4%), parent IQR/median 0.000,"
        " change lower in 5 of 5 pairs"]


def test_end_to_end_names_come_from_the_benchmark_file():
    assert paired_bench.end_to_end_names(SCRIPT.parents[1]) == ["task_s", "setup_s", "peak_rss_mb"]


def _fake_run(values):
    """A run(tree) that records the call order and returns each tree's next
    task_s from values[tree], as perfbench/run.py's JSON line holds it."""
    calls = []

    def run(tree):
        calls.append(tree)
        return {"failed": 0, "metrics": {"task_s": {"value": values[tree].pop(0)}}}

    return run, calls


def test_pairs_alternate_which_tree_runs_first():
    run, calls = _fake_run({"P": [1.0, 1.1, 1.2, 1.3, 1.4], "C": [0.8, 1.2, 0.9, 0.7, 0.6]})
    seen = []
    runs = paired_bench.run_pairs({"parent": "P", "change": "C"}, 5, run,
                                  lambda i, pair: seen.append(i))
    assert calls == ["P", "C", "C", "P", "P", "C", "C", "P", "P", "C"]
    assert [r["first"] for r in runs] == ["parent", "change", "parent", "change", "parent"]
    assert seen == [0, 1, 2, 3, 4]
    # each pair keeps its parent and change runs whatever the order
    assert [r["change"]["metrics"]["task_s"]["value"] for r in runs] == [0.8, 1.2, 0.9, 0.7, 0.6]


def test_summaries_over_all_pairs_and_each_order():
    run, _ = _fake_run({"P": [1.0, 1.1, 1.2, 1.3, 1.4], "C": [0.8, 1.2, 0.9, 0.7, 0.6]})
    runs = paired_bench.run_pairs({"parent": "P", "change": "C"}, 5, run, lambda i, pair: None)
    summary = paired_bench.summaries(["task_s"], runs)
    assert set(summary) == {"all", "parent_first", "change_first"}
    # parent first in pairs 0, 2, 4; change first in pairs 1 and 3
    assert summary["all"]["task_s"]["change_lower"] == 4
    assert summary["all"]["task_s"]["pairs"] == 5
    assert summary["parent_first"]["task_s"]["pairs"] == 3
    assert summary["parent_first"]["task_s"]["change_lower"] == 3
    assert summary["parent_first"]["task_s"]["parent_median"] == 1.2
    assert summary["change_first"]["task_s"]["pairs"] == 2
    assert summary["change_first"]["task_s"]["change_lower"] == 1
    assert summary["change_first"]["task_s"]["change_median"] == pytest.approx(0.95)
    one = paired_bench.summaries(["task_s"], runs[:1])
    assert set(one) == {"all", "parent_first"}
