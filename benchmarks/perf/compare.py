"""Compare a parent's benchmark runs with a change's.

    python3 benchmarks/perf/compare.py PARENT.json CHANGE.json

Each file is what ``run.py --out FILE`` accumulates.  Runs of one
workload are paired in the order they started; make at least ten pairs
and alternate which side runs first (README.md shows the loop).  For
every end-to-end metric of BENCHMARK.json and every workload the report
gives each side's median and quartiles, the change/parent ratio with its
base, how many pairs the change won, and a verdict:

- ``regression``: the change's median is worse than the parent's by
  more than the metric's bound, however wide the spread;
- ``gain``: the change won at least 90% of the pairs (ties count for
  neither) and the medians differ by more than the parent's
  interquartile range;
- ``unresolved``: the median is within bound, but the parent's runs
  spread wider than the bound (interquartile range over median), so "no
  regression" cannot be shown, unless every change run beats every
  parent run (then ``better``);
- ``within bound`` otherwise.

The exit code is 1 on any regression or a higher error rate than the
parent's, 2 when some workload has fewer than ten pairs, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

MIN_PAIRS = 10
GAIN_WIN_SHARE = 0.9
BENCHMARK_JSON = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def load_runs(path: Path) -> Dict[str, List[dict]]:
    """End-to-end runs by workload, oldest first."""
    by_workload: Dict[str, List[dict]] = {}
    for run in json.loads(path.read_text())["runs"]:
        if not run["trace"]:
            by_workload.setdefault(run["workload"], []).append(run)
    for runs in by_workload.values():
        runs.sort(key=lambda run: run["started_at"])
    return by_workload


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def judge(parent: List[float], change: List[float], better: str, bound: float) -> dict:
    """Verdict for one (metric, workload) from paired values."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    worse_share = sign * (c_med - p_med) / p_med
    spread = (p_q3 - p_q1) / p_med
    if worse_share > bound:
        verdict = "regression"
    elif wins >= GAIN_WIN_SHARE * len(parent) and sign * (p_med - c_med) > p_q3 - p_q1:
        verdict = "gain"
    elif spread > bound:
        all_better = all(sign * (p - c) > 0 for p in parent for c in change)
        verdict = "better" if all_better else "unresolved"
    else:
        verdict = "within bound"
    return {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "wins": wins,
        "ratio": c_med / p_med,
        "spread": spread,
        "verdict": verdict,
    }


def error_rate(runs: List[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 1.0


def first_runner(parent: List[dict], change: List[dict]) -> List[str]:
    return [
        "parent" if p["started_at"] < c["started_at"] else "change"
        for p, c in zip(parent, change)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare parent and change benchmark runs.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    metrics = json.loads(BENCHMARK_JSON.read_text())["end_to_end"]
    parent_runs = load_runs(args.parent)
    change_runs = load_runs(args.change)
    regression = short = False
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        pairs = min(len(parent), len(change))
        parent, change = parent[:pairs], change[:pairs]
        order = first_runner(parent, change)
        alternating = all(a != b for a, b in zip(order, order[1:]))
        print(
            f"== {workload}: {pairs} pair(s), "
            f"{'alternating' if alternating else 'NOT alternating'} first runner, "
            f"seeds {sorted({run['seed'] for run in parent + change})}"
        )
        if pairs < MIN_PAIRS:
            print(f"   too few pairs: need at least {MIN_PAIRS}")
            short = True
            if not pairs:
                continue
        p_rate, c_rate = error_rate(parent), error_rate(change)
        print(f"   error_rate: parent {p_rate:.4f}, change {c_rate:.4f}")
        if c_rate > p_rate:
            print("   REGRESSION: the change fails more operations")
            regression = True
        for metric in metrics:
            name, unit = metric["name"], metric["unit"]
            verdict = judge(
                [run["metrics"][name]["value"] for run in parent],
                [run["metrics"][name]["value"] for run in change],
                metric["better"],
                metric["bound"],
            )
            p_q1, p_med, p_q3 = verdict["parent"]
            c_q1, c_med, c_q3 = verdict["change"]
            print(
                f"   {name:15} parent {p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}] {unit}"
                f" | change {c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}] {unit}"
                f" | change/parent {verdict['ratio']:.3f} (base: parent median"
                f" {p_med:.4g} {unit})"
                f" | wins {verdict['wins']}/{pairs}"
                f" | parent spread {verdict['spread']:.3f} of its median"
                f" (bound {metric['bound']})"
                f" -> {verdict['verdict']}"
            )
            regression = regression or verdict["verdict"] == "regression"
    if regression:
        return 1
    return 2 if short else 0


if __name__ == "__main__":
    sys.exit(main())
