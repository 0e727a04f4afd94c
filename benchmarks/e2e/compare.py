"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the base (the parent commit, or the first validation set),
``B`` the candidate; both are files written by ``run.py --out``.  One
row per workload x end-to-end metric: both medians, the ratio B / A,
the bound, and a verdict:

* ``regressed``  - B's median is worse than A's by more than the bound;
* ``unresolved`` - not regressed, but one side's own spread (first to
  third quartile, as a share of its median) exceeds the bound, so the
  data cannot say "unchanged";
* ``ok``         - neither.

Exits 1 when any row regressed.  A claim of a *gain* needs the paired
rule in README "Claiming a gain"; this tool only guards the bounds.

    python3 benchmarks/e2e/compare.py --summarise SET.json [SET.json ...]

prints the sets' runs boiled down to per-metric quartiles (how
``baseline.json`` is made).
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import quartile_spread  # noqa: E402
from manifest import END_TO_END, WORKLOADS  # noqa: E402


def load_values(path: str) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` over the set's untraced runs."""
    with open(path, encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    values: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        if run["trace"]:
            continue
        for name, metric in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(metric["value"])
    return values


def worsening(base: float, candidate: float, better: str) -> float:
    """By what share of ``base`` the candidate is worse (negative: better)."""
    change = (candidate - base) / base
    return change if better == "lower" else -change


def verdict(base: list[float], candidate: list[float], better: str,
            bound: float) -> tuple[str, float, float, float, float]:
    """``(status, base median, candidate median, base spread, candidate spread)``."""
    b_q1, b_median, b_q3 = quartile_spread(base)
    c_q1, c_median, c_q3 = quartile_spread(candidate)
    b_spread = (b_q3 - b_q1) / b_median
    c_spread = (c_q3 - c_q1) / c_median
    if worsening(b_median, c_median, better) > bound:
        status = "regressed"
    elif max(b_spread, c_spread) > bound:
        status = "unresolved"
    else:
        status = "ok"
    return status, b_median, c_median, b_spread, c_spread


def compare(base_path: str, candidate_path: str) -> int:
    base, candidate = load_values(base_path), load_values(candidate_path)
    tally = {"ok": 0, "regressed": 0, "unresolved": 0, "missing": 0}
    print(f"{'workload':<15} {'metric':<19} {'A median':>12} {'B median':>12} "
          f"{'B/A':>6} {'A iqr':>6} {'B iqr':>6} {'bound':>5}  verdict")
    for workload in WORKLOADS:
        for metric in END_TO_END:
            key = (workload.name, metric.name)
            if key not in base or key not in candidate:
                tally["missing"] += 1
                print(f"{workload.name:<15} {metric.name:<19} missing from "
                      f"{'A' if key not in base else 'B'}")
                continue
            status, b_median, c_median, b_spread, c_spread = verdict(
                base[key], candidate[key], metric.better, metric.bound)
            tally[status] += 1
            print(f"{workload.name:<15} {metric.name:<19} {b_median:>12.4f} {c_median:>12.4f} "
                  f"{c_median / b_median:>6.3f} {b_spread:>6.3f} {c_spread:>6.3f} "
                  f"{metric.bound:>5.2f}  {status}"
                  f" (n={len(base[key])}/{len(candidate[key])}, {metric.unit}, "
                  f"{metric.better} is better)")
    print(", ".join(f"{count} {status}" for status, count in tally.items()))
    return 1 if tally["regressed"] else 0


def summarise(paths: list[str]) -> dict:
    """Quartiles of every metric per workload, untraced and traced runs apart."""
    summary: dict = {"meta": None, "end_to_end": {}, "per_layer": {}}
    values: dict[tuple[str, str, str], list[float]] = {}
    units: dict[str, str] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            gathered = json.load(handle)
        summary["meta"] = summary["meta"] or gathered["meta"]
        for run in gathered["runs"]:
            section = "per_layer" if run["trace"] else "end_to_end"
            for name, metric in run["metrics"].items():
                values.setdefault((section, run["workload"], name), []).append(metric["value"])
                units[name] = metric["unit"]
    for (section, workload, name), sample in values.items():
        q1, q2, q3 = quartile_spread(sample)
        summary[section].setdefault(workload, {})[name] = {
            "unit": units[name], "n": len(sample), "q1": q1, "median": q2, "q3": q3}
    return summary


if __name__ == "__main__":
    if len(sys.argv) >= 3 and sys.argv[1] == "--summarise":
        json.dump(summarise(sys.argv[2:]), sys.stdout, indent=1)
        print()
    elif len(sys.argv) == 3:
        sys.exit(compare(sys.argv[1], sys.argv[2]))
    else:
        sys.exit(__doc__)
