"""Compare two checkouts with the same benchmark code: parent against change.

    python3 benchmarks/compare.py --parent ../parent --change . [--workload NAME ...]

Ten pairs, seeds 100 to 109, each run as long as ``run_seconds`` of
BENCHMARK.json.  Each pair runs every workload once on each side with one
seed, the side that goes first alternating from pair to pair.  For every workload and
end-to-end metric it prints each side's median and quartiles, the pairs
the change won, and a verdict:

* ``better``: the change won at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than the parent's quartile
  distance;
* ``unresolved``: the parent's own quartile distance, as a share of its
  median, exceeds the metric's bound, and not every change run beat every
  parent run;
* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``same``: none of these.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

PAIRS = 10
FIRST_SEED = 100


def improvement(parent: float, change: float, better: str) -> float:
    """Positive when the change reads better than the parent."""
    return parent - change if better == "lower" else change - parent


def verdict(parent: list[float], change: list[float], bound: float, better: str) -> dict:
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q = statistics.quantiles(parent, n=4)
    c_q = statistics.quantiles(change, n=4)
    iqr = p_q[2] - p_q[0]
    wins = sum(improvement(p, c, better) > 0 for p, c in zip(parent, change))
    gain = improvement(p_med, c_med, better)
    all_better = all(improvement(p, c, better) > 0 for p in parent for c in change)
    if wins >= 0.9 * len(parent) and gain > iqr:
        label = "better"
    elif iqr > bound * p_med and not all_better:
        label = "unresolved"
    elif -gain > bound * p_med:
        label = "worse"
    else:
        label = "same"
    return {"parent_median": p_med, "parent_quartiles": [p_q[0], p_q[2]],
            "change_median": c_med, "change_quartiles": [c_q[0], c_q[2]],
            "wins": wins, "pairs": len(parent), "verdict": label}


def run_side(root: str, workload: str, seed: int) -> dict:
    argv = [sys.executable, str(Path(run.__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--root", root]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root} {workload} seed {seed}: run failed (exit {proc.returncode})\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args(argv)
    spec = run.benchmark_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    values = {(side, w): [] for side in ("parent", "change") for w in workloads}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                root = args.parent if side == "parent" else args.change
                values[side, workload].append(run_side(root, workload, FIRST_SEED + i))
    summary = []
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [v[name] for v in values["parent", workload]]
            change = [v[name] for v in values["change", workload]]
            row = {"workload": workload, "metric": name, "unit": metric["unit"],
                   **verdict(parent, change, metric["bound"], metric["better"])}
            summary.append(row)
            print(f"{workload:12s} {name:14s} parent {row['parent_median']:.6g} "
                  f"[{row['parent_quartiles'][0]:.6g}, {row['parent_quartiles'][1]:.6g}]  "
                  f"change {row['change_median']:.6g} [{row['change_quartiles'][0]:.6g}, "
                  f"{row['change_quartiles'][1]:.6g}] {metric['unit']}  "
                  f"wins {row['wins']}/{row['pairs']}  {row['verdict']}")
    print(json.dumps(summary))
    return 1 if any(row["verdict"] == "worse" for row in summary) else 0


if __name__ == "__main__":
    sys.exit(main())
