#!/usr/bin/env python3
"""Run the ``perfbench`` workloads over several seeds and summarise them.

    python3 scripts/bench.py --checkout change=. [--checkout parent=../old] \
        [--workloads fault_cli monte_carlo online_tv] --seeds 801-810 \
        --out BENCH.json

Each ``--checkout LABEL=DIR`` names the root of a lise checkout; its own
``perfbench/run.py`` runs there with ``--trace 0`` for ``BENCHMARK.json``'s
``run_seconds``, once per workload and seed.  With several checkouts, every
seed runs each of them in turn, and the order is reversed on every other
seed, so that machine drift hits all sides alike.  For each checkout and
workload the output holds the median and quartiles of every end-to-end
metric named in ``BENCHMARK.json``, the values of each run, the pass counts,
the operation counts and the machine record that ``perfbench/run.py``
prints.  With two checkouts, the second is compared with the first on every
metric: the change of the median, the first side's quartile distance, and
the number of seeds on which the second side was better.  ``--out`` is
written afresh from this one invocation, so all of its entries come from the
same runs, trees and machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fault_cli", "monte_carlo", "online_tv")


def parse_seeds(text: str) -> list[int]:
    """``"801-803,900"`` -> ``[801, 802, 803, 900]``."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_checkout(text: str) -> tuple[str, str]:
    label, sep, path = text.partition("=")
    if not sep or not label or not path:
        raise argparse.ArgumentTypeError(f"expected LABEL=DIR, got {text!r}")
    return label, os.path.abspath(path)


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run; its last output line plus its result record."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} printed nothing: "
                           f"{proc.stderr.strip()[-500:]}")
    summary = json.loads(lines[-1])
    path = os.path.join(checkout, ".bench_out", "results",
                        f"{workload}-seed{seed}-trace0.json")
    with open(path) as fh:
        record = json.load(fh)
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"], "passes": record["passes"],
            "machine": record["machine"],
            "metrics": {k: v["value"] for k, v in summary["metrics"].items()}}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarise(seeds: list[int], runs: list[dict], units: dict) -> dict:
    metrics = {}
    for name, unit in units.items():
        values = [r["metrics"][name] for r in runs]
        metrics[name] = {"unit": unit, **quartiles(values), "values": values}
    return {"seeds": seeds, "passes": [r["passes"] for r in runs],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs), "metrics": metrics}


def compare(base: dict, new: dict, better: dict) -> dict:
    """The second side against the first, metric by metric, seed by seed."""
    out = {}
    for name, b in base["metrics"].items():
        n = new["metrics"][name]
        sign = 1.0 if better[name] == "lower" else -1.0
        wins = sum(sign * (x - y) > 0 for x, y in zip(b["values"], n["values"]))
        out[name] = {
            "median_change_pct": 100.0 * (n["median"] / b["median"] - 1.0),
            "base_quartile_distance_pct": 100.0 * (b["q3"] - b["q1"]) / b["median"],
            "wins": wins, "pairs": len(b["values"]),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", type=parse_checkout, action="append", required=True,
                    help="LABEL=DIR of a lise checkout; repeat to compare")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--seeds", type=parse_seeds, required=True,
                    help="seeds as ranges, e.g. 801-810 or 801,805")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    labels = [label for label, _ in args.checkout]
    doc = {"seconds": seconds, "sides": {label: {"workloads": {}} for label in labels},
           "comparison": {}}
    for workload in args.workloads:
        runs = {label: [] for label in labels}
        for i, seed in enumerate(args.seeds):
            order = args.checkout if i % 2 == 0 else args.checkout[::-1]
            for label, path in order:
                res = run_once(path, workload, seed, seconds)
                runs[label].append(res)
                print(f"{workload} seed {seed} {label}: passes {res['passes']}, "
                      + ", ".join(f"{k} {v:.6g}" for k, v in res["metrics"].items()),
                      flush=True)
        for label in labels:
            side = doc["sides"][label]
            side["machine"] = runs[label][-1]["machine"]
            side["workloads"][workload] = summarise(args.seeds, runs[label], units)
        if len(labels) == 2:
            base, new = (doc["sides"][x]["workloads"][workload] for x in labels)
            doc["comparison"][workload] = {"base": labels[0], "new": labels[1],
                                           **compare(base, new, better)}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0 if all(w["correct"] for s in doc["sides"].values()
                    for w in s["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
