#!/usr/bin/env python3
"""Run the six fault-identification benchmark variants (configs/fault_h1.yaml
.. fault_h6.yaml) and print the steady-state covariance table for the three
unknown-input filters.

Usage:
    python scripts/run_fault_benchmark.py [--horizon N] [--seed S] [--out DIR]

With --out the per-step and summary CSVs of every variant are written there.
"""

import argparse
import dataclasses
import os
import time
from pathlib import Path

import numpy as np

from lise.config import load_config
from lise.simulate import run_scenario, write_step_csv, write_summary_csv

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizon", type=int, default=None,
                    help="steps per run (default: the configs' horizon)")
    ap.add_argument("--seed", type=int, default=None,
                    help="noise seed (default: the configs' seed)")
    ap.add_argument("--out", default=None, help="directory for CSV outputs")
    args = ap.parse_args()
    changes = {}
    if args.horizon is not None:
        changes["horizon"] = args.horizon
    if args.seed is not None:
        changes["noise_seed"] = args.seed

    header = (f"{'variant':>8s} {'filter':>6s} "
              + " ".join(f"{c:>8s}" for c in
                         ["px_11", "px_22", "px_33", "px_44", "px_55",
                          "pd_11", "pd_22", "pd_33"]))
    print(header)
    print("-" * len(header))
    t0 = time.time()
    for idx in range(1, 7):
        sc = dataclasses.replace(load_config(CONFIGS / f"fault_h{idx}.yaml").scenario,
                                 **changes)
        res = run_scenario(sc)
        det = res.structural.strongly_detectable
        for name in sc.filters:
            fr = res.filters[name]
            vals = np.concatenate([fr.steady["px_diag"], fr.steady["pd_diag"]])
            print(f"{idx:>8d} {name:>6s} " + " ".join(f"{v:8.4f}" for v in vals))
        zs = ", ".join(f"{z.real:.3g}" for z in det.zeros.zeros) or "none"
        print(f"{'':>8s} zeros: {zs}; strongly detectable: "
              f"{'yes' if det.detectable else 'no'}")
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            write_step_csv(res, os.path.join(args.out, f"fault_h{idx}_steps.csv"))
            write_summary_csv(res, os.path.join(args.out, f"fault_h{idx}_summary.csv"))
    print(f"\ntotal wall time: {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
