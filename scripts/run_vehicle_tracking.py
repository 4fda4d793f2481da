#!/usr/bin/env python3
"""Two-vehicle tracking demo: load configs/vehicle_tracking.yaml (discretizing
the continuous model), check strong detectability, run both filter variants,
and report how well the unknown accelerator input and the sensor bias are
tracked.

Usage:
    python scripts/run_vehicle_tracking.py [--horizon N] [--seed S] [--out DIR]

The config defines the sensor bias and the known input up to its own
horizon, so N may not exceed it.
"""

import argparse
import dataclasses
import os
from pathlib import Path

import numpy as np

from lise.config import load_config
from lise.simulate import run_scenario, write_step_csv, write_summary_csv

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "vehicle_tracking.yaml"


def main() -> int:
    base = load_config(CONFIG).scenario
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizon", type=int, default=base.horizon)
    ap.add_argument("--seed", type=int, default=base.noise_seed)
    ap.add_argument("--out", default=None, help="directory for CSV outputs")
    args = ap.parse_args()
    if args.horizon > base.horizon:
        ap.error(f"--horizon may not exceed the config's horizon {base.horizon}: "
                 "the sensor bias and the known input end there")

    sc = dataclasses.replace(base, horizon=args.horizon, noise_seed=args.seed)
    res = run_scenario(sc)
    rep = res.structural
    zs = ", ".join(f"{z.real:.3g}" for z in rep.invariant_zeros.zeros) or "none"
    print(f"discretized model: n={sc.model.n}, l={sc.model.l}, p={sc.model.p}")
    print(f"invariant zeros: {zs}; strongly detectable: "
          f"{'yes' if rep.strongly_detectable.detectable else 'no'}")
    print(f"gain-convergence certificate: {rep.ulise_convergent.status}; "
          f"boundedness certificate: {rep.plise_bounded.status}")
    print()
    for name in sc.filters:
        fr = res.filters[name]
        rms_d = fr.steady["rms_err_d"]
        sd_d = np.sqrt(fr.steady["pd_diag"])
        rms_x = fr.steady["rms_err_x"]
        print(f"{name}: steady input-tracking rms {np.round(rms_d, 4).tolist()} "
              f"vs reported sd {np.round(sd_d, 4).tolist()}")
        print(f"{'':>{len(name)}s}  steady state-tracking rms {np.round(rms_x, 4).tolist()} "
              f"({fr.seconds_per_step * 1e6:.0f} us/step)")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_step_csv(res, os.path.join(args.out, "vehicle_steps.csv"))
        write_summary_csv(res, os.path.join(args.out, "vehicle_summary.csv"))
        print(f"\nwrote CSVs to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
