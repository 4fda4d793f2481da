#!/usr/bin/env python3
"""Count the gain steps each filter pass computes and the steps it serves
from its gain cycle, on the bundled configs at their own horizons.

    python3 scripts/gain_steps.py [--configs fault_h1 fault_h2 ...]

For every config and filter it prints ``FilterRun.gain_cycle`` (``k,
period``, or ``None``), the number of steps whose gain half was computed
by a call to the step function, and the number served from the cycle by
the estimate update alone; then a ``total`` line.  A pass computes the
steps before ``k`` and serves the rest.  The counts depend only on the
model, the prior and the filter, not on the seed, since the gain recursion
does not read the data.  The structural checks are skipped and one run is
simulated, so the script runs in a few seconds.  It imports the ``lise`` of
the checkout it lives in, so a copy of the script placed in another
checkout counts that checkout's passes.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lise.config import load_config  # noqa: E402
from lise.simulate import run_scenario  # noqa: E402

CONFIGS = ("fault_h1", "fault_h2", "fault_h3", "fault_h4", "fault_h5", "fault_h6",
           "vehicle_tracking")


def gain_steps(config: str) -> list[tuple[str, tuple | None, int, int]]:
    """``(filter, gain_cycle, computed, served)`` of every filter of the
    bundled config ``config`` at its own horizon."""
    doc = load_config(str(ROOT / "configs" / f"{config}.yaml"))
    scenario = dataclasses.replace(doc.scenario, monte_carlo=1, structural_checks=False)
    rows = []
    for name, fr in run_scenario(scenario, raise_filter_errors=False).filters.items():
        steps = fr.xhat.shape[0]
        computed = steps if fr.gain_cycle is None else fr.gain_cycle[0] - 1
        rows.append((name, fr.gain_cycle, computed, steps - computed))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--configs", nargs="+", default=list(CONFIGS), choices=CONFIGS)
    args = parser.parse_args(argv)
    print(f"{'config':<18}{'filter':<8}{'gain_cycle':>12}{'computed':>10}{'served':>8}")
    computed_total = served_total = 0
    for config in args.configs:
        for name, cycle, computed, served in gain_steps(config):
            shown = "None" if cycle is None else f"{cycle[0]},{cycle[1]}"
            print(f"{config:<18}{name:<8}{shown:>12}{computed:>10}{served:>8}")
            computed_total += computed
            served_total += served
    print(f"{'total':<18}{'':<8}{'':>12}{computed_total:>10}{served_total:>8}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
