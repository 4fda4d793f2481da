#!/usr/bin/env python3
"""Regenerate the stored outputs of the online_tv workload at its default seed.

    python3 perfbench/make_reference.py

Run from the root of a checkout whose filters are known to be right; the
file it writes is what every later run at the default seed is checked
against, so regenerate it only when the workload's definition changes.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402


def main() -> int:
    wl = workloads.OnlineTv(os.getcwd(), workloads.DEFAULT_SEED, load_reference=False)
    rec = workloads.PassRecorder()
    outs = wl.compute(rec)
    if rec.failed_ops:
        print("\n".join(rec.messages), file=sys.stderr)
        return 1
    with open(workloads.TV_REFERENCE, "w") as fh:
        json.dump({"seed": workloads.DEFAULT_SEED,
                   **workloads.tv_outputs_to_reference(workloads.tv_reduce(outs))}, fh)
        fh.write("\n")
    print(f"wrote {workloads.TV_REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
