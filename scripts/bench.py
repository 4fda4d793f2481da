#!/usr/bin/env python3
"""Compare lise checkouts: their outputs bit for bit, then the ``perfbench``
workloads over several seeds.

    python3 scripts/bench.py --checkout change=. [--checkout parent=../old] \
        [--workloads fault_cli monte_carlo online_tv] --seeds 801-810 \
        --out BENCH.json

Each ``--checkout LABEL=DIR`` names the root of a lise checkout: a DIR
without ``src/lise/__init__.py`` or ``configs/`` is a usage error (exit 2).

With two checkouts, the bitwise check runs first, once, in this process:
each checkout's ``src/lise`` is imported under a name of its own, so both
packages run on the same numpy, and five modes compare their outputs:

- ``online``: one caller feeds 1000 measurements one at a time to
  ``ulise_step``, ``plise_step`` and ``cywz_step``, interleaved per k, on a
  time-varying fault plant whose provider builds a fresh step every k (the
  plant of perfbench's ``online_tv``: A of ``fault_h1`` scaled by
  ``1 + 0.2 sin(2 pi k / 500 + phase)``, H switching between ``fault_h1``
  and ``fault_h2`` every 100 steps); every step output is compared;
- ``tv``: on the same plant, ``simulate_truth`` of run 0 and of runs
  0..127, then ``run_scenario`` with ULISE at MC 1, which validates the
  model, simulates its truth and runs the filter pass; the truth ``x`` and
  ``y`` of every run and every field of the ``FilterRun`` (but an older
  checkout's timing field) are compared;
- ``run``: ``lise run`` (the CLI's ``main``) on each bundled config;
- ``mc``: ``lise run --config fault_h1 --mc 128 --seed 1``, whose truth of
  128 runs and Monte-Carlo replay neither of the others reaches.  Its CSVs
  hold run 0 only, so the batch that ``run_scenario`` returns to the CLI is
  compared as well;
- ``analyze``: ``lise analyze`` on each bundled config.

``run``, ``mc`` and ``analyze`` compare every written CSV byte and the
standard output, with the temporary output directory replaced by a
placeholder.  The output JSON records ``bitwise_equal`` per mode and, in
``bitwise_differs``, what differs in each mode that is not equal: the
written files and standard outputs by name, the ``FilterRun`` fields as
``"<filter> <field>"``, and for ``online`` the first differing index of its
list of step outputs (three per k, in the order ULISE, PLISE, CYWZ).

Then ``perfbench/run.py`` runs in each checkout with ``--trace 0`` for
``BENCHMARK.json``'s ``run_seconds``, once per workload and seed.  With
several checkouts, every seed runs each of them in turn, and the order is
reversed on every other seed, so that machine drift hits all sides alike.
For each checkout and workload the output holds the median and quartiles of
every end-to-end metric named in ``BENCHMARK.json``, the values of each run,
the pass counts, the operation counts and the machine record that
``perfbench/run.py`` prints.  With two checkouts, the second is compared with
the first on every metric: the change of the median, the first side's
quartile distance, and the number of seeds on which the second side was
better.  ``--out`` is written afresh from this one invocation, so all of its
entries come from the same runs, trees and machine.

The exit code is 1 if a run was not correct or a mode's outputs differ, both
known only once ``--out`` is written, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fault_cli", "monte_carlo", "online_tv")
MODES = ("online", "tv", "run", "mc", "analyze")
CONFIGS = ("fault_h1", "fault_h2", "fault_h3", "fault_h4", "fault_h5", "fault_h6",
           "vehicle_tracking")
FILTERS = ("ulise", "plise", "cywz")
SWITCH, PERIOD, DEPTH = 100, 500.0, 0.2
MC_RUNS = 128


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
    root = os.path.abspath(path)
    if not (os.path.isfile(os.path.join(root, "src", "lise", "__init__.py"))
            and os.path.isdir(os.path.join(root, "configs"))):
        raise argparse.ArgumentTypeError(
            f"{path} is not a lise checkout: it needs src/lise/__init__.py and configs/")
    return label, root


def load_package(root: str, name: str):
    """The ``src/lise`` package of the checkout at ``root``, imported afresh
    as ``name``, with its ``config`` and ``cli`` modules."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    pkg_dir = os.path.join(root, "src", "lise")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg_dir, "__init__.py"), submodule_search_locations=[pkg_dir])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for module in ("config", "cli"):
        importlib.import_module(f"{name}.{module}")
    return pkg


class Side:
    """One checkout's package with the inputs of every mode of the bitwise
    check; each mode returns its outputs as :func:`_bytes`."""

    def __init__(self, label: str, root: str, index: int, steps: int, configs):
        self.label, self.root = label, root
        self.lise = lise = load_package(root, f"_bench_lise_{index}")
        self.configs = [os.path.join(root, "configs", f"{c}.yaml") for c in configs]
        self.steps = steps
        base = [lise.config.load_config(os.path.join(self.root, "configs", f"fault_h{v}.yaml"))
                for v in (1, 2)]
        s1, s2 = base[0].model.step(0), base[1].model.step(0)

        def provider(k):
            h = s1.H if (k // SWITCH) % 2 == 0 else s2.H
            scale = 1.0 + DEPTH * math.sin(2.0 * math.pi * k / PERIOD + 1.0)
            return lise.model.SystemStep(A=scale * s1.A, B=s1.B, C=s1.C, D=s1.D, G=s1.G,
                                         H=h, Q=s1.Q, R=s1.R)

        self.model = lise.model.SystemModel.time_varying(
            provider, dims=(s1.n, s1.m, s1.p, s1.l), horizon_hint=self.steps)
        sc = base[0].scenario
        self.scenario = lise.simulate.Scenario(
            model=self.model, horizon=self.steps, d_signals=sc.d_signals,
            u_signals=sc.u_signals, x0_true=sc.x0_true, x0_mean=sc.x0_mean, p0=sc.p0,
            noise_seed=1, filters=("ULISE",), structural_checks=False)
        self.truth = lise.simulate.simulate_truth(self.scenario, 0)

    def online(self):
        """Every output of the step loop over the online plant."""
        f = self.lise.filters
        sc, y, u = self.scenario, self.truth.y, self.truth.u
        steps = [getattr(f, f"{name}_step") for name in FILTERS]
        states = [getattr(f, f"{name}_init")(self.model, sc.x0_mean, sc.p0, y[0], u[0])
                  for name in FILTERS]
        outs = []
        for k in range(1, self.steps + 1):
            for i, step in enumerate(steps):
                states[i], out = step(states[i], y[k], u[k], u[k - 1], self.model)
                outs.append((out.xhat, out.dhat_prev, out.px, out.pd_prev))
        return _bytes(outs)

    def tv(self):
        """The online plant's truth at M = 1 and M = 128, then ULISE's
        ``run_scenario`` at MC 1."""
        sim = self.lise.simulate
        truths = [sim.simulate_truth(self.scenario, 0),
                  sim.simulate_truth(self.scenario, range(MC_RUNS))]
        return {"truth": _bytes([(t.x, t.y) for t in truths]),
                **_result_bytes(sim.run_scenario(self.scenario))}

    def run(self):
        """``lise run`` on every config."""
        return self._cli([["run", "--config", cfg] for cfg in self.configs])

    def mc(self):
        """``lise run --mc`` on fault_h1, with the batch that ``run_scenario``
        returned to the CLI."""
        cli = self.lise.cli
        run_scenario = cli.run_scenario
        results = []

        def kept(*args, **kwargs):
            results.append(run_scenario(*args, **kwargs))
            return results[-1]

        cfg = os.path.join(self.root, "configs", "fault_h1.yaml")
        cli.run_scenario = kept
        try:
            files = self._cli([["run", "--config", cfg, "--mc", str(MC_RUNS), "--seed", "1"]])
        finally:
            cli.run_scenario = run_scenario
        (result,) = results
        files["truth"] = _bytes([result.truth.x, result.truth.y])
        return {**files, **_result_bytes(result)}

    def analyze(self):
        """``lise analyze`` on every config."""
        return self._cli([["analyze", "--config", cfg] for cfg in self.configs])

    def _cli(self, commands):
        """Run the CLI's ``main`` on each argv, each ``run`` writing into a
        directory of its own (``analyze`` writes no file and takes no
        ``--out``); returns every written file's bytes and each command's
        standard output, the output directory written as ``<out>``."""
        files = {}
        with tempfile.TemporaryDirectory() as out:
            for i, argv in enumerate(commands):
                if argv[0] == "run":
                    argv = argv + ["--out", os.path.join(out, str(i))]
                with contextlib.redirect_stdout(io.StringIO()) as stdout:
                    code = self.lise.cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"{self.label}: lise {' '.join(argv)} exited {code}")
                files[f"stdout of command {i}"] = stdout.getvalue().replace(out, "<out>")
            for dirpath, _, names in os.walk(out):
                for name in names:
                    path = os.path.join(dirpath, name)
                    with open(path, "rb") as fh:
                        files[os.path.relpath(path, out)] = fh.read()
        return files


def _result_bytes(result) -> dict:
    """Every field of each ``FilterRun`` of ``result``, keyed ``"<filter>
    <field>"``; a checkout whose ``FilterRun`` still has the timing field
    ``seconds_per_step`` compares without it."""
    return {f"{run.name} {field.name}": _bytes(getattr(run, field.name))
            for run in result.filters.values()
            for field in dataclasses.fields(run) if field.name != "seconds_per_step"}


def _bytes(value):
    """``value`` with every array, also inside lists, tuples and dicts, as
    its dtype, shape and bytes, so that ``==`` compares bit for bit."""
    if hasattr(value, "tobytes"):
        return (str(value.dtype), value.shape, value.tobytes())
    if isinstance(value, dict):
        return {k: _bytes(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bytes(v) for v in value]
    return value


def differences(a, b) -> list:
    """Where two outputs of one mode differ: the sorted keys whose entries
    differ, for dicts; for lists, the first index at which they differ (the
    shorter one's length when it is a prefix of the other)."""
    if a == b:
        return []
    if isinstance(a, dict):
        return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    return [next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))]


def bitwise_check(checkouts, steps: int = 1000, configs=CONFIGS) -> dict:
    """Where the two checkouts' outputs differ, per mode (:func:`differences`,
    empty when they are bitwise equal); the online plant runs ``steps``
    steps, and ``run`` and ``analyze`` take ``configs``."""
    sides = [Side(label, root, i, steps, configs) for i, (label, root) in enumerate(checkouts)]
    return {mode: differences(getattr(sides[0], mode)(), getattr(sides[1], mode)())
            for mode in MODES}


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
    if len(labels) == 2:
        differs = bitwise_check(args.checkout)
        doc["bitwise_equal"] = {mode: not entries for mode, entries in differs.items()}
        doc["bitwise_differs"] = {mode: entries for mode, entries in differs.items() if entries}
        print("outputs bitwise equal: " + ", ".join(
            f"{mode} NO {entries}" if entries else f"{mode} yes"
            for mode, entries in differs.items()), flush=True)
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
    correct = all(w["correct"] for s in doc["sides"].values() for w in s["workloads"].values())
    return 0 if correct and all(doc.get("bitwise_equal", {}).values()) else 1


if __name__ == "__main__":
    sys.exit(main())
