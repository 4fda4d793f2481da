#!/usr/bin/env python3
"""In-process A/B timing of two lise checkouts on the filter step loop, on
the time-varying truth and scenario, on ``lise run``, on its Monte-Carlo
path and on ``lise analyze``.

    python3 scripts/ab_steps.py --checkout parent=../old --checkout change=. \
        [--reps 20] [--steps 1000] [--configs fault_h1 fault_h2 ...]

Each ``--checkout LABEL=DIR`` names the root of a lise checkout; its
``src/lise`` is imported under a name of its own, so both packages run in
this one process on the same numpy.  Separate processes on a small shared
machine drift by 15-40 % over seconds to minutes (perfbench/README.md), more
than a change to the fixed cost of a step; alternating the two packages in
one process puts both sides under the same drift.

Five benchmarks run, each once untimed per side first (as warm-up and for
the output comparison), then ``--reps`` times per side, the two sides in
turn and their order reversed on every other repetition:

- ``online``: one caller feeds ``--steps`` measurements one at a time to
  ``ulise_step``, ``plise_step`` and ``cywz_step``, interleaved per k, on a
  time-varying fault plant whose provider builds a fresh step every k (the
  plant of perfbench's ``online_tv``: A of ``fault_h1`` scaled by
  ``1 + 0.2 sin(2 pi k / 500 + phase)``, H switching between ``fault_h1``
  and ``fault_h2`` every 100 steps);
- ``tv``: on the same plant over ``--steps`` steps, ``simulate_truth`` of
  run 0 and of runs 0..127, then ``run_scenario`` with ULISE at MC 1, which
  validates the model, simulates its truth and runs the filter pass: the
  time-varying truth and ``validate`` that ``online`` does not reach;
- ``run``: ``lise run`` (the CLI's ``main``) on each of ``--configs`` in turn;
- ``mc``: ``lise run --config fault_h1 --mc 128 --seed 1``: besides the
  filter passes on run 0, the truth simulation of 128 runs and the
  Monte-Carlo replay of the gain schedule, which neither of the other two
  reaches.  Its CSVs hold run 0 only, so the batch that ``run_scenario``
  returns to the CLI is compared as well;
- ``analyze``: ``lise analyze`` on each of ``--configs`` in turn, the
  structural tests that ``lise run`` also makes before its filter passes.

For each benchmark the script prints, per side, the median and quartiles of
the time of one repetition, the ratio of the second side's median to the
first's, the number of repetitions the second side was faster, and whether
the two sides' outputs are bitwise equal (every step output of ``online``;
the truth ``x`` and ``y`` of every run and every field of each
``FilterRun`` but its timing in ``tv`` and ``mc``; every written CSV byte of
``run`` and ``mc``, and the standard output of ``run``, ``mc`` and
``analyze``, with the temporary output directory replaced by a
placeholder).  The last line is the same as JSON.
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
import sys
import tempfile
import time

from bench import parse_checkout, quartiles

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

CONFIGS = ("fault_h1", "fault_h2", "fault_h3", "fault_h4", "fault_h5", "fault_h6",
           "vehicle_tracking")
FILTERS = ("ulise", "plise", "cywz")
SWITCH, PERIOD, DEPTH = 100, 500.0, 0.2
MC_RUNS = 128


def load_package(root: str, name: str):
    """The ``src/lise`` package of the checkout at ``root``, imported as
    ``name``, with its ``config`` and ``cli`` modules."""
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
    """One checkout's package with the inputs of every benchmark."""

    def __init__(self, label: str, root: str, index: int, steps: int, configs):
        self.label, self.root = label, root
        self.lise = load_package(root, f"_ab_lise_{index}")
        self.configs = [os.path.join(root, "configs", f"{c}.yaml") for c in configs]
        self.steps = steps
        self._online_inputs()

    def _online_inputs(self):
        lise = self.lise
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
        """One pass of the step loop; returns its time and its outputs."""
        f = self.lise.filters
        sc, y, u = self.scenario, self.truth.y, self.truth.u
        inits = [getattr(f, f"{name}_init") for name in FILTERS]
        steps = [getattr(f, f"{name}_step") for name in FILTERS]
        outs = []
        t0 = time.perf_counter()
        states = [init(self.model, sc.x0_mean, sc.p0, y[0], u[0]) for init in inits]
        for k in range(1, self.steps + 1):
            for i, step in enumerate(steps):
                states[i], out = step(states[i], y[k], u[k], u[k - 1], self.model)
                outs.append(out)
        seconds = time.perf_counter() - t0
        return seconds, [(o.xhat, o.dhat_prev, o.px, o.pd_prev) for o in outs]

    def tv(self):
        """The online plant's truth at M = 1 and M = 128, then ULISE's
        ``run_scenario`` at MC 1; returns the time and the outputs' bytes."""
        sim = self.lise.simulate
        t0 = time.perf_counter()
        truths = [sim.simulate_truth(self.scenario, 0),
                  sim.simulate_truth(self.scenario, range(MC_RUNS))]
        result = sim.run_scenario(self.scenario)
        seconds = time.perf_counter() - t0
        return seconds, [a.tobytes() for t in truths for a in (t.x, t.y)] + _result_bytes(result)

    def run(self):
        """``lise run`` on every config; returns the time and the CSV bytes."""
        return self._cli([["run", "--config", cfg] for cfg in self.configs])

    def mc(self):
        """``lise run --mc`` on fault_h1; returns the time, the CSV bytes and
        the bytes of the batch that ``run_scenario`` returned to the CLI."""
        cli = self.lise.cli
        run_scenario = cli.run_scenario
        results = []

        def kept(*args, **kwargs):
            results.append(run_scenario(*args, **kwargs))
            return results[-1]

        cfg = os.path.join(self.root, "configs", "fault_h1.yaml")
        cli.run_scenario = kept
        try:
            seconds, files = self._cli([["run", "--config", cfg, "--mc", str(MC_RUNS),
                                         "--seed", "1"]])
        finally:
            cli.run_scenario = run_scenario
        (result,) = results
        files["batch"] = [result.truth.x.tobytes(), result.truth.y.tobytes()]
        files["batch"] += _result_bytes(result)
        return seconds, files

    def analyze(self):
        """``lise analyze`` on every config; returns the time and the stdout."""
        return self._cli([["analyze", "--config", cfg] for cfg in self.configs])

    def _cli(self, commands):
        """Run the CLI's ``main`` on each argv, each ``run`` writing into a
        directory of its own (``analyze`` writes no file and takes no
        ``--out``); returns their total time, and every written file's bytes
        and each command's standard output, the output directory written as
        ``<out>``."""
        files = {}
        seconds = 0.0
        with tempfile.TemporaryDirectory() as out:
            for i, argv in enumerate(commands):
                if argv[0] == "run":
                    argv = argv + ["--out", os.path.join(out, str(i))]
                with contextlib.redirect_stdout(io.StringIO()) as stdout:
                    t0 = time.perf_counter()
                    code = self.lise.cli.main(argv)
                    seconds += time.perf_counter() - t0
                if code != 0:
                    raise RuntimeError(f"{self.label}: lise {' '.join(argv)} exited {code}")
                files[f"stdout of command {i}"] = stdout.getvalue().replace(out, "<out>")
            for dirpath, _, names in os.walk(out):
                for name in names:
                    path = os.path.join(dirpath, name)
                    with open(path, "rb") as fh:
                        files[os.path.relpath(path, out)] = fh.read()
        return seconds, files


def _result_bytes(result) -> list:
    """Every field of each ``FilterRun`` of ``result`` but its timing."""
    return [_bytes(getattr(run, field.name)) for run in result.filters.values()
            for field in dataclasses.fields(run) if field.name != "seconds_per_step"]


def _bytes(value):
    """``value`` with every array, also inside lists and dicts, as its dtype,
    shape and bytes, so that ``==`` compares bit for bit."""
    if hasattr(value, "tobytes"):
        return (str(value.dtype), value.shape, value.tobytes())
    if isinstance(value, dict):
        return {k: _bytes(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bytes(v) for v in value]
    return value


def same_online(a, b) -> bool:
    return len(a) == len(b) and all(
        x.shape == y.shape and x.tobytes() == y.tobytes()
        for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def compare(name: str, sides, reps: int, same) -> dict:
    """Warm up, check outputs, then time ``reps`` alternating repetitions."""
    first = [getattr(s, name)()[1] for s in sides]
    times = [[], []]
    for r in range(reps):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for i in order:
            times[i].append(getattr(sides[i], name)()[0])
    result = {"bitwise_equal": same(*first), "reps": reps}
    for side, t in zip(sides, times):
        result[side.label] = {**quartiles(t), "runs_s": t}
    med_a, med_b = (result[s.label]["median"] for s in sides)
    result["ratio"] = med_b / med_a
    result["wins"] = sum(b < a for a, b in zip(*times))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=parse_checkout, action="append", required=True,
                        help="LABEL=DIR of a lise checkout; give exactly two")
    parser.add_argument("--reps", type=int, default=20, help="timed repetitions per side")
    parser.add_argument("--steps", type=int, default=1000, help="steps of the online loop")
    parser.add_argument("--configs", nargs="+", default=list(CONFIGS), choices=CONFIGS,
                        help="bundled configs that the run and analyze benchmarks run")
    args = parser.parse_args(argv)
    if len(args.checkout) != 2:
        parser.error("give exactly two --checkout")
    if args.reps < 1 or args.steps < 1:
        parser.error("--reps and --steps must be at least 1")
    sides = [Side(label, root, i, args.steps, args.configs)
             for i, (label, root) in enumerate(args.checkout)]
    a, b = (s.label for s in sides)
    report = {
        "online": compare("online", sides, args.reps, same_online),
        "tv": compare("tv", sides, args.reps, lambda x, y: x == y),
        "run": compare("run", sides, args.reps, lambda x, y: x == y),
        "mc": compare("mc", sides, args.reps, lambda x, y: x == y),
        "analyze": compare("analyze", sides, args.reps, lambda x, y: x == y),
    }
    for name, res in report.items():
        print(f"{name}: {res['reps']} alternating repetitions per side")
        for s in (a, b):
            r = res[s]
            print(f"  {s:>10}: median {r['median']:.4f} s  "
                  f"quartiles {r['q1']:.4f} .. {r['q3']:.4f} s")
        print(f"  {b} / {a} median ratio {res['ratio']:.3f}; {b} faster in "
              f"{res['wins']} of {res['reps']}; outputs bitwise equal: "
              f"{'yes' if res['bitwise_equal'] else 'NO'}")
    print(json.dumps(report))
    return 0 if all(res["bitwise_equal"] for res in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
