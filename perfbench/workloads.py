"""The three benchmark workloads, each a closed loop with one caller.

A workload is built by its set-up (the constructor: configs, models and
measurements, derived only from the benchmark seed) and then runs whole
passes.  Every operation of a pass goes through :class:`PassRecorder`, which
times it, optionally traces it, and counts it as attempted; the workload
checks each operation's output and marks it failed when the check does not
hold.  Checks do not depend on speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re

import numpy as np

import calibration
import lise.cli
import lise.filters
from lise.config import load_config
from lise.linalg import DEFAULT_TOL
from lise.model import SystemModel, SystemStep
from lise.simulate import Scenario, empirical_error_covariance, simulate_truth

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 1

FAULT_CONFIGS = tuple(f"fault_h{i}" for i in range(1, 7))
CLI_CONFIGS = FAULT_CONFIGS + ("vehicle_tracking",)

# Published steady-state covariance diagonals of the six fault variants
# (px_11..px_55, pd_11..pd_33), printed at four decimals; outputs must match
# within the criterion-1 bound.  They do not depend on the data or the seed.
STEADY_TABLE = {
    "fault_h1": {"CYWZ":  (0.1843, 0.0091, 0.0002, 0.0004, 0.0001, 0.0099, 0.0102, 0.1923),
                 "ULISE": (0.1843, 0.0091, 0.0002, 0.0004, 0.0001, 0.0099, 0.0102, 0.1923),
                 "PLISE": (0.1843, 0.0091, 0.0002, 0.0004, 0.0001, 0.0099, 0.0102, 0.1923)},
    "fault_h2": {"CYWZ":  (0.1494, 0.0052, 0.0002, 0.0004, 0.0001, 0.0097, 0.0102, 0.1574),
                 "ULISE": (0.1494, 0.0052, 0.0002, 0.0004, 0.0001, 0.0097, 0.0102, 0.1574),
                 "PLISE": (0.1614, 0.0053, 0.0002, 0.0004, 0.0001, 0.0102, 0.0102, 0.1889)},
    "fault_h3": {"CYWZ":  (0.0076, 0.0052, 0.0002, 0.0004, 0.0001, 0.0097, 0.0102, 0.3906),
                 "ULISE": (0.0076, 0.0052, 0.0002, 0.0004, 0.0001, 0.0097, 0.0102, 0.3906),
                 "PLISE": (0.0076, 0.0053, 0.0002, 0.0004, 0.0001, 0.0102, 0.0102, 0.3961)},
    "fault_h4": {"CYWZ":  (0.0076, 0.0257, 0.0002, 0.0004, 0.0001, 0.0348, 0.0102, 0.4925),
                 "ULISE": (0.0076, 0.0257, 0.0002, 0.0004, 0.0001, 0.0348, 0.0102, 0.4925),
                 "PLISE": (0.0076, 0.0258, 0.0002, 0.0004, 0.0001, 0.0349, 0.0102, 0.4925)},
    "fault_h5": {"CYWZ":  (0.0079, 0.0074, 0.0002, 0.0004, 0.0001, 0.0089, 0.0102, 0.0099),
                 "ULISE": (0.0079, 0.0074, 0.0002, 0.0004, 0.0001, 0.0089, 0.0102, 0.0099),
                 "PLISE": (0.0079, 0.0074, 0.0002, 0.0004, 0.0001, 0.0089, 0.0102, 0.0150)},
    "fault_h6": {"CYWZ":  (0.0076, 0.0218, 0.0002, 0.0004, 0.0001, 0.0309, 0.0102, 0.0097),
                 "ULISE": (0.0076, 0.0218, 0.0002, 0.0004, 0.0001, 0.0309, 0.0102, 0.0097),
                 "PLISE": (0.0078, 0.0257, 0.0002, 0.0004, 0.0001, 0.0368, 0.0102, 0.0165)},
}
STEADY_BOUND = 5e-4

# `lise analyze` verdicts per config, with parenthesized witnesses (method
# names, circle margins) removed; the zero lists are the published zero sets.
ANALYZE_VERDICTS = {
    "fault_h1": ["model assumptions: ok", "invariant zeros: 0.3, 0.8",
                 "strongly detectable: yes", "ULISE gain convergence: ok",
                 "PLISE boundedness: ok"],
    "fault_h2": ["model assumptions: ok", "invariant zeros: 0.1, 0.3, 0.5, 0.7, 0.8",
                 "strongly detectable: yes", "ULISE gain convergence: ok",
                 "PLISE boundedness: ok"],
    "fault_h3": ["model assumptions: ok", "strong observability: yes",
                 "invariant zeros: none", "strongly detectable: yes",
                 "ULISE gain convergence: ok", "PLISE boundedness: ok"],
    "fault_h4": ["model assumptions: ok", "invariant zeros: -0.8, 0.3",
                 "strongly detectable: yes", "ULISE gain convergence: ok",
                 "PLISE boundedness: ok"],
    "fault_h5": ["model assumptions: ok", "strong observability: yes",
                 "invariant zeros: none", "strongly detectable: yes",
                 "ULISE gain convergence: ok", "PLISE boundedness: ok"],
    "fault_h6": ["model assumptions: ok", "strong observability: yes",
                 "invariant zeros: -0.8, 0.1, 0.3, 0.35, 0.7",
                 "strongly detectable: yes", "ULISE gain convergence: ok",
                 "PLISE boundedness: ok"],
    "vehicle_tracking": ["model assumptions: ok", "invariant zeros: none",
                         "strongly detectable: yes", "ULISE gain convergence: ok",
                         "PLISE boundedness: ok"],
}
_WITNESS = re.compile(r"\s*\([^)]*\)")

# Monte-Carlo runs per `lise run --mc` call: enough that truth simulation is
# most of each call, small enough for one pass of three seeds to fit a run.
MC_RUNS = 128

# Time-varying fault plant of the online workload.
TV_HORIZON = 1000
TV_SWITCH = 100          # H alternates between variants 1 and 2 every 100 steps
TV_PERIOD = 500.0        # period of the sinusoid that scales A
TV_DEPTH = 0.2           # A is scaled by 1 + 0.2 sin(...)
TV_FILTERS = ("ULISE", "PLISE", "CYWZ")
TV_REFERENCE = os.path.join(HERE, "online_tv_reference.json")
TV_REF_STRIDE = 20       # the stored reference keeps every 20th step
TV_REF_RTOL, TV_REF_ATOL = 1e-7, 1e-9


def derive_seed(seed: int, index: int) -> int:
    """Nonnegative sub-seed ``index`` of the benchmark seed."""
    return (seed * 1_000_003 + index * 7919) % (2 ** 31)


class PassRecorder:
    """Times, traces and counts the operations of one pass.

    Times are kept as measured (``raw_wall``, ``raw_latency_us``) and scaled
    for machine speed (``wall``, ``latency_us``; see ``calibration``).  With
    a tracer, operations run under a root span and calibration bursts are
    taken only between operations, so that none lands inside a span.  Call
    :meth:`finish` after the last operation.
    """

    def __init__(self, tracer=None, during_ops: bool = True):
        self.tracer = tracer
        self.sampler = calibration.Sampler(during_ops and tracer is None)
        self.attempted = 0
        self.failed_ops: set = set()
        self.messages: list = []
        self.estimates = 0
        self._op_estimates: list = []
        self._roots: dict = {}

    def call(self, label: str, fn, *args, estimates: int = 0):
        """Run one operation; returns ``(op_id, result)``, result ``None`` if it raised."""
        op = self.attempted
        self.attempted += 1
        if self.tracer is not None:
            key = (label, fn)
            if key not in self._roots:
                self._roots[key] = self.tracer.root_wrapper(label, fn)
            fn = self._roots[key]
        self.sampler.before_op()
        result, _ = self.sampler.timed(fn, *args)
        if isinstance(result, Exception):
            self._op_estimates.append(0)
            self.fail(op, f"{label} raised {type(result).__name__}: {result}")
            return op, None
        self._op_estimates.append(estimates)
        self.estimates += estimates
        return op, result

    def fail(self, op: int, message: str):
        if op not in self.failed_ops:
            self.failed_ops.add(op)
            self.messages.append(message)

    def finish(self):
        """Derive the pass's measured and scaled times.  The pass time sums
        each operation's scaled time; per-step times are scaled by the pass's
        overall factor, since one operation's factor is too noisy for a tail
        percentile."""
        raw = np.array([seconds for _, _, seconds in self.sampler.op_at])
        est = np.array(self._op_estimates, dtype=float)
        per_step = est > 0
        self.raw_wall = float(raw.sum())
        self.wall = float(self.sampler.scaled().sum())
        self.raw_latency_us = (raw[per_step] * 1e6 / est[per_step]).tolist()
        factor = self.wall / self.raw_wall if self.raw_wall else 1.0
        self.latency_us = [x * factor for x in self.raw_latency_us]
        return self


def _cli(argv):
    """``lise`` CLI call with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lise.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    return header, rows


def check_summary(path: str, config: str, filters) -> str | None:
    """Steady-state diagonals finite and positive; fault configs match the table."""
    header, rows = _read_csv(path)
    by_filter = {r[0]: r for r in rows}
    if sorted(by_filter) != sorted(filters):
        return f"{config}: summary rows {sorted(by_filter)} != filters {sorted(filters)}"
    ncol = [i for i, h in enumerate(header) if h.startswith(("px_", "pd_"))]
    for name, row in by_filter.items():
        got = np.array([float(row[i]) for i in ncol])
        if not np.all(np.isfinite(got)) or np.any(got <= 0):
            return f"{config} {name}: steady diagonals not finite and positive"
        if config in STEADY_TABLE:
            err = float(np.max(np.abs(got - np.array(STEADY_TABLE[config][name]))))
            if err >= STEADY_BOUND:
                return f"{config} {name}: steady diagonals off the table by {err:.2e}"
    return None


def check_steps(path: str, config: str, n_rows: int) -> str | None:
    _, rows = _read_csv(path)
    if len(rows) != n_rows:
        return f"{config}: {len(rows)} step rows, expected {n_rows}"
    vals = np.array([[float(v) for v in r[2:]] for r in rows])
    if not np.all(np.isfinite(vals)):
        return f"{config}: non-finite values in the step CSV"
    return None


class FaultCli:
    """`lise analyze` then `lise run` on each of the seven bundled configs."""

    name = "fault_cli"
    predicted_spans = (
        "cli.main", "config.load_config", "model.validate", "model.step",
        "structural.analyze", "structural.strong_observability_ti",
        "structural.strong_detectability", "structural.ulise_convergence_check",
        "structural.plise_stability_check", "simulate.run_scenario",
        "simulate.simulate_truth", "signals.sample_signals", "filters.ulise_step",
        "filters.plise_step", "filters.cywz_step", "filters.compute_gain_L",
        "decomposition.decompose", "decomposition.decompose_cached",
        "linalg.pinv", "linalg.psd_sqrt", "simulate.write_step_csv",
        "simulate.write_summary_csv",
    )

    def __init__(self, root: str, seed: int):
        self.docs = {c: load_config(os.path.join(root, "configs", f"{c}.yaml"))
                     for c in CLI_CONFIGS}
        self.paths = {c: os.path.join("configs", f"{c}.yaml") for c in CLI_CONFIGS}
        self.seeds = {c: derive_seed(seed, i) for i, c in enumerate(CLI_CONFIGS)}
        self.out = {c: os.path.join(root, ".bench_out", "work", self.name, c)
                    for c in CLI_CONFIGS}
        for d in self.out.values():
            os.makedirs(d, exist_ok=True)
        self.truth_run_steps = sum(d.scenario.horizon * d.scenario.monte_carlo
                                   for d in self.docs.values())
        self.step_csv_bytes = 0

    def run_pass(self, rec: PassRecorder):
        self.step_csv_bytes = 0
        for c in CLI_CONFIGS:
            sc = self.docs[c].scenario
            op, res = rec.call("op.analyze", _cli, ["analyze", "--config", self.paths[c]])
            if res is not None:
                rc, out, err = res
                verdicts = [_WITNESS.sub("", line) for line in out.splitlines()]
                if rc != 0:
                    rec.fail(op, f"analyze {c}: exit code {rc}: {err.strip()}")
                elif verdicts != ANALYZE_VERDICTS[c]:
                    rec.fail(op, f"analyze {c}: verdicts {verdicts}")

            estimates = sc.monte_carlo * sc.horizon * len(sc.filters)
            argv = ["run", "--config", self.paths[c], "--seed", str(self.seeds[c]),
                    "--out", self.out[c]]
            op, res = rec.call("op.run", _cli, argv, estimates=estimates)
            if res is None:
                continue
            rc, _, err = res
            out = self.docs[c].output
            steps = os.path.join(self.out[c], out.per_step)
            if rc != 0:
                rec.fail(op, f"run {c}: exit code {rc}: {err.strip()}")
                continue
            self.step_csv_bytes += os.path.getsize(steps)
            msg = (check_summary(os.path.join(self.out[c], out.summary), c, sc.filters)
                   or check_steps(steps, c, sc.horizon * len(sc.filters)))
            if msg:
                rec.fail(op, msg)


def mc_trace_bound(runs: int) -> float:
    """Allowed relative gap between sample and reported error-covariance traces.

    Criterion 6 allows 20 % at M = 1000.  The sample trace's relative standard
    deviation is at most sqrt(2 / (M - 1)) (equality when one direction holds
    all the variance), so the same 4.47-sigma allowance at M runs is
    0.2 * sqrt(999 / (M - 1)); averaging over the steady window only narrows
    the sample spread.
    """
    return 0.2 * math.sqrt(999.0 / (runs - 1))


class MonteCarlo:
    """`lise run --mc M` on fault_h1 for three seeds derived from the benchmark seed."""

    name = "monte_carlo"
    config = "fault_h1"
    predicted_spans = (
        "cli.main", "config.load_config", "simulate.run_scenario",
        "simulate.simulate_truth", "filters.ulise_step", "filters.plise_step",
        "filters.cywz_step", "filters.compute_gain_L", "decomposition.decompose",
        "decomposition.decompose_cached", "model.step", "linalg.pinv",
        "linalg.psd_sqrt", "signals.sample_signals", "simulate.write_step_csv",
    )

    def __init__(self, root: str, seed: int):
        self.path = os.path.join("configs", f"{self.config}.yaml")
        self.doc = load_config(os.path.join(root, self.path))
        self.seeds = [derive_seed(seed, i) for i in range(3)]
        self.out = os.path.join(root, ".bench_out", "work", self.name)
        os.makedirs(self.out, exist_ok=True)
        sc = self.doc.scenario
        self.truth_run_steps = len(self.seeds) * MC_RUNS * sc.horizon
        self.step_csv_bytes = 0

    def run_pass(self, rec: PassRecorder):
        sc = self.doc.scenario
        estimates = MC_RUNS * sc.horizon * len(sc.filters)
        self.step_csv_bytes = 0
        for s in self.seeds:
            argv = ["run", "--config", self.path, "--mc", str(MC_RUNS), "--seed", str(s),
                    "--out", self.out]
            captured = []
            scenario_runner = lise.cli.run_scenario

            def capture(*args, **kwargs):
                result = scenario_runner(*args, **kwargs)
                captured.append(result)
                return result

            lise.cli.run_scenario = capture
            try:
                op, res = rec.call("op.run", _cli, argv, estimates=estimates)
            finally:
                lise.cli.run_scenario = scenario_runner
            if res is None:
                continue
            rc, _, err = res
            if rc != 0:
                rec.fail(op, f"run --mc seed {s}: exit code {rc}: {err.strip()}")
                continue
            steps = os.path.join(self.out, self.doc.output.per_step)
            self.step_csv_bytes += os.path.getsize(steps)
            msg = check_summary(os.path.join(self.out, self.doc.output.summary),
                                self.config, sc.filters)
            if msg is None:
                msg = (self._check_covariance(captured[0], s) if len(captured) == 1
                       else f"seed {s}: expected one scenario result from the CLI, "
                            f"captured {len(captured)}")
            if msg:
                rec.fail(op, msg)

    def _check_covariance(self, result, seed) -> str | None:
        """Sample error covariance trace against the reported trace, steady window."""
        bound = mc_trace_bound(MC_RUNS)
        horizon = result.scenario.horizon
        window = range(horizon - int(horizon * result.scenario.steady_window) + 1,
                       horizon + 1)
        for name, fr in result.filters.items():
            if fr.err_x_runs.shape[0] != MC_RUNS:
                return f"seed {seed} {name}: {fr.err_x_runs.shape[0]} runs, expected {MC_RUNS}"
            emp = np.mean([np.trace(empirical_error_covariance(fr, k, "x")) for k in window])
            rep = np.mean([fr.px_diag[k - 1].sum() for k in window])
            rel = abs(emp - rep) / rep
            if not rel < bound:
                return (f"seed {seed} {name}: sample trace {emp:.4g} vs reported "
                        f"{rep:.4g} ({rel:.1%} > {bound:.1%})")
        return None


def tv_scale(seed: int):
    """Per-seed phase of the sinusoid that scales A."""
    phase = 2.0 * math.pi * ((seed * 0.6180339887498949) % 1.0)
    return lambda k: 1.0 + TV_DEPTH * math.sin(2.0 * math.pi * k / TV_PERIOD + phase)


def tv_model(root: str, seed: int):
    """Time-varying fault plant: a fresh SystemStep per k from the provider."""
    base = {v: load_config(os.path.join(root, "configs", f"fault_h{v}.yaml"))
            for v in (1, 2)}
    s1, s2 = base[1].model.step(0), base[2].model.step(0)
    scale = tv_scale(seed)

    def provider(k: int) -> SystemStep:
        h = s1.H if (k // TV_SWITCH) % 2 == 0 else s2.H
        return SystemStep(A=scale(k) * s1.A, B=s1.B, C=s1.C, D=s1.D, G=s1.G, H=h,
                          Q=s1.Q, R=s1.R)

    model = SystemModel.time_varying(provider, dims=(s1.n, s1.m, s1.p, s1.l),
                                     horizon_hint=TV_HORIZON)
    return model, base[1].scenario


def tv_reduce(outs: dict) -> dict:
    """Per-step outputs compared between passes and with the reference."""
    return {name: {"xhat": o["xhat"], "dhat": o["dhat"],
                   "px_diag": np.diagonal(o["px"], axis1=1, axis2=2),
                   "pd_diag": np.diagonal(o["pd"], axis1=1, axis2=2)}
            for name, o in outs.items()}


def tv_outputs_to_reference(outs: dict) -> dict:
    """The stored form of one pass's reduced outputs: every TV_REF_STRIDE-th step."""
    ks = list(range(TV_REF_STRIDE, TV_HORIZON + 1, TV_REF_STRIDE))
    return {"k": ks,
            "filters": {name: {key: arr[[k - 1 for k in ks]].tolist()
                               for key, arr in outs[name].items()}
                        for name in TV_FILTERS}}


class OnlineTv:
    """One caller feeds measurements one at a time to the public step functions."""

    name = "online_tv"
    predicted_spans = (
        "filters.ulise_step", "filters.plise_step", "filters.cywz_step",
        "filters.compute_gain_L", "decomposition.decompose",
        "decomposition.decompose_cached", "model.step", "linalg.pinv",
    )

    def __init__(self, root: str, seed: int, load_reference: bool = True):
        self.model, base = tv_model(root, seed)
        sc = Scenario(model=self.model, horizon=TV_HORIZON, d_signals=base.d_signals,
                      u_signals=base.u_signals, x0_true=base.x0_true,
                      x0_mean=base.x0_mean, p0=base.p0, noise_seed=seed,
                      filters=TV_FILTERS, structural_checks=False)
        self.scenario = sc
        self.truth = simulate_truth(sc, 0)
        self.reference = None
        if seed == DEFAULT_SEED and load_reference:
            with open(TV_REFERENCE) as fh:
                self.reference = json.load(fh)
        self.first_pass = None
        self.truth_run_steps = 0
        self.step_csv_bytes = 0

    def compute(self, rec: PassRecorder) -> dict:
        """One pass; returns the per-step outputs of every filter."""
        sc, y, u = self.scenario, self.truth.y, self.truth.u
        n, p = self.model.n, self.model.p
        filt = lise.filters
        outs = {name: {"xhat": np.full((TV_HORIZON, n), np.nan),
                       "dhat": np.full((TV_HORIZON, p), np.nan),
                       "px": np.full((TV_HORIZON, n, n), np.nan),
                       "pd": np.full((TV_HORIZON, p, p), np.nan)}
                for name in TV_FILTERS}
        states, ops = {}, {name: [] for name in TV_FILTERS}
        for name in TV_FILTERS:
            init = getattr(filt, f"{name.lower()}_init")
            _, states[name] = rec.call("op.init", init, self.model, sc.x0_mean, sc.p0,
                                       y[0], u[0])
        for k in range(1, TV_HORIZON + 1):
            for name in TV_FILTERS:
                if states[name] is None:
                    op = rec.attempted
                    rec.attempted += 1
                    rec.fail(op, f"{name} step {k}: filter stopped earlier")
                    continue
                step = getattr(filt, f"{name.lower()}_step")
                op, res = rec.call("op.step", step, states[name], y[k], u[k], u[k - 1],
                                   self.model, estimates=1)
                ops[name].append(op)
                if res is None:
                    states[name] = None
                    continue
                states[name], out = res
                o = outs[name]
                o["xhat"][k - 1], o["dhat"][k - 1] = out.xhat, out.dhat_prev
                o["px"][k - 1], o["pd"][k - 1] = out.px, out.pd_prev
        self._ops = ops
        return outs

    def run_pass(self, rec: PassRecorder):
        outs = self.compute(rec)
        zero = DEFAULT_TOL.zero_abs
        for name in TV_FILTERS:
            o, ops = outs[name], self._ops[name]
            px = o["px"][:len(ops)]
            finite = np.all(np.isfinite(px), axis=(1, 2))
            asym = np.max(np.abs(px - px.transpose(0, 2, 1)), axis=(1, 2))
            min_eig = np.linalg.eigvalsh(0.5 * (px + px.transpose(0, 2, 1)))[:, 0]
            for i in np.flatnonzero(~finite | ~(asym <= zero) | ~(min_eig >= -zero)):
                rec.fail(ops[i], f"{name} step {i + 1}: px not finite symmetric PSD "
                                 f"(asymmetry {asym[i]:.2e}, min eigenvalue {min_eig[i]:.2e})")
        self._compare(rec, outs)

    def _compare(self, rec: PassRecorder, outs: dict):
        """Outputs equal the stored reference (default seed) and, on every seed,
        equal the first pass bitwise."""
        reduced = tv_reduce(outs)
        if self.first_pass is None:
            self.first_pass = reduced
        for name in TV_FILTERS:
            ops = self._ops[name]
            for key, arr in reduced[name].items():
                same = np.all(arr == self.first_pass[name][key], axis=1)[:len(ops)]
                for i in np.flatnonzero(~same):
                    rec.fail(ops[i], f"{name} step {i + 1}: {key} differs from the first pass")
                if self.reference is None:
                    continue
                ref = np.array(self.reference["filters"][name][key])
                ks = np.array(self.reference["k"])
                got = arr[ks - 1]
                ok = np.all(np.isclose(got, ref, rtol=TV_REF_RTOL, atol=TV_REF_ATOL), axis=1)
                for j in np.flatnonzero(~ok):
                    i = ks[j] - 1
                    if i < len(ops):
                        rec.fail(ops[i], f"{name} step {i + 1}: {key} differs from the "
                                         "stored reference")
                    else:
                        rec.fail(rec.attempted - 1, f"{name} step {i + 1}: missing output")


WORKLOADS = {w.name: w for w in (FaultCli, MonteCarlo, OnlineTv)}
