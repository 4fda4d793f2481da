#!/usr/bin/env python3
"""Benchmark of the ``lise`` package in the checkout it is run from.

    python3 perfbench/run.py --workload {fault_cli,monte_carlo,online_tv} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the package is imported from ``src/`` and
the bundled configs from ``configs/``.  Set-up is timed in fresh processes;
then whole passes of the workload run while the next one is expected to end
within half a pass of ``--seconds``.  Times are calibrated for machine speed
(see ``calibration``).  With ``--trace 0`` the end-to-end metrics are
reported; with ``--trace 1`` traced and untraced passes alternate and the
per-layer metrics are reported.  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (machine, raw times, messages,
spans) goes to ``.bench_out/results/``.  The exit code is 0 only when every
output check held.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5           # this process plus four fresh probe processes
PROBE_TIMEOUT_S = 60
OUT_DIR = ".bench_out"

# counts that must repeat exactly between two traced passes of the same code
REPEATED_COUNTS = ("decomposition.decompose", "decomposition.decompose_cached",
                   "model.step", "filters.compute_gain_L", "filters.ulise_step",
                   "filters.plise_step", "filters.cywz_step")
STRUCTURAL_CHECKS = ("strong_observability_ti", "strong_detectability",
                     "ulise_convergence_check", "plise_stability_check")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("fault_cli", "monte_carlo", "online_tv"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time import and set-up only, print it, and exit")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def machine_info(root: str) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root),
    }


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), sym)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return int(fn())
    return None


def git_sha(root: str):
    """HEAD of the checkout when it is a git work tree (read, no git process)."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src", "lise")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def probe_setup(args) -> float:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                         check=False)
    if res.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({res.returncode}): {res.stderr.strip()}")
    raw, scaled = json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]
    return float(raw), float(scaled)


def calibrated_setup(seconds: float) -> float:
    """Set-up time scaled by a calibration point taken right after it."""
    import calibration
    return seconds * calibration.REFERENCE_S / statistics.median(calibration.point())


def run_pass(wl, tracer=None, during_ops=True):
    from workloads import PassRecorder  # imported by main() after the set-up timer

    if tracer is not None:
        tracer.start_pass()
    rec = PassRecorder(tracer, during_ops)
    wl.run_pass(rec)
    return rec.finish()


def run_passes(wl, budget_s: float):
    """Whole passes while the next one is expected to end within half a pass
    of ``budget_s``; at least one."""
    recs, t_start, longest = [], time.perf_counter(), 0.0
    while True:
        t0 = time.perf_counter()
        recs.append(run_pass(wl))
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - t_start + longest / 2 > budget_s:
            return recs


def run_traced_passes(wl, tracer, package, budget_s: float):
    """Traced and untraced passes alternately, traced first, under the same
    budget rule; at least traced, untraced, traced.  Both kinds calibrate
    between operations only.  The first pass of a process pays one-time
    costs, so it is left out of the overhead."""
    traced, untraced, t_start, longest = [], [], time.perf_counter(), 0.0
    while True:
        t0 = time.perf_counter()
        if len(traced) > len(untraced):
            untraced.append(run_pass(wl, during_ops=False))
        else:
            tracer.install(package)
            try:
                traced.append(run_pass(wl, tracer))
            finally:
                tracer.remove()
        longest = max(longest, time.perf_counter() - t0)
        if (len(traced) >= 2 and time.perf_counter() - t_start + longest / 2 > budget_s):
            return traced, untraced


def percentile(values, q):
    """``q``-th percentile; 0 when every operation that yields samples failed."""
    import numpy as np
    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(recs, setup_s: float, raw: bool = False) -> dict:
    """End-to-end metrics, calibrated (see ``calibration``) unless ``raw``.
    Per-step percentiles are taken in each pass and the median over passes
    is reported, so that one disturbed pass does not set the tail."""
    lats = [r.raw_latency_us if raw else r.latency_us for r in recs]
    walls = [r.raw_wall if raw else r.wall for r in recs]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "estimates_per_s": (sum(r.estimates for r in recs) / sum(walls), "1/s"),
        "step_us_p50": (statistics.median(percentile(x, 50) for x in lats), "us"),
        "step_us_p99": (statistics.median(percentile(x, 99) for x in lats), "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(summaries, traced_recs, untraced_recs, wl, layers) -> dict:
    """Per-layer metrics of the traced passes: counts from one pass, times
    as the median over passes, all per pass unless the name says per call."""
    def med(fn):
        return statistics.median(fn(s, r) for s, r in zip(summaries, traced_recs))

    s0 = summaries[0]
    m = {}
    for f in ("ulise", "plise", "cywz"):
        name = f"filters.{f}_step"
        calls = s0.count(name)
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.self_us"] = (med(lambda s, r: s.self_s(name) / calls * 1e6)
                                if calls else 0.0, "us")
    for name in ("filters.compute_gain_L", "decomposition.decompose", "model.step",
                 "linalg.pinv", "linalg.psd_sqrt"):
        m[f"{name}.calls"] = (s0.count(name), "count")
        m[f"{name}.s"] = (med(lambda s, r: s.incl(name)), "s")
    cached = s0.count("decomposition.decompose_cached")
    m["decomposition.decompose_cached.calls"] = (cached, "count")
    m["decomposition.cache_hit_ratio"] = (
        1.0 - s0.count("decomposition.decompose") / cached if cached else 0.0, "ratio")
    truth_calls = s0.count("simulate.simulate_truth")
    m["simulate.simulate_truth.s"] = (med(lambda s, r: s.incl("simulate.simulate_truth")), "s")
    m["simulate.simulate_truth.us_per_run_step"] = (
        m["simulate.simulate_truth.s"][0] / wl.truth_run_steps * 1e6
        if truth_calls and wl.truth_run_steps else 0.0, "us")
    m["simulate.run_scenario.self_s"] = (med(lambda s, r: s.self_s("simulate.run_scenario")), "s")
    m["structural.analyze.s"] = (med(lambda s, r: s.incl("structural.analyze")), "s")
    callers = {"via_analyze": lambda n: n == "structural.analyze",
               "via_cli": lambda n: n.startswith("cli.")}
    for chk in STRUCTURAL_CHECKS:
        for label in callers:
            m[f"structural.{chk}.{label}.s"] = (
                med(lambda s, r: s.incl_via(f"structural.{chk}", callers)[label]), "s")
    for name in ("simulate.write_step_csv", "simulate.write_summary_csv",
                 "config.load_config", "model.validate", "signals.sample_signals"):
        m[f"{name}.s"] = (med(lambda s, r: s.incl(name)), "s")
    m["simulate.write_step_csv.bytes"] = (wl.step_csv_bytes, "B")
    m["cli.main.self_s"] = (med(lambda s, r: s.self_s("cli.main")), "s")

    for layer in layers + ("unattributed",):
        if layer == "unattributed":
            get = lambda s, r: r.raw_wall - sum(s.layer_self(x) for x in layers)  # noqa: E731
        else:
            get = lambda s, r, x=layer: s.layer_self(x)  # noqa: E731
        m[f"module.{layer}.self_s"] = (med(get), "s")
        m[f"module.{layer}.self_pct"] = (med(lambda s, r: 100.0 * get(s, r) / r.raw_wall), "%")

    traced = statistics.median(r.wall for r in traced_recs[1:])
    untraced = statistics.median(r.wall for r in untraced_recs)
    m["pass.traced_s"] = (traced, "s")
    m["pass.untraced_s"] = (untraced, "s")
    m["trace_overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%")
    return m


def trace_problems(summaries, wl) -> list:
    """Predicted spans that never fired, and counts that did not repeat."""
    problems = []
    for i, s in enumerate(summaries):
        for name in wl.predicted_spans:
            if s.count(name) == 0:
                problems.append(f"traced pass {i}: predicted span {name} recorded 0 calls")
    for name in REPEATED_COUNTS:
        counts = [s.count(name) for s in summaries]
        if len(set(counts)) != 1:
            problems.append(f"call count of {name} differs between traced passes: {counts}")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "src", "lise", "__init__.py"))
            and os.path.isdir(os.path.join(root, "configs"))):
        print("error: src/lise and configs/ not found; run from the root of a lise "
              "checkout", file=sys.stderr)
        return 2
    # tiny matrices: pin BLAS threads at or below the core count, before numpy loads
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, os.path.join(root, "src"))

    t0 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[args.workload](root, args.seed)
    setup_here = time.perf_counter() - t0

    import lise
    if os.path.dirname(os.path.abspath(lise.__file__)) != os.path.join(root, "src", "lise"):
        print(f"error: imported lise from {lise.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    setup_here = (setup_here, calibrated_setup(setup_here))
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_here}))
        return 0

    setup_samples = [setup_here] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    setup_s = statistics.median(s[1] for s in setup_samples)
    machine = machine_info(root)

    import spans
    if args.trace:
        tracer = spans.Tracer()
        traced_recs, recs = run_traced_passes(wl, tracer, lise, args.seconds)
        all_recs = traced_recs + recs
        summaries = [tracer.summarize(i) for i in range(len(traced_recs))]
        metrics = per_layer(summaries, traced_recs, recs, wl, spans.LAYERS)
        problems = trace_problems(summaries, wl)
        raw_metrics = {}
    else:
        recs = run_passes(wl, args.seconds)
        all_recs, problems = recs, []
        metrics = end_to_end(recs, setup_s)
        raw_metrics = end_to_end(recs, statistics.median(s[0] for s in setup_samples),
                                 raw=True)

    attempted = sum(r.attempted for r in all_recs)
    failed = sum(len(r.failed_ops) for r in all_recs)
    messages = [m for r in all_recs for m in r.messages]
    correct = failed == 0 and not problems

    os.makedirs(os.path.join(root, OUT_DIR, "results"), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.save(os.path.join(root, OUT_DIR, "results", f"{tag}-spans.npz"))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "setup_samples_s": setup_samples,
        "passes": len(recs), "pass_walls_s": [r.wall for r in all_recs],
        "raw_pass_walls_s": [r.raw_wall for r in all_recs],
        "factors": [r.wall / r.raw_wall for r in all_recs],
        "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw_metrics.items()},
        "latency_samples": sum(len(r.latency_us) for r in recs),
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted if attempted else 0.0,
        "messages": messages[:50], "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(root, OUT_DIR, "results", f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# machine {json.dumps(machine)}")
    print(f"# workload {args.workload} seed {args.seed}: {len(recs)} untraced pass(es), "
          f"{record['latency_samples']} latency samples, {attempted} operations, "
          f"{failed} failed, error_rate {record['error_rate']:.4g}")
    for name, (value, unit) in metrics.items():
        raw = f"  (as measured {raw_metrics[name][0]:.6g})" if name in raw_metrics else ""
        print(f"{name:56s} {value:>16.6g} {unit}{raw}")
    for msg in messages[:20] + problems:
        print(f"FAILED: {msg}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
