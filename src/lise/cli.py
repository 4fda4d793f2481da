"""Command-line front end.

Subcommands::

    lise analyze --config cfg.yaml          structural checks, verdict text
    lise run     --config cfg.yaml          simulate, write per-step + summary CSV
    lise compare --config cfg.yaml          side-by-side steady state + dominance

``compare`` prints one row per metric and one column per filter: the
tail-window means of the covariance diagonals (``px_ii``, ``pd_ii``) and
traces, then run 0's RMS tracking errors over the same window, per state
(``rms_x_i``) and per unknown input (``rms_d_i``).

Each subcommand takes only the flags it reads.  ``analyze`` takes --config
alone.  ``run`` and ``compare`` also take --seed and --mc, which override the
scenario's noise seed and Monte-Carlo run count, and --strict, which aborts
instead of warning when a structural check fails; ``compare`` takes
--filters, the filters to compare.  Only ``run`` writes files: their
directory comes from --out, else the LISE_OUT_DIR environment variable, else
the config.

Exit codes: 0 success, 1 usage/config error, 2 structural-check failure,
3 runtime numerical failure.  A model that fails the standing assumptions
(:func:`lise.model.validate`) exits 2 from every subcommand, each violation
printed as ``model assumptions: VIOLATED ...``, and ``run`` and ``compare``
do no other work on it.  A command runs with numpy's floating-point warnings
off: an overflow ends in the named error or the exit code that reports it.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .config import ConfigDocument, load_config
from .errors import ConfigError, InvalidInputError, LiseError
from .linalg import DEFAULT_TOL
from .model import validate
from .simulate import run_scenario, write_step_csv, write_summary_csv
from .structural import (
    plise_stability_check,
    strong_detectability,
    strong_observability_ti,
    strong_observability_tv,
    ulise_convergence_check,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lise",
        description="Joint state and unknown-input estimation for linear "
                    "discrete-time systems: structural analysis, simulation, "
                    "and filter comparison.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="path to a YAML config file")
    scenario = argparse.ArgumentParser(add_help=False, parents=[config])
    scenario.add_argument("--seed", type=int, default=None,
                          help="override the scenario noise seed")
    scenario.add_argument("--mc", type=int, default=None,
                          help="override the Monte-Carlo run count")
    scenario.add_argument("--strict", action="store_true",
                          help="abort instead of warning when structural checks fail")

    sub.add_parser("analyze", parents=[config],
                   help="run the structural checks and print verdicts")
    run_p = sub.add_parser("run", parents=[scenario],
                           help="simulate the scenario and write CSV outputs")
    run_p.add_argument("--out", default=None, help="override the output directory")
    cmp_p = sub.add_parser("compare", parents=[scenario],
                           help="run several filters and compare steady state")
    cmp_p.add_argument("--filters", nargs="+", default=None,
                       help="filters to compare (default: scenario's list)")
    return parser


def _override_scenario(doc: ConfigDocument, args) -> None:
    """Apply the command-line overrides to the scenario, one at a time, so
    that a value the scenario rejects raises the :class:`ConfigError` naming
    its flag."""
    sc = doc.scenario
    if sc is None:
        return
    filters = getattr(args, "filters", None)
    for flag, name, value in (("--seed", "noise_seed", args.seed),
                              ("--mc", "monte_carlo", args.mc),
                              ("--filters", "filters", tuple(filters) if filters else None)):
        if value is not None:
            try:
                sc = replace(sc, **{name: value})
            except InvalidInputError as exc:
                raise ConfigError(str(exc), flag) from None
    doc.scenario = sc


def _out_dir(doc: ConfigDocument, args) -> str:
    if args.out:
        return args.out
    env = os.environ.get("LISE_OUT_DIR")
    if env:
        return env
    return doc.output.dir


def _fmt_zero(z: complex) -> str:
    if abs(z.imag) < 1e-12:
        return f"{z.real:.6g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.6g}{sign}{abs(z.imag):.6g}j"


def _assumptions_hold(model, file) -> bool:
    """Whether ``model`` meets the standing assumptions; each violation is
    printed to ``file``."""
    violations = validate(model, tol=DEFAULT_TOL)
    for v in violations:
        print(f"model assumptions: VIOLATED [k={v.index}] {v.field}: {v.message}", file=file)
    return not violations


def cmd_analyze(doc: ConfigDocument) -> int:
    model = doc.model
    checks = doc.analysis.checks
    tol = DEFAULT_TOL
    failed = False

    if "validate" in checks:
        if not _assumptions_hold(model, sys.stdout):
            return EXIT_CHECK_FAILED
        print("model assumptions: ok")

    step = model.step(0)
    if "strong_observability" in checks:
        if doc.analysis.window is not None:
            verdict = strong_observability_tv(model, doc.analysis.window, tol)
            tag = "yes" if verdict.observable else "no"
            print(f"strong observability (window {doc.analysis.window}): {tag} "
                  f"(rank {verdict.combined.achieved}/{verdict.combined.required})")
            failed |= not verdict.observable
        else:
            verdict = strong_observability_ti(model, tol)
            if model.p == 0:
                tag = "yes (classical)" if verdict.observable else "no (classical)"
            else:
                tag = "yes" if verdict.observable else "no"
            wit = ("" if verdict.witness_window is None
                   else f" (window {verdict.witness_window})")
            print(f"strong observability: {tag}{wit}")
            failed |= not verdict.observable

    if "invariant_zeros" in checks or "strong_detectability" in checks:
        det = strong_detectability(step, tol)
        zs = det.zeros
        if "invariant_zeros" in checks:
            ordered = sorted(zs.zeros, key=lambda z: (z.real, z.imag))
            listing = ", ".join(_fmt_zero(z) for z in ordered) if ordered else "none"
            print(f"invariant zeros ({zs.method}): {listing}")
        if "strong_detectability" in checks:
            tag = "yes" if det.detectable else "no"
            print(f"strongly detectable: {tag} (max zero modulus {det.max_zero_modulus:.6g})")
            failed |= not det.detectable

    # the certificates are looked up at call time: perfbench's tracer
    # rebinds these module globals
    for check, label, certificate in (
            ("ulise_convergence", "ULISE gain convergence", ulise_convergence_check),
            ("plise_stability", "PLISE boundedness", plise_stability_check)):
        if check not in checks:
            continue
        cert = certificate(step, tol)
        extra = f" ({cert.reason})" if cert.reason else ""
        if cert.circle is not None and cert.circle.min_sigma is not None:
            extra = f" (min circle sigma {cert.circle.min_sigma:.4g})"
        print(f"{label}: {cert.status}{extra}")
        failed |= not cert.ok

    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _structural_gate(result, strict: bool) -> int:
    rep = result.structural
    if rep is None:
        return EXIT_OK
    problems = []
    if not rep.strongly_detectable.detectable:
        problems.append("system is not strongly detectable")
    for name, cert in (("ULISE", rep.ulise_convergent), ("PLISE", rep.plise_bounded)):
        if name in result.scenario.filters and not cert.ok:
            problems.append(f"{name} certificate: {cert.status} {cert.reason}")
    for msg in problems:
        print(f"structural warning: {msg}", file=sys.stderr)
    if problems and strict:
        print("aborting (--strict)", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _run_gated(doc: ConfigDocument, args, verb: str):
    """The run of ``lise run`` and ``lise compare``: ``(exit code, result)``.

    A config without a scenario is rejected, naming ``verb``, and a model
    that fails the standing assumptions fails the check, each with no
    result.  Otherwise the scenario runs with each filter's failure kept on
    its record, and the structural gate decides the code; when the gate
    passes, each failed filter is reported on stderr.
    """
    if doc.scenario is None:
        print(f"config has no scenario block; nothing to {verb}", file=sys.stderr)
        return EXIT_USAGE, None
    if not _assumptions_hold(doc.scenario.model, sys.stderr):
        return EXIT_CHECK_FAILED, None
    result = run_scenario(doc.scenario, raise_filter_errors=False)
    gate = _structural_gate(result, args.strict)
    if gate == EXIT_OK:
        for fr in result.failed:
            # the error starts with the step it failed at
            print(f"{fr.name} failed at {fr.error}", file=sys.stderr)
    return gate, result


def cmd_run(doc: ConfigDocument, args) -> int:
    gate, result = _run_gated(doc, args, "run")
    if gate != EXIT_OK:
        return gate
    out_dir = _out_dir(doc, args)
    os.makedirs(out_dir, exist_ok=True)
    step_path = os.path.join(out_dir, doc.output.per_step)
    summary_path = os.path.join(out_dir, doc.output.summary)
    write_step_csv(result, step_path)
    write_summary_csv(result, summary_path)
    print(f"wrote {step_path}")
    print(f"wrote {summary_path}")
    return EXIT_NUMERICAL if result.failed else EXIT_OK


def cmd_compare(doc: ConfigDocument, args) -> int:
    if doc.scenario is not None and len(doc.scenario.filters) < 2:
        print("compare needs at least two filters", file=sys.stderr)
        return EXIT_USAGE
    gate, result = _run_gated(doc, args, "compare")
    if gate != EXIT_OK:
        return gate
    model = doc.scenario.model
    names = [n for n in doc.scenario.filters if result.filters[n].error is None]
    header = ["metric"] + list(names)
    steady = [result.filters[n].steady for n in names]

    def vector_rows(key, label, size):
        return [[label.format(i + 1)] + [f"{s[key][i]:.6g}" for s in steady]
                for i in range(size)]

    rows = (vector_rows("px_diag", "px_{0}{0}", model.n)
            + vector_rows("pd_diag", "pd_{0}{0}", model.p)
            + [[key] + [f"{s[key]:.6g}" for s in steady] for key in ("tr_px", "tr_pd")]
            + vector_rows("rms_err_x", "rms_x_{0}", model.n)
            + vector_rows("rms_err_d", "rms_d_{0}", model.p))
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(s.rjust(w) for s, w in zip(r, widths)))

    if "ULISE" in names:
        u = result.filters["ULISE"].steady
        violations = []
        for n in names:
            if n == "ULISE":
                continue
            s = result.filters[n].steady
            # a slack relative to the traces, so that the verdict does not
            # depend on the units of Q, R and P0
            for key, label in (("tr_px", "Px"), ("tr_pd", "Pd")):
                if u[key] > s[key] + 1e-10 * max(abs(u[key]), abs(s[key])):
                    violations.append(f"trace({label}) ULISE > {n}")
        if violations:
            for v in violations:
                print(f"dominance violation: {v}")
        else:
            print("dominance check: ULISE steady traces are minimal (as expected)")
    return EXIT_NUMERICAL if result.failed else EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; this tool reserves 2 for failed
        # structural checks
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    # one floating-point policy per command: an overflow shows as a
    # non-finite matrix or estimate, which a named error or exit code
    # reports, so numpy's warnings would only repeat it on stderr
    with np.errstate(all="ignore"):
        try:
            doc = load_config(args.config)
            if args.command == "analyze":
                return cmd_analyze(doc)
            _override_scenario(doc, args)
            if args.command == "run":
                return cmd_run(doc, args)
            return cmd_compare(doc, args)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except LiseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
