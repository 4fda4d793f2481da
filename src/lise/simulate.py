"""Scenario simulation: seeded ground truth, filter runs, and metrics.

Ground truth is generated with a counter-based Philox (4x64) bit generator;
run ``r`` of a scenario draws from the stream keyed ``(seed, r)``, so runs
are reproducible individually.  All runs of a Monte-Carlo batch are
simulated at once: each run's noise comes from its own stream, the model
step and its noise factors are fetched once per time index, and the states
of all runs are propagated as one (M, n) array, bitwise equal to simulating
each run on its own.  Gaussian noise uses a PSD square-root factor of the
covariance.

Filter gains and covariances do not depend on the data, so a Monte-Carlo
batch runs the full step functions once (which also yields the reported
covariance series and the gain schedule) and then replays the schedule over
all measurement realizations with cheap batched estimate updates.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .decomposition import OutputDecomposition, decompose_cached
from .errors import InvalidInputError, LiseError
from .filters import (
    GammaPolicy,
    cywz_init,
    cywz_step,
    kalman_init,
    kalman_step,
    plise_init,
    plise_step,
    ulise_init,
    ulise_step,
)
from .linalg import DEFAULT_TOL, Tolerance, psd_sqrt
from .model import SystemModel, validate
from .signals import sample_signals
from .structural import StructuralReport, analyze

__all__ = [
    "Scenario",
    "TruthTrajectories",
    "FilterRun",
    "RunResult",
    "FilterFailure",
    "simulate_truth",
    "run_scenario",
    "empirical_error_covariance",
    "write_step_csv",
    "write_summary_csv",
    "FILTER_NAMES",
]

FILTER_NAMES = ("ULISE", "PLISE", "CYWZ", "KALMAN")


@dataclass(frozen=True, eq=False)
class Scenario:
    """Simulation description: model, signals, noise seed, filters to run."""

    model: SystemModel
    horizon: int
    d_signals: tuple
    u_signals: tuple
    x0_true: np.ndarray
    x0_mean: np.ndarray
    p0: np.ndarray
    noise_seed: int
    filters: tuple
    monte_carlo: int = 1
    gamma: GammaPolicy = GammaPolicy.DAROUACH
    steady_window: float = 0.2
    structural_checks: bool = True

    def __post_init__(self):
        object.__setattr__(self, "d_signals", tuple(self.d_signals))
        object.__setattr__(self, "u_signals", tuple(self.u_signals))
        object.__setattr__(self, "filters", tuple(self.filters))
        object.__setattr__(self, "x0_true", np.asarray(self.x0_true, dtype=float))
        object.__setattr__(self, "x0_mean", np.asarray(self.x0_mean, dtype=float))
        object.__setattr__(self, "p0", np.asarray(self.p0, dtype=float))
        if self.horizon < 1:
            raise InvalidInputError("horizon must be >= 1")
        if self.monte_carlo < 1:
            raise InvalidInputError("monte_carlo must be >= 1")
        if len(self.d_signals) != self.model.p:
            raise InvalidInputError(
                f"need {self.model.p} unknown-input signals, got {len(self.d_signals)}")
        if len(self.u_signals) != self.model.m:
            raise InvalidInputError(
                f"need {self.model.m} known-input signals, got {len(self.u_signals)}")
        if not self.filters:
            raise InvalidInputError("at least one filter must be requested")
        for name in self.filters:
            if name not in FILTER_NAMES:
                raise InvalidInputError(f"unknown filter {name!r}; choose from {FILTER_NAMES}")
        if not (0.0 < self.steady_window <= 1.0):
            raise InvalidInputError("steady_window must lie in (0, 1]")


@dataclass(frozen=True)
class TruthTrajectories:
    """Simulated ground truth: x (N+1, n), y (N+1, l), d (N+1, p), u (N+1, m).

    A batch of runs carries a leading run axis on ``x`` and ``y`` only.
    """

    x: np.ndarray
    y: np.ndarray
    d: np.ndarray
    u: np.ndarray


def _run_rng(seed: int, run_index: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(run_index & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _gemv(mat: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``mat @ v`` for every vector ``v`` along the last axis of ``vecs``.

    ``mat`` is one matrix or a stack of them broadcast against ``vecs``.
    Each product is a separate gemv, the same BLAS path as ``mat @ v`` on a
    single vector, so batches reproduce one-run arithmetic bit for bit
    (``vecs @ mat.T`` is a gemm and may round differently).
    """
    return np.matmul(mat, vecs[..., None])[..., 0]


def simulate_truth(scenario: Scenario, run_index: int | Sequence[int] = 0,
                   tol: Tolerance = DEFAULT_TOL) -> TruthTrajectories:
    """Simulate seeded runs of the model under the scenario's signals.

    An integer ``run_index`` gives one run, with ``x`` (N+1, n) and ``y``
    (N+1, l).  A sequence of run indices gives the batch, with a leading run
    axis on ``x`` and ``y``; ``d`` and ``u`` are shared by all runs.  Every
    run is bitwise identical to simulating it on its own, and identical
    (seed, run_index) pairs produce bitwise-identical trajectories.
    """
    single = isinstance(run_index, numbers.Integral)
    runs = [run_index] if single else list(run_index)
    model = scenario.model
    n_steps = scenario.horizon
    d = sample_signals(scenario.d_signals, n_steps + 1)
    u = sample_signals(scenario.u_signals, n_steps + 1)

    # each run's standard-normal draws go straight into its rows: process
    # noise into x[r, 1:], then measurement noise into y[r]
    x = np.empty((len(runs), n_steps + 1, model.n))
    y = np.empty((len(runs), n_steps + 1, model.l))
    for i, r in enumerate(runs):
        rng = _run_rng(scenario.noise_seed, r)
        rng.standard_normal(out=x[i, 1:])
        rng.standard_normal(out=y[i])
    x[:, 0] = scenario.x0_true

    # each model matrix and noise factor as a series over k = 0..N, fetched
    # and factored once per k (once in all for a time-invariant model)
    if model.is_time_invariant:
        step0 = model.step(0)

        def series(f):
            mat = f(step0)
            return np.broadcast_to(mat, (n_steps + 1,) + mat.shape)
    else:
        steps = [model.step(k) for k in range(n_steps + 1)]

        def series(f):
            return np.stack([f(s) for s in steps])

    # only A x[k] depends on the recursion; every other term is formed for
    # all k at once.  The sums keep the one-run order (A x + B u + G d +
    # noise, C x + D u + H d + noise) so that rounding matches bit for bit.
    a = series(lambda s: s.A)
    bu = _gemv(series(lambda s: s.B), u)
    gd = _gemv(series(lambda s: s.G), d)
    x[:, 1:] = _gemv(series(lambda s: psd_sqrt(s.Q, tol))[:n_steps], x[:, 1:])
    for k in range(n_steps):
        x[:, k + 1] = _gemv(a[k], x[:, k]) + bu[k] + gd[k] + x[:, k + 1]
    y[:] = (_gemv(series(lambda s: s.C), x) + _gemv(series(lambda s: s.D), u)
            + _gemv(series(lambda s: s.H), d)
            + _gemv(series(lambda s: psd_sqrt(s.R, tol)), y))
    if single:
        return TruthTrajectories(x=x[0], y=y[0], d=d, u=u)
    return TruthTrajectories(x=x, y=y, d=d, u=u)


@dataclass
class _StepGains:
    """Data-independent per-step record used to replay estimate updates."""

    dec_prev: OutputDecomposition
    dec: OutputDecomposition
    a_prev: np.ndarray
    b_prev: np.ndarray
    c: np.ndarray
    d_mat: np.ndarray
    m2: np.ndarray
    m2_state: np.ndarray
    gain_l: np.ndarray


@dataclass
class FilterRun:
    """Time series and summaries of one filter over a scenario.

    ``xhat[i]`` is the filtered state after consuming measurement ``k = i+1``;
    ``dhat[i]`` is the (one-step delayed) estimate of the unknown input at
    time ``i``.  ``*_runs`` arrays hold the errors of every Monte-Carlo run.
    """

    name: str
    xhat: np.ndarray
    dhat: np.ndarray
    px_diag: np.ndarray
    pd_diag: np.ndarray
    tr_px: np.ndarray
    tr_pd: np.ndarray
    err_x: np.ndarray
    err_d: np.ndarray
    err_x_runs: np.ndarray
    err_d_runs: np.ndarray
    steady: dict
    max_unbiasedness: dict
    seconds_per_step: float
    gain_l_series: list
    error: Optional[str] = None
    failed_at: Optional[int] = None


@dataclass
class RunResult:
    scenario: Scenario
    structural: Optional[StructuralReport]
    truth: TruthTrajectories
    filters: dict

    @property
    def failed(self) -> list:
        return [f for f in self.filters.values() if f.error is not None]


_INITS = {"ULISE": ulise_init, "PLISE": plise_init, "CYWZ": cywz_init}
_STEPS = {"ULISE": ulise_step, "PLISE": plise_step, "CYWZ": cywz_step}


def _full_pass(name: str, scenario: Scenario, truth: TruthTrajectories,
               tol: Tolerance):
    """Run the real step functions over run-0 data; collect series and gains."""
    model = scenario.model
    n_steps = scenario.horizon
    ys, us = truth.y, truth.u
    t0 = time.perf_counter()
    if name == "KALMAN":
        state = kalman_init(model, scenario.x0_mean, scenario.p0, tol)
    else:
        state = _INITS[name](model, scenario.x0_mean, scenario.p0, ys[0], us[0], tol)
    xhat = np.zeros((n_steps, model.n))
    dhat = np.zeros((n_steps, model.p))
    px_diag = np.zeros((n_steps, model.n))
    pd_diag = np.zeros((n_steps, model.p))
    gains: list[_StepGains] = []
    gain_l_series = []
    unb = {"m1_sigma": 0.0, "m2_c2g2": 0.0, "l_u1": 0.0}
    error = failed_at = None
    for k in range(1, n_steps + 1):
        step_prev = model.step(k - 1)
        step = model.step(k)
        dec_prev = decompose_cached(step_prev, tol)
        try:
            if name == "KALMAN":
                state, out = kalman_step(state, ys[k], us[k], us[k - 1], model, tol)
                dec_k = decompose_cached(step, tol)
            else:
                state, out = _STEPS[name](state, ys[k], us[k], us[k - 1], model,
                                          scenario.gamma, tol)
                dec_k = state.dec
        except LiseError as exc:
            error = f"step {k}: {exc}"
            failed_at = k
            xhat, dhat = xhat[:k - 1], dhat[:k - 1]
            px_diag, pd_diag = px_diag[:k - 1], pd_diag[:k - 1]
            break
        i = k - 1
        xhat[i] = out.xhat
        dhat[i] = out.dhat_prev
        px_diag[i] = np.diag(out.px)
        pd_diag[i] = np.diag(out.pd_prev)
        gain_l_series.append(out.gain_l)
        for key in unb:
            unb[key] = max(unb[key], out.unbiasedness[key])
        gains.append(_StepGains(
            dec_prev=dec_prev, dec=dec_k,
            a_prev=step_prev.A, b_prev=step_prev.B, c=step.C, d_mat=step.D,
            m2=out.gain_m2, m2_state=out.gain_m2_state, gain_l=out.gain_l,
        ))
    seconds = (time.perf_counter() - t0) / max(len(gains), 1)
    return xhat, dhat, px_diag, pd_diag, gains, gain_l_series, unb, seconds, error, failed_at


def _apply_schedule(name: str, gains: Sequence[_StepGains], ys: np.ndarray,
                    us: np.ndarray, x0_mean: np.ndarray):
    """Replay precomputed gains over a batch of measurement sequences.

    ``ys`` has shape (M, N+1, l); returns batched estimates (M, N, n) and
    (M, N, p).  Exactly the estimate recursions of the step functions; the
    covariance side is untouched (it is data-independent).
    """
    runs, _, _ = ys.shape
    n_steps = len(gains)
    if n_steps == 0:
        raise InvalidInputError("empty gain schedule")
    n = gains[0].a_prev.shape[0]
    p = gains[0].dec_prev.V1.shape[0]
    xh = np.zeros((runs, n_steps, n))
    dh = np.zeros((runs, n_steps, p))

    dec0 = gains[0].dec_prev
    x = np.broadcast_to(x0_mean, (runs, n)).copy()
    z1_0 = ys[:, 0, :] @ dec0.T1.T
    d1 = (z1_0 - x @ dec0.C1.T - us[0] @ dec0.D1.T) @ dec0.sigma_inv.T
    for i, g in enumerate(gains):
        k = i + 1
        yk = ys[:, k, :]
        xpred = x @ g.a_prev.T + us[k - 1] @ g.b_prev.T + d1 @ g.dec_prev.G1.T
        resid2 = yk @ g.dec.T2.T - xpred @ g.dec.C2.T - us[k] @ g.dec.D2.T
        d2 = resid2 @ g.m2.T
        d2s = resid2 @ g.m2_state.T if g.m2_state is not g.m2 else d2
        dh[:, i, :] = d1 @ g.dec_prev.V1.T + d2 @ g.dec_prev.V2.T
        xstar = xpred + d2s @ g.dec_prev.G2.T
        x = xstar + (yk - xstar @ g.c.T - us[k] @ g.d_mat.T) @ g.gain_l.T
        xh[:, i, :] = x
        base = xstar if name == "PLISE" else x
        d1 = (yk @ g.dec.T1.T - base @ g.dec.C1.T - us[k] @ g.dec.D1.T) @ g.dec.sigma_inv.T
    return xh, dh


def _steady_slice(n_steps: int, frac: float) -> slice:
    start = int(np.floor(n_steps * (1.0 - frac)))
    return slice(min(start, n_steps - 1), n_steps)


def run_scenario(scenario: Scenario, tol: Tolerance = DEFAULT_TOL,
                 raise_filter_errors: bool = True) -> RunResult:
    """Simulate the scenario and run every requested filter on the same data.

    Structural verdicts are computed first (time-invariant models only).
    With ``raise_filter_errors`` unset, a filter that fails an estimability
    or numerical precondition mid-run keeps its partial series and the error
    is recorded on its :class:`FilterRun` instead of raising.
    """
    model = scenario.model
    violations = validate(model, range(scenario.horizon + 1)
                          if not model.is_time_invariant else None, tol)
    if violations:
        msgs = "; ".join(f"[k={v.index}] {v.field}: {v.message}" for v in violations)
        raise InvalidInputError(f"model violates standing assumptions: {msgs}")
    structural = None
    if scenario.structural_checks and model.is_time_invariant:
        structural = analyze(model, tol)

    truth = simulate_truth(scenario, range(scenario.monte_carlo), tol)
    truth0 = TruthTrajectories(x=truth.x[0], y=truth.y[0], d=truth.d, u=truth.u)
    n_steps = scenario.horizon
    tail = _steady_slice(n_steps, scenario.steady_window)

    filters: dict[str, FilterRun] = {}
    for name in scenario.filters:
        (xhat, dhat, px_diag, pd_diag, gains, l_series, unb, secs,
         error, failed_at) = _full_pass(name, scenario, truth0, tol)
        if error is not None and raise_filter_errors:
            raise FilterFailure(name, error)
        n_ok = xhat.shape[0]
        err_x = xhat - truth0.x[1:n_ok + 1]
        err_d = dhat - truth0.d[:n_ok]
        if scenario.monte_carlo > 1 and n_ok:
            xh_runs, dh_runs = _apply_schedule(name, gains, truth.y, truth.u,
                                               scenario.x0_mean)
            err_x_runs = xh_runs - truth.x[:, 1:n_ok + 1]
            err_d_runs = dh_runs - truth.d[:n_ok]
        else:
            err_x_runs = err_x[np.newaxis]
            err_d_runs = err_d[np.newaxis]
        steady = {}
        # a filter that failed before the tail window has no steady state
        if n_ok > tail.start:
            steady = {
                "px_diag": px_diag[tail].mean(axis=0),
                "pd_diag": pd_diag[tail].mean(axis=0) if model.p else np.zeros(0),
                "tr_px": float(px_diag[tail].sum(axis=1).mean()),
                "tr_pd": float(pd_diag[tail].sum(axis=1).mean()) if model.p else 0.0,
                "rms_err_x": np.sqrt((err_x[tail] ** 2).mean(axis=0)),
                "rms_err_d": (np.sqrt((err_d[tail] ** 2).mean(axis=0))
                              if model.p else np.zeros(0)),
            }
        filters[name] = FilterRun(
            name=name, xhat=xhat, dhat=dhat, px_diag=px_diag, pd_diag=pd_diag,
            tr_px=px_diag.sum(axis=1), tr_pd=pd_diag.sum(axis=1),
            err_x=err_x, err_d=err_d, err_x_runs=err_x_runs, err_d_runs=err_d_runs,
            steady=steady, max_unbiasedness=unb, seconds_per_step=secs,
            gain_l_series=l_series, error=error, failed_at=failed_at,
        )
    return RunResult(scenario=scenario, structural=structural, truth=truth0,
                     filters=filters)


class FilterFailure(LiseError):
    """A filter hit an estimability/numerical error mid-run; message names the step."""

    def __init__(self, filter_name: str, message: str):
        self.filter_name = filter_name
        super().__init__(f"{filter_name}: {message}")


def empirical_error_covariance(run: FilterRun, k: int, which: str = "x") -> np.ndarray:
    """Unbiased sample covariance of the estimation error at time k across runs.

    ``which`` selects the state error (``"x"``, at k given k) or the
    unknown-input error (``"d"``, the delayed estimate of d at time k).
    """
    errs = run.err_x_runs if which == "x" else run.err_d_runs
    m = errs.shape[0]
    if m < 2:
        raise InvalidInputError("empirical covariance needs at least 2 runs")
    idx = k - 1 if which == "x" else k
    if not (0 <= idx < errs.shape[1]):
        raise InvalidInputError(f"time index {k} outside the recorded series")
    sample = errs[:, idx, :]
    centered = sample - sample.mean(axis=0)
    return centered.T @ centered / (m - 1)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _atomic_write(path, text: str):
    import os
    import tempfile
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_step_csv(result: RunResult, path) -> None:
    """One row per step per filter; the ``dhat`` columns hold the delayed
    estimate of ``d[k-1]``.  A filter that failed mid-run contributes its
    partial rows plus one error row."""
    model = result.scenario.model
    cols = (["k", "filter"]
            + [f"xhat_{i + 1}" for i in range(model.n)]
            + [f"dhat_{i + 1}" for i in range(model.p)]
            + ["tr_px", "tr_pd", "err_x_norm", "err_d_norm"])
    lines = [",".join(cols)]
    for name in result.scenario.filters:
        fr = result.filters[name]
        for i in range(fr.xhat.shape[0]):
            row = ([str(i + 1), name]
                   + [_fmt(v) for v in fr.xhat[i]]
                   + [_fmt(v) for v in fr.dhat[i]]
                   + [_fmt(fr.tr_px[i]), _fmt(fr.tr_pd[i] if model.p else 0.0),
                      _fmt(float(np.linalg.norm(fr.err_x[i]))),
                      _fmt(float(np.linalg.norm(fr.err_d[i])) if model.p else 0.0)])
            lines.append(",".join(row))
        if fr.error is not None:
            msg = fr.error.replace(",", ";")
            row = ([str(fr.failed_at), f"{name}:ERROR:{msg}"]
                   + [""] * (model.n + model.p + 4))
            lines.append(",".join(row))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_summary_csv(result: RunResult, path) -> None:
    """Steady-state covariance diagonals per filter (plus traces)."""
    model = result.scenario.model
    cols = (["filter"]
            + [f"px_{i + 1}{i + 1}" for i in range(model.n)]
            + [f"pd_{i + 1}{i + 1}" for i in range(model.p)]
            + ["tr_px", "tr_pd"])
    lines = [",".join(cols)]
    for name in result.scenario.filters:
        fr = result.filters[name]
        if not fr.steady:
            lines.append(",".join([name] + [""] * (model.n + model.p + 2)))
            continue
        row = ([name]
               + [_fmt(v) for v in fr.steady["px_diag"]]
               + [_fmt(v) for v in fr.steady["pd_diag"]]
               + [_fmt(fr.steady["tr_px"]), _fmt(fr.steady["tr_pd"])])
        lines.append(",".join(row))
    _atomic_write(path, "\n".join(lines) + "\n")
