"""Scenario simulation: seeded ground truth, filter runs, and metrics.

Ground truth is generated with a counter-based Philox (4x64) bit generator;
run ``r`` of a scenario draws from the stream keyed ``(seed, r)``, so runs
are reproducible individually.  All runs of a Monte-Carlo batch are
simulated at once: each run's noise comes from its own stream, the model
step is fetched once per time index, and the states of all runs are
propagated as one (M, n) array, bitwise equal to simulating each run on its
own.  Gaussian noise uses the symmetric square-root factors of Q and R that
the step's context keeps (:class:`lise.decomposition.StepContext`), which
judged the step as the filters judge it.  Each run's work outside the state
recursion (its noise draws and its products with the noise factors and with
C) releases the GIL and runs in contiguous blocks of runs, one per CPU the
process may run on (:func:`lise.linalg._in_blocks`): the calling thread takes
the first block and runs the recursion over all runs.  Each run keeps its
own BLAS calls, so the truth is bitwise the same whatever the CPU count.

Filter gains and covariances do not depend on the data, so a Monte-Carlo
batch runs the full step functions once, over run 0 (which also yields the
reported covariance series, run 0's estimates and the gain schedule), and
then replays the schedule over the measurements of runs 1..M-1 alone: each
run's estimates are computed once.  With its gains fixed, one step's
estimate update is a linear map of the previous state and feedthrough-input
estimates and of the step's measurement and known inputs.  The replay takes
the matrix of that map for each distinct gain record from the estimate
update the step functions share, run on the columns of the identity, so the
estimate recursion is written once.  The replayed runs lie on the last axis
of a buffer of a few dozen steps, each step a contiguous block of its data
and of the previous estimates, so each replayed step is one matrix product
over those runs that writes the new estimates straight into the next step's
block; the buffer is filled with the data and emptied into the outputs once
per chunk of steps.

On a time-invariant model the floating-point gain recursion of every filter
settles into a covariance state that repeats bit for bit, either a fixed
point or a short cycle.  The pass keys every step by the exact bytes of
that state and maps each key to the step that first produced it, so the
first repeat is seen at the step where it occurs, with the cycle's minimal
period; the map is dropped when the pass returns.  From that step on the
pass stops calling the step function, and each later step reuses the gain
record (:class:`filters._StepGains`) and covariances of the step one period
earlier and runs only the estimate update the step functions share, on that
record; the update's products of the data alone are formed for all served
steps at once.  No tolerance is involved, so every output is bitwise what
stepping the filter at every k gives; :attr:`FilterRun.gain_cycle` says from
which step the cycle is served.
Time-varying models step at every k.  :func:`run_scenario` asks a
time-varying model's provider once per k, whatever the number of filters:
validation, the truth and every pass share each step object, and with it the
step's context and decomposition.  The pass knows no filter by name: the
Kalman filter (``KALMAN``) is ULISE's recursion on a model with p = 0, whose
steps form no product of an empty input component
(:mod:`lise.filters`), and a replayed update whose input estimates no
stacked gain reaches holds them once for its whole group of records.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .decomposition import _step_context
from .errors import InvalidInputError, LiseError
from .filters import (
    GammaPolicy,
    _checked_context,
    _data_products,
    _estimate_update,
    _feedthrough_input,
    _gain_key,
    _nonfinite_error,
    _StepGains,
    cywz_init,
    cywz_step,
    plise_init,
    plise_step,
    ulise_init,
    ulise_step,
)
from .linalg import _in_blocks
from .model import SystemModel, validate
from .signals import Samples, _is_integer, _is_real, sample_signals
from .structural import StructuralReport, analyze, strong_detectability

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

# the fewest run-steps (runs times horizon + 1) of a block of the truth's
# per-run work: two blocks of fewer ran no faster than one, as the cost of
# starting and joining a thread outweighed the work moved onto it
_BLOCK_RUN_STEPS = 8192


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
        for name in ("horizon", "monte_carlo"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise InvalidInputError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise InvalidInputError(f"{name} must be >= 1")
        if not _is_integer(self.noise_seed) or self.noise_seed < 0:
            raise InvalidInputError(f"seed must be a nonnegative integer, got {self.noise_seed!r}")
        n = self.model.n
        for name, value, shape in (("x0_true", self.x0_true, (n,)),
                                   ("x0_mean", self.x0_mean, (n,)), ("P0", self.p0, (n, n))):
            if value.shape != shape:
                raise InvalidInputError(f"{name} must have shape {shape}, got {value.shape}")
            if not np.isfinite(value).all():
                raise InvalidInputError(f"{name} has non-finite entries")
        if len(self.d_signals) != self.model.p:
            raise InvalidInputError(
                f"need {self.model.p} unknown-input signals, got {len(self.d_signals)}")
        if len(self.u_signals) != self.model.m:
            raise InvalidInputError(
                f"need {self.model.m} known-input signals, got {len(self.u_signals)}")
        if not self.filters:
            raise InvalidInputError("at least one filter must be requested")
        for i, name in enumerate(self.filters):
            if name not in FILTER_NAMES:
                raise InvalidInputError(f"unknown filter {name!r}; choose from {FILTER_NAMES}")
            if name in self.filters[:i]:
                raise InvalidInputError(f"filter {name!r} is requested more than once")
            if name == "KALMAN" and self.model.p:
                raise InvalidInputError(
                    f"filter 'KALMAN' applies only to models with p = 0, got p = {self.model.p}")
        window = self.steady_window
        if not _is_real(window):
            raise InvalidInputError(f"steady_window must be a real number, got {window!r}")
        if not (0.0 < window <= 1.0):
            raise InvalidInputError("steady_window must lie in (0, 1]")
        if not isinstance(self.structural_checks, bool):
            raise InvalidInputError(
                f"structural_checks must be true or false, got {self.structural_checks!r}")


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


def _gemv(mat: np.ndarray, vecs: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``mat @ v`` for every vector ``v`` along the last axis of ``vecs``,
    into ``out`` when given.

    ``mat`` is one matrix or a stack of them broadcast against ``vecs``.
    Each product is a separate gemv, the same BLAS path as ``mat @ v`` on a
    single vector, so batches reproduce one-run arithmetic bit for bit
    (``vecs @ mat.T`` is a gemm and may round differently).
    """
    return np.matmul(mat, vecs[..., None], out=None if out is None else out[..., None])[..., 0]


def _check_sample_lengths(scenario: Scenario) -> None:
    """Every explicit sample sequence must cover steps 0..horizon."""
    need = scenario.horizon + 1
    for group in ("d_signals", "u_signals"):
        for i, spec in enumerate(getattr(scenario, group)):
            if isinstance(spec, Samples) and len(spec.values) < need:
                raise InvalidInputError(
                    f"{group}[{i}] has {len(spec.values)} samples, but horizon "
                    f"{scenario.horizon} needs {need} (k = 0..{scenario.horizon})")


def simulate_truth(scenario: Scenario, run_index: int | Sequence[int] = 0) -> TruthTrajectories:
    """Simulate seeded runs of the model under the scenario's signals.

    An integer ``run_index`` gives one run, with ``x`` (N+1, n) and ``y``
    (N+1, l).  A sequence of run indices gives the batch, with a leading run
    axis on ``x`` and ``y``; ``d`` and ``u`` are shared by all runs.  Every
    run is bitwise identical to simulating it on its own, and identical
    (seed, run_index) pairs produce bitwise-identical trajectories.  Each
    run's noise draws and its products with the noise factors and with C
    run in contiguous blocks of runs, one per CPU the process may run on;
    the calling thread takes the first block, and a batch too small to
    split, a single run always, starts no thread.  Each run keeps its own
    BLAS calls, so the result is bitwise independent of the CPU count.  A
    run index that is not an integer (a ``bool`` included) and a ``Samples``
    signal with fewer than ``horizon + 1`` values raise
    :class:`InvalidInputError`, the latter rather than being read as zero
    past its end.  Each step is judged by its context, as the filters judge
    it: a step with a non-finite matrix, an asymmetric Q or R, a Q that is
    not PSD or an R that is not PD raises the filters' error
    (:class:`InvalidInputError` or :class:`NotPositiveDefiniteError`),
    naming the matrix and its k.
    """
    _check_sample_lengths(scenario)
    single = not isinstance(run_index, Iterable)
    runs = [run_index] if single else list(run_index)
    for r in runs:
        if not _is_integer(r):
            raise InvalidInputError(
                f"run_index must be an integer or a sequence of integers, got {r!r}")
    model = scenario.model
    n_steps = scenario.horizon
    d = sample_signals(scenario.d_signals, n_steps + 1)
    u = sample_signals(scenario.u_signals, n_steps + 1)

    # each model matrix and noise factor as a series over k = 0..N, fetched
    # once per k.  The factors of Q and R are those of the steps' contexts,
    # built along the chain of steps as a filter builds them, so each is
    # formed once per change.  A time-varying step is copied into the
    # preallocated series and dropped once the next step's context is built
    def mats(k, prev=None):
        step = model.step(k)
        f = _checked_context(_step_context, step, k, prev).factors
        return step, (step.A, step.B, step.G, f["Q"], step.C, step.D, step.H, f["R"])

    if model.is_time_invariant:
        series = [np.broadcast_to(mat, (n_steps + 1,) + mat.shape) for mat in mats(0)[1]]
    else:
        series, step = [], None
        for k in range(n_steps + 1):
            step, row = mats(k, step)
            for i, mat in enumerate(row):
                if k == 0:
                    series.append(np.empty((n_steps + 1,) + mat.shape))
                series[i][k] = mat
    a, b, g, fq, c, dm, h, fr = series

    # only A x[k] depends on the recursion; every other term is formed for
    # all k at once.  The sums keep the one-run order (A x + B u + G d +
    # noise, C x + D u + H d + noise) so that rounding matches bit for bit.
    # The work of each run apart from the recursion, its standard-normal
    # draws (process noise into w[r], then measurement noise into y[r]) and
    # its products with fq, C and fr, releases the GIL and runs in blocks of
    # runs, one per CPU, into arrays allocated here; the recursion runs here
    # over all runs
    n_runs = len(runs)
    min_block = -(-_BLOCK_RUN_STEPS // (n_steps + 1))
    x = np.empty((n_runs, n_steps + 1, model.n))
    y = np.empty((n_runs, n_steps + 1, model.l))
    w = np.empty((n_runs, n_steps, model.n))
    x[:, 0] = scenario.x0_true

    def noise(lo, hi):
        for i in range(lo, hi):
            rng = _run_rng(scenario.noise_seed, runs[i])
            rng.standard_normal(out=w[i])
            rng.standard_normal(out=y[i])
        _gemv(fq[:n_steps], w[lo:hi], out=x[lo:hi, 1:])

    _in_blocks(noise, n_runs, min_block)
    del w
    bu = _gemv(b, u)
    gd = _gemv(g, d)
    for k in range(n_steps):
        x[:, k + 1] = _gemv(a[k], x[:, k]) + bu[k] + gd[k] + x[:, k + 1]
    du = _gemv(dm, u)
    hd = _gemv(h, d)
    fv = np.empty_like(y)

    def outputs(lo, hi):
        _gemv(fr, y[lo:hi], out=fv[lo:hi])
        out = _gemv(c, x[lo:hi], out=y[lo:hi])
        out += du
        out += hd
        out += fv[lo:hi]

    _in_blocks(outputs, n_runs, min_block)
    if single:
        return TruthTrajectories(x=x[0], y=y[0], d=d, u=u)
    return TruthTrajectories(x=x, y=y, d=d, u=u)


@dataclass
class FilterRun:
    """Time series and summaries of one filter over a scenario.

    ``xhat[i]`` is the filtered state after consuming measurement ``k = i+1``;
    ``dhat[i]`` is the (one-step delayed) estimate of the unknown input at
    time ``i``.  ``*_runs`` arrays hold the errors of every Monte-Carlo run,
    (M, N, .); their row 0 is run 0's, which ``err_x`` and ``err_d`` are
    views of: those of the pass, never replayed.
    Every field is a function of the scenario alone: two runs of one
    scenario give equal records, down to the bytes.  ``gain_cycle`` is ``(k,
    period)`` when the pass found the filter's covariance state before
    measurement ``k`` bitwise equal to the one ``period`` steps earlier and
    served steps ``k`` on from the cycle: from step ``k`` on, every gain and
    covariance repeats the one ``period`` steps earlier.  ``k`` is the first
    step whose state repeats an earlier one, and ``period`` is the cycle's
    minimal period.  It is ``None`` when no repeat was found within the
    horizon, and always for time-varying models.  ``error`` is ``None``
    unless the pass failed, and then starts with ``step k:``, ``k`` being
    ``failed_at``, the step whose error it reports: one that raised, or the
    first whose estimates are not finite.
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
    gain_l_series: list
    error: Optional[str] = None
    failed_at: Optional[int] = None
    gain_cycle: Optional[tuple[int, int]] = None


@dataclass
class RunResult:
    scenario: Scenario
    structural: Optional[StructuralReport]
    truth: TruthTrajectories
    filters: dict

    @property
    def failed(self) -> list:
        return [f for f in self.filters.values() if f.error is not None]


# Keep these flat module-level dicts whose values are the public *_init and
# *_step functions: perfbench/spans.py's tracer rebinds dict values and
# module globals, and so traces a call through either.  KALMAN is ULISE's
# recursion, which Scenario admits under that name on a model with p = 0
# only.
_INITS = {"ULISE": ulise_init, "PLISE": plise_init, "CYWZ": cywz_init, "KALMAN": ulise_init}
_STEPS = {"ULISE": ulise_step, "PLISE": plise_step, "CYWZ": cywz_step, "KALMAN": ulise_step}


def _full_pass(name: str, scenario: Scenario, truth: TruthTrajectories):
    """Run the real step functions over run-0 data; collect series and gains.

    Each step's gain record is the one its :class:`filters.StepOutput`
    keeps, so the pass asks the model for no step of its own: the step
    functions fetch each ``model.step(k)`` once.

    A pass whose estimates turn non-finite fails at the first such step
    (:func:`_first_nonfinite_estimate`), as when that step had raised.

    On a time-invariant model, the steps are keyed by the bytes of the
    filter state the gain half reads (``filters._gain_key``), and each key
    is mapped to the first step it was seen at.  Once a key repeats, the
    gain half of every later step is a bitwise repeat of the one a period
    earlier, so the step function is no longer called: :func:`_serve_cycle`
    serves the remaining steps.
    """
    model = scenario.model
    n_steps = scenario.horizon
    ys, us = truth.y, truth.u
    state = _INITS[name](model, scenario.x0_mean, scenario.p0, ys[0], us[0])
    xhat = np.zeros((n_steps, model.n))
    dhat = np.zeros((n_steps, model.p))
    px_diag = np.zeros((n_steps, model.n))
    pd_diag = np.zeros((n_steps, model.p))
    gains: list[_StepGains] = []
    unb = {"m1_sigma": 0.0, "m2_c2g2": 0.0, "l_u1": 0.0}
    error = failed_at = cycle = None
    first_seen: Optional[dict[bytes, int]] = {} if model.is_time_invariant else None
    for k in range(1, n_steps + 1):
        if first_seen is not None:
            first = first_seen.setdefault(_gain_key(state), k)
            if first != k:
                cycle = (k, k - first)
                break
        i = k - 1
        try:
            state, out = _STEPS[name](state, ys[k], us[k], us[k - 1], model,
                                      scenario.gamma)
        except LiseError as exc:
            error = f"step {k}: {exc}"
            failed_at = k
            break
        xhat[i] = out.xhat
        dhat[i] = out.dhat_prev
        px_diag[i] = np.diag(out.px)
        pd_diag[i] = np.diag(out.pd_prev)
        for key in unb:
            unb[key] = max(unb[key], out.unbiasedness[key])
        gains.append(out.gains)
    if cycle is not None:
        try:
            _serve_cycle(cycle, state, ys, us, gains, xhat, dhat, px_diag, pd_diag)
        except LiseError as exc:
            failed_at = len(gains) + 1
            error = f"step {failed_at}: {exc}"
    bad = _first_nonfinite_estimate(xhat[:len(gains)], dhat[:len(gains)])
    if bad is not None:
        failed_at, error = bad
        del gains[failed_at - 1:]
        if cycle is not None and cycle[0] > failed_at:
            cycle = None
    if failed_at is not None:
        xhat, dhat = xhat[:failed_at - 1], dhat[:failed_at - 1]
        px_diag, pd_diag = px_diag[:failed_at - 1], pd_diag[:failed_at - 1]
    return xhat, dhat, px_diag, pd_diag, gains, unb, error, failed_at, cycle


def _first_nonfinite_estimate(xhat: np.ndarray, dhat: np.ndarray):
    """``(k, error)`` of the first step whose row of ``xhat`` or ``dhat``
    has a non-finite entry, the error giving both estimates of that step, or
    ``None`` when every entry is finite.

    One scan over the whole series: a step checks its data and its gains,
    never its estimates, which overflow from a finite prior mean or finite
    data too large for the recursion (the init's estimate of the
    feedthrough input enters ``dhat`` at step 1).
    """
    bad = np.flatnonzero(~(np.isfinite(xhat).all(axis=1) & np.isfinite(dhat).all(axis=1)))
    if not bad.size:
        return None
    i = int(bad[0])
    return i + 1, f"step {i + 1}: non-finite estimate: xhat = {xhat[i]} and dhat = {dhat[i]}"


def _serve_cycle(cycle, state, ys, us, gains, xhat, dhat, px_diag, pd_diag):
    """Serve the steps from ``cycle = (k, period)`` on by the estimate update
    alone, appending to the pass's series in place.

    Each step reuses the gain record and covariance diagonals of the step one
    period earlier.  A cycle is served only on a time-invariant model, so
    every record shares the model step and decomposition of ``state``: the
    data-only products of the estimate update (:func:`filters._data_products`)
    are formed for the whole range at once by :func:`_gemv` with the last
    record, bitwise as each step would form them, and each step runs
    :func:`filters._estimate_update` on its row of them with its reused
    record.  One scan checks the inputs of all these steps first.  The first
    step with a non-finite ``y``, ``u`` or ``u_prev`` is not served: it
    raises the :class:`InvalidInputError` the step function would raise,
    naming the inputs in that order.
    """
    start, period = cycle
    n_steps = xhat.shape[0]
    u_ok = np.isfinite(us[start - 1:n_steps + 1]).all(axis=1)
    ok = np.stack([np.isfinite(ys[start:n_steps + 1]).all(axis=1), u_ok[1:], u_ok[:-1]])
    bad = np.flatnonzero(~ok.all(axis=0))
    stop = start + int(bad[0]) if bad.size else n_steps + 1
    products = _data_products(ys[start:stop], us[start:stop], us[start - 1:stop - 1],
                              gains[-1], mul=_gemv)
    x, d1 = state.xhat, state.d1hat
    for j, row in enumerate(zip(*products)):
        k = start + j
        i = k - 1
        g = gains[i - period]
        x, d1, dhat[i], _ = _estimate_update(x, d1, ys[k], row, g)
        xhat[i] = x
        px_diag[i] = px_diag[i - period]
        pd_diag[i] = pd_diag[i - period]
        gains.append(g)
    if bad.size:
        raise _nonfinite_error(("y", "u", "u_prev")[int(np.argmin(ok[:, bad[0]]))], stop)


# Steps per chunk of the replay buffer, which holds _CHUNK + 1 steps of rows =
# l + 2 m + n + p_h + p values per run: 8 (_CHUNK + 1) rows M bytes, 0.57 MB
# for fault_h1 at M = 128 (rows = 17), 7 % of the outputs it fills at N = 1000.
_CHUNK = 32


class _Stacked:
    """Reads attribute ``a`` as ``np.stack([o.a for o in objs])``."""

    def __init__(self, objs):
        self._objs = objs

    def __getattr__(self, name):
        return np.stack([getattr(o, name) for o in self._objs])


def _shared(objs):
    """``objs[0]`` when every one of ``objs`` is that object, else a
    :class:`_Stacked` of them."""
    first = objs[0]
    return first if all(o is first for o in objs) else _Stacked(objs)


def _update_maps(gains: Sequence[_StepGains]) -> list[np.ndarray]:
    """The estimate update of every step of ``gains`` as one matrix.

    The update is linear in ``v = [y; u; u_prev; x; d1]`` (``d1`` of the
    previous step's feedthrough rank).  :func:`filters._estimate_update` is
    run once per group of distinct records with equal feedthrough ranks, on
    the columns of the identity, with one :class:`filters._StepGains` for the
    whole group: ``m2``, ``m2_state`` and ``gain_l`` are stacked along a
    leading axis, one slice per record; a model step or decomposition that
    the whole group shares (every step of a time-invariant model) enters
    once, and only those that differ (a time-varying model's) are stacked
    too.  Returns, for step ``i``, the C-contiguous matrix ``F`` with
    ``[xhat; d1hat; dhat_prev] = F v``; steps that share a record share its
    matrix.
    """
    groups: dict[tuple, list[_StepGains]] = {}
    for g in {id(g): g for g in gains}.values():
        groups.setdefault((g.dec_prev.p_h, g.dec.p_h, g.from_propagated), []).append(g)
    maps = {}
    for group in groups.values():
        g0 = group[0]
        sizes = [g0.step.l, g0.step.m, g0.step.m, g0.step.n, g0.dec_prev.p_h]
        y, u, u_prev, x, d1 = np.split(np.eye(sum(sizes)), np.cumsum(sizes)[:-1])
        context = {name: _shared([getattr(g, name) for g in group])
                   for name in ("step_prev", "step", "dec_prev", "dec")}
        stacked = {name: np.stack([getattr(g, name) for g in group])
                   for name in ("m2", "m2_state", "gain_l")}
        record = _StepGains(**context, **stacked, from_propagated=g0.from_propagated)
        parts = _estimate_update(x, d1, y, _data_products(y, u, u_prev, record), record)[:3]
        # a part that no stacked gain reaches (the input estimates, when the
        # update forms no product of an empty input component) is one matrix
        # for the whole group
        parts = [np.broadcast_to(a, (len(group),) + a.shape[-2:]) for a in parts]
        for g, f in zip(group, np.concatenate(parts, axis=1)):
            maps[id(g)] = f
    return [maps[id(g)] for g in gains]


def _apply_schedule(gains: Sequence[_StepGains], ys: np.ndarray, us: np.ndarray,
                    x0_mean: np.ndarray):
    """Replay precomputed gains over runs 1..M-1 of a batch of measurement
    sequences.

    ``ys`` has shape (M, N+1, l); returns batched estimates (M, N, n) and
    (M, N, p) whose row 0 is left unset: run 0's estimates are the filter
    pass's, which the caller writes there.  The covariance side is
    untouched (it is data-independent).
    Each distinct gain record (the gain cycle shares them by identity) is
    turned into the matrix ``F`` of its estimate update by
    :func:`_update_maps`, so the estimate recursion stays the one of the
    step functions.  The runs lie on the last axis of a (steps + 1, rows, M)
    buffer whose step ``j`` holds ``[y_k; u_k; u_{k-1}; x; d1]`` of step
    ``k``: each chunk of :data:`_CHUNK` steps is filled with its data once,
    each step is the one product ``F z[j]`` written into the state rows of
    ``z[j + 1]``, and each chunk is emptied into the outputs once.
    """
    runs = ys.shape[0]
    n_steps = len(gains)
    g0 = gains[0]
    n, l, m, p = g0.step.n, g0.step.l, g0.step.m, g0.step.p
    dw = l + 2 * m
    maps = _update_maps(gains)
    chunk = min(_CHUNK, n_steps)
    z = np.empty((chunk + 1, dw + max(f.shape[0] for f in maps), runs - 1))

    # the filter initialisation of runs 1..M-1, on the columns of (n, M - 1)
    # stacks
    dec0 = g0.dec_prev
    x = np.broadcast_to(x0_mean, (runs - 1, n))
    z[0, dw:dw + n] = x.T
    z[0, dw + n:dw + n + dec0.p_h] = _feedthrough_input(
        dec0, dec0.T1 @ ys[1:, 0].T, x.T, dec0.D1 @ us[0][:, None])
    xh = np.empty((runs, n_steps, n))
    dh = np.empty((runs, n_steps, p))
    for start in range(0, n_steps, chunk):
        part = maps[start:start + chunk]
        c = len(part)
        z[:c, :l] = ys[1:, start + 1:start + c + 1].transpose(1, 2, 0)
        z[:c, l:l + m] = us[start + 1:start + c + 1, :, None]
        z[:c, l + m:dw] = us[start:start + c, :, None]
        for j, f in enumerate(part):
            f.dot(z[j, :f.shape[1]], out=z[j + 1, dw:dw + f.shape[0]])
        xh[1:, start:start + c] = z[1:c + 1, dw:dw + n].transpose(2, 0, 1)
        # dhat_prev is the last p of the n + p_h + p rows a step writes, so it
        # moves with p_h: one copy per run of steps with equal p_h
        j = 0
        for height, run in itertools.groupby(f.shape[0] for f in part):
            b = j + len(list(run))
            dh[1:, start + j:start + b] = z[j + 1:b + 1, dw + height - p:dw + height].transpose(
                2, 0, 1)
            j = b
        z[0, dw:] = z[c, dw:]
    return xh, dh


def _steady_slice(n_steps: int, frac: float) -> slice:
    start = int(np.floor(n_steps * (1.0 - frac)))
    return slice(min(start, n_steps - 1), n_steps)


def run_scenario(scenario: Scenario, raise_filter_errors: bool = True) -> RunResult:
    """Simulate the scenario and run every requested filter on the same data.

    Structural verdicts are computed first (time-invariant models only).
    With ``raise_filter_errors`` unset, a filter that fails an estimability
    or numerical precondition mid-run keeps its partial series and the error
    is recorded on its :class:`FilterRun` instead of raising.  On a
    time-invariant model that is not strongly detectable the error also
    names that cause (the structural report's verdict, or one computed on
    failure when the checks were skipped).  A ``Samples`` signal with fewer
    than ``horizon + 1`` values raises :class:`InvalidInputError`
    (:func:`simulate_truth`'s check).

    A time-varying model is asked for each step k = 0..N once, so a
    provider error or a step of the wrong dims raises at that k before
    anything else runs.  Validation, the truth and every filter pass then
    read that list of step objects, so each step's context (its
    decomposition included) is built once for all the filters.  The list
    lives only for the call, and :attr:`RunResult.scenario` is the given
    scenario.
    """
    given, model = scenario, scenario.model
    if not model.is_time_invariant:
        steps = [model.step(k) for k in range(scenario.horizon + 1)]
        model = SystemModel.time_varying(steps.__getitem__, (model.n, model.m, model.p, model.l),
                                         horizon_hint=scenario.horizon)
        scenario = replace(scenario, model=model)
    violations = validate(model)
    if violations:
        msgs = "; ".join(f"[k={v.index}] {v.field}: {v.message}" for v in violations)
        raise InvalidInputError(f"model violates standing assumptions: {msgs}")
    structural = detectability = None
    if scenario.structural_checks and model.is_time_invariant:
        structural = analyze(model)
        detectability = structural.strongly_detectable

    truth = simulate_truth(scenario, range(scenario.monte_carlo))
    # copies, so that a kept result does not pin the whole batch
    truth0 = TruthTrajectories(x=truth.x[0].copy(), y=truth.y[0].copy(), d=truth.d, u=truth.u)
    n_steps = scenario.horizon
    tail = _steady_slice(n_steps, scenario.steady_window)

    filters: dict[str, FilterRun] = {}
    for name in scenario.filters:
        (xhat, dhat, px_diag, pd_diag, gains, unb,
         error, failed_at, cycle) = _full_pass(name, scenario, truth0)
        if error is not None and model.is_time_invariant:
            if detectability is None:
                detectability = strong_detectability(model.step(0))
            if not detectability.detectable:
                error += ("; model is not strongly detectable (max zero modulus "
                          f"{detectability.max_zero_modulus:.3g})")
        if error is not None and raise_filter_errors:
            raise FilterFailure(name, error)
        n_ok = xhat.shape[0]
        # the errors overwrite the replayed estimates of runs 1..M-1, so the
        # batch holds one (M, N, .) array per series; its row 0 holds the
        # pass's own errors, which are err_x and err_d
        if scenario.monte_carlo > 1 and n_ok:
            err_x_runs, err_d_runs = _apply_schedule(gains, truth.y, truth.u,
                                                     scenario.x0_mean)
            err_x_runs[1:] -= truth.x[1:, 1:n_ok + 1]
            err_d_runs[1:] -= truth.d[:n_ok]
        else:
            err_x_runs = np.empty((1,) + xhat.shape)
            err_d_runs = np.empty((1,) + dhat.shape)
        err_x = np.subtract(xhat, truth0.x[1:n_ok + 1], out=err_x_runs[0])
        err_d = np.subtract(dhat, truth0.d[:n_ok], out=err_d_runs[0])
        steady = {}
        # a filter that failed before the tail window has no steady state
        if n_ok > tail.start:
            steady = {
                "px_diag": px_diag[tail].mean(axis=0),
                "pd_diag": pd_diag[tail].mean(axis=0),
                "tr_px": float(px_diag[tail].sum(axis=1).mean()),
                "tr_pd": float(pd_diag[tail].sum(axis=1).mean()),
                "rms_err_x": np.sqrt((err_x[tail] ** 2).mean(axis=0)),
                "rms_err_d": np.sqrt((err_d[tail] ** 2).mean(axis=0)),
            }
        filters[name] = FilterRun(
            name=name, xhat=xhat, dhat=dhat, px_diag=px_diag, pd_diag=pd_diag,
            tr_px=px_diag.sum(axis=1), tr_pd=pd_diag.sum(axis=1),
            err_x=err_x, err_d=err_d, err_x_runs=err_x_runs, err_d_runs=err_d_runs,
            steady=steady, max_unbiasedness=unb, gain_l_series=[g.gain_l for g in gains],
            error=error, failed_at=failed_at, gain_cycle=cycle,
        )
    return RunResult(scenario=given, structural=structural, truth=truth0,
                     filters=filters)


class FilterFailure(LiseError):
    """A filter hit an estimability/numerical error mid-run; message names the step."""

    def __init__(self, filter_name: str, message: str):
        self.filter_name = filter_name
        super().__init__(f"{filter_name}: {message}")


def empirical_error_covariance(run: FilterRun, k: int, which: str = "x") -> np.ndarray:
    """Unbiased sample covariance of the estimation error at time k across runs.

    ``which`` selects the state error (``"x"``, at k given k) or the
    unknown-input error (``"d"``, the delayed estimate of d at time k); any
    other ``which`` raises :class:`InvalidInputError`.
    """
    if which not in ("x", "d"):
        raise InvalidInputError(f"which must be 'x' or 'd', got {which!r}")
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


def _row_norms(a: np.ndarray) -> np.ndarray:
    """The 2-norm of every row of the 2-D array ``a``, bitwise
    ``linalg._norm`` of each row: each row's sum of squares is the same
    ``ddot``, here as one stacked (1 x n) @ (n x 1) matmul; a zero-width
    ``a`` gives zeros."""
    return np.sqrt(np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0])


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
    # each row is one %-operation; "%.17g" writes a float as _fmt does
    template = "%d,%s," + ",".join(["%.17g"] * (model.n + model.p + 4))
    for name in result.scenario.filters:
        fr = result.filters[name]
        # with p = 0, tr_pd and the err_d norms are sums over no terms: 0.0
        values = np.column_stack([
            fr.xhat, fr.dhat, fr.tr_px, fr.tr_pd,
            _row_norms(fr.err_x), _row_norms(fr.err_d),
        ])
        lines.extend(template % (k, name, *row)
                     for k, row in enumerate(values.tolist(), start=1))
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
