import csv
import dataclasses
import itertools
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lise.linalg
import lise.simulate
from conftest import bits, config_scenario, online_plant, random_system
from oracles import (fault_input_samples, first_repeat_oracle, per_run_truth_oracle,
                     per_step_full_pass_oracle, per_step_replay_oracle,
                     per_value_step_csv)
from lise.cli import main as cli_main
from lise.errors import InvalidInputError, LiseError, NotPositiveDefiniteError
from lise.linalg import DEFAULT_TOL, _norm, symmetrize
from lise.signals import (Constant, Ramp, Samples, SquareWave, Step, sample_signal,
                          sample_signals)
from lise.simulate import (
    _INITS,
    _STEPS,
    FilterFailure,
    _apply_schedule,
    _full_pass,
    _row_norms,
    Scenario,
    TruthTrajectories,
    empirical_error_covariance,
    run_scenario,
    simulate_truth,
    write_step_csv,
    write_summary_csv,
)
from lise.model import SystemModel, SystemStep, validate
from lise.filters import cywz_step, plise_init, plise_step, ulise_init, ulise_step
from lise.structural import analyze, strong_detectability

ROOT = Path(__file__).resolve().parent.parent
CONFIG_NAMES = ("fault_h1", "fault_h2", "fault_h3", "fault_h4", "fault_h5",
                "fault_h6", "vehicle_tracking")


def _same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes.  Unlike ``np.array_equal`` this tells
    -0.0 from +0.0, which ``%.17g`` writes differently into ``steps.csv``."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _zero_noise_model():
    base = config_scenario("fault_h1").model.step(0)
    step = SystemStep(A=base.A, B=base.B, C=base.C, D=base.D, G=base.G, H=base.H,
                      Q=np.zeros((5, 5)), R=1e-12 * np.eye(5))
    return SystemModel.time_invariant(step)


class TestSignals:
    def test_benchmark_fault_signal_values(self):
        d = sample_signals(config_scenario("fault_h1").d_signals, 1001)
        assert d[600, 0] == 1.0
        assert d[600, 1] == pytest.approx(500.0 / 700.0)
        assert d[600, 2] == 3.0
        assert d[499, 0] == 0.0 and d[701, 0] == 0.0
        assert d[99, 1] == 0.0 and d[801, 1] == 0.0

    def test_square_wave_matches_piecewise_definition(self):
        # the generic square wave must reproduce the explicitly written-out
        # on/off intervals, including the sign of every half period; the ramp
        # may differ by one ulp (slope*(k-k_on) vs (k-k_on)/700)
        d = sample_signals(config_scenario("fault_h1").d_signals, 1001)
        ref = fault_input_samples(1001)
        assert np.array_equal(d[:, [0, 2]], ref[:, [0, 2]])
        assert np.allclose(d[:, 1], ref[:, 1], atol=1e-15)

    def test_samples_zero_padded(self):
        s = Samples([1.0, 2.0])
        assert np.array_equal(sample_signal(s, 4), [1.0, 2.0, 0.0, 0.0])

    def test_invalid_window(self):
        with pytest.raises(InvalidInputError):
            SquareWave(amplitude=1.0, half_period=10, k_on=5, k_off=4)

    @pytest.mark.parametrize("half_period", [0, -2])
    def test_square_wave_half_period_is_positive(self, half_period):
        with pytest.raises(InvalidInputError, match="^square wave half_period must be >= 1$"):
            SquareWave(amplitude=1.0, half_period=half_period, k_on=0, k_off=4)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make, field", [
        (lambda v: Step(v, 0, 2), "step amplitude"),
        (lambda v: SquareWave(v, 1, 0, 2), "square wave amplitude"),
        (lambda v: Constant(v), "constant value"),
    ], ids=["step", "square_wave", "constant"])
    def test_a_number_is_finite(self, make, field, value):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(field)} must be finite$"):
            make(value)

    @pytest.mark.parametrize("value", [True, "1", [1.0], np.ones(1)], ids=repr)
    @pytest.mark.parametrize("make, field", [
        (lambda v: Step(v, 0, 2), "step amplitude"),
        (lambda v: Ramp(v, 0, 2), "ramp slope"),
        (lambda v: SquareWave(v, 1, 0, 2), "square wave amplitude"),
        (lambda v: Constant(v), "constant value"),
        (lambda v: Samples([1.0, v]), "sample values[1]"),
    ], ids=["step", "ramp", "square_wave", "constant", "samples"])
    def test_a_number_is_taken_as_given(self, make, field, value):
        # a bool would read as 1, a string as 1.0, a sequence fails only when sampled
        with pytest.raises(InvalidInputError,
                           match=f"^{re.escape(field)} must be a real number, got "):
            make(value)

    @pytest.mark.parametrize("value", [0.5, 3.0, True, "1"], ids=repr)
    @pytest.mark.parametrize("make, field", [
        (lambda v: Step(1.0, v, 4), "signal window k_on"),
        (lambda v: Ramp(1.0, 0, v), "signal window k_off"),
        (lambda v: SquareWave(1.0, v, 0, 4), "square wave half_period"),
    ], ids=["k_on", "k_off", "half_period"])
    def test_a_window_is_an_integer(self, make, field, value):
        # Ramp(1.0, 0.5, 3) would sample a ramp shifted by half a step
        with pytest.raises(InvalidInputError,
                           match=f"^{re.escape(field)} must be an integer, got "):
            make(value)

    def test_numpy_scalars_are_numbers(self):
        assert np.array_equal(sample_signal(Step(np.float64(2.0), np.int64(1), np.int64(2)), 4),
                              [0.0, 2.0, 2.0, 0.0])
        assert Samples(np.array([1, 2])).values == (1.0, 2.0)
        with pytest.raises(InvalidInputError, match="^sample values must be a sequence"):
            Samples(2.0)


class TestSimulateTruth:
    def test_all_zero(self):
        model = _zero_noise_model()
        sc = Scenario(model=model, horizon=20,
                      d_signals=[Constant(0.0)] * 3, u_signals=[Constant(0.0)],
                      x0_true=np.zeros(5), x0_mean=np.zeros(5), p0=np.eye(5),
                      noise_seed=1, filters=("ULISE",), structural_checks=False)
        truth = simulate_truth(sc)
        # only the 1e-12-variance measurement noise remains
        assert np.allclose(truth.x, 0.0, atol=1e-5)
        assert np.allclose(truth.y, 0.0, atol=1e-4)
        assert np.allclose(truth.d, 0.0)

    def test_seeded_repeatability_bitwise(self):
        sc = config_scenario("fault_h1", horizon=50)
        a = simulate_truth(sc)
        b = simulate_truth(sc)
        assert _same_bits(a.x, b.x) and _same_bits(a.y, b.y)

    def test_runs_have_independent_streams(self):
        sc = config_scenario("fault_h1", horizon=50)
        a = simulate_truth(sc, run_index=0)
        b = simulate_truth(sc, run_index=1)
        assert not np.array_equal(a.y, b.y)
        assert np.array_equal(a.d, b.d)   # signals are shared, noise is not


@pytest.mark.parametrize("field, value", [
    ("monte_carlo", 1.5), ("horizon", 10.0), ("monte_carlo", True), ("horizon", "10"),
])
def test_scenario_counts_must_be_integers(field, value):
    with pytest.raises(InvalidInputError, match=f"^{field} must be an integer, got {value!r}$"):
        config_scenario("fault_h1", **{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("noise_seed", True, "seed must be a nonnegative integer, got True"),
    ("structural_checks", "false", "structural_checks must be true or false, got 'false'"),
    ("structural_checks", 1, "structural_checks must be true or false, got 1"),
])
def test_scenario_rejects_mistyped_settings(field, value, message):
    # a bool is no seed, and a string or a number no switch
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        config_scenario("fault_h1", **{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("x0_mean", np.zeros(2), r"x0_mean must have shape \(5,\), got \(2,\)"),
    ("x0_mean", np.full(5, np.nan), "x0_mean has non-finite entries"),
    ("p0", np.eye(4), r"P0 must have shape \(5, 5\), got \(4, 4\)"),
    ("p0", np.full((5, 5), np.inf), "P0 has non-finite entries"),
])
def test_scenario_checks_the_filter_prior(field, value, message):
    with pytest.raises(InvalidInputError, match=message):
        config_scenario("fault_h1", **{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("d_signals", (Constant(0.0),) * 2, "need 3 unknown-input signals, got 2"),
    ("u_signals", (), "need 1 known-input signals, got 0"),
    ("filters", (), "at least one filter must be requested"),
    ("filters", ("ULISE", "KALMAN"),
     "filter 'KALMAN' applies only to models with p = 0, got p = 3"),
])
def test_scenario_rejects_settings_that_do_not_fit(field, value, message):
    # fault_h1 has p = 3 unknown and m = 1 known inputs
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        config_scenario("fault_h1", **{field: value})


def test_steady_window_is_a_constant_of_the_scenario():
    # read as scenario.steady_window (perfbench's covariance check does),
    # but no field: no scenario or config sets it
    assert config_scenario("fault_h1").steady_window == 0.2
    assert "steady_window" not in {f.name for f in dataclasses.fields(Scenario)}


def test_scenario_rejects_a_filter_requested_twice():
    # a repeated name would run the filter twice and keep one of its runs
    with pytest.raises(InvalidInputError, match="^filter 'ULISE' is requested more than once$"):
        config_scenario("fault_h1", filters=("ULISE", "PLISE", "ULISE"))


def _rank_switching_model(rng, ranks=(0, 2)):
    """Time-varying model whose feedthrough rank alternates between
    ``ranks`` every two steps.  With the default, every filter stops at step
    2, where rank(C2 G2) = 1 < 2; with (0, 1) every switch is estimable."""
    steps = [random_system(rng, n=4, l=3, p=2, p_h=p_h).step(0) for p_h in ranks]
    return SystemModel.time_varying(lambda k: steps[(k // 2) % 2], dims=(4, 1, 2, 3))


def _no_input_scenario(horizon, runs):
    """KALMAN and ULISE on fault_h1 with G and H emptied (p = 0)."""
    base = config_scenario("fault_h1", horizon=horizon, monte_carlo=runs,
                           structural_checks=False)
    step = dataclasses.replace(base.model.step(0), G=np.zeros((5, 0)), H=np.zeros((5, 0)))
    return dataclasses.replace(base, model=SystemModel.time_invariant(step), d_signals=(),
                               filters=("KALMAN", "ULISE"))


def _switching_scenario(horizon, runs):
    """ULISE, PLISE and CYWZ on the rank-(0, 1) switching model."""
    return Scenario(model=_rank_switching_model(np.random.default_rng(8), (0, 1)),
                    horizon=horizon, d_signals=[SquareWave(1.5, 2, 1, horizon)] * 2,
                    u_signals=[Ramp(0.3, 0, horizon)], x0_true=np.ones(4),
                    x0_mean=np.zeros(4), p0=np.eye(4), noise_seed=9, monte_carlo=runs,
                    filters=("ULISE", "PLISE", "CYWZ"), structural_checks=False)


def test_time_varying_truth_holds_one_step_at_a_time():
    # the online plant's 1000 steps take about 3.4 MB when all are held at
    # once; read one at a time into the series, the peak stays near the
    # series themselves (1.1 MB) and the 112 KB of output
    _, sc = online_plant(1000)
    simulate_truth(sc, 0)
    tracemalloc.start()
    try:
        truth = simulate_truth(sc, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert truth.x.shape == (1001, 5)
    assert peak < 2_000_000, peak


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(1, 9), st.integers(1, 12), st.booleans(),
       st.sampled_from([1, 2, 3]))
def test_batched_truth_equals_per_run_loop_bitwise(seed, runs, horizon, varying, cpus):
    # blocks of at least two runs on 1, 2 or 3 CPUs: one to three blocks
    with mock.patch("lise.linalg._cpu_count", lambda: cpus), \
            mock.patch("lise.simulate._BLOCK_RUN_STEPS", 2 * (horizon + 1)):
        _check_batched_truth(seed, runs, horizon, varying)


def _check_batched_truth(seed, runs, horizon, varying):
    rng = np.random.default_rng(seed)
    if varying:
        model = _rank_switching_model(rng)
    else:
        n = int(rng.integers(1, 6))
        l = int(rng.integers(1, n + 1))
        p = int(rng.integers(0, l + 1))
        model = random_system(rng, n=n, l=l, p=p, p_h=int(rng.integers(0, p + 1)))
    sc = Scenario(model=model, horizon=horizon,
                  d_signals=[SquareWave(1.5, 2, 1, horizon)] * model.p,
                  u_signals=[Ramp(0.3, 0, horizon)] * model.m,
                  x0_true=rng.standard_normal(model.n), x0_mean=np.zeros(model.n),
                  p0=np.eye(model.n), noise_seed=int(rng.integers(2 ** 63)),
                  filters=("ULISE",), structural_checks=False)
    batch = simulate_truth(sc, range(runs))
    assert batch.x.shape == (runs, horizon + 1, model.n)
    assert batch.y.shape == (runs, horizon + 1, model.l)
    for r in range(runs):
        x, y, d, u = per_run_truth_oracle(sc, r)
        single = simulate_truth(sc, r)
        assert _same_bits(batch.x[r], x) and _same_bits(batch.y[r], y)
        assert _same_bits(single.x, x) and _same_bits(single.y, y)
        for got in (batch, single):
            assert _same_bits(got.d, d) and _same_bits(got.u, u)


def _noise_candidates(m):
    """Three variants of a noise covariance: itself, doubled, and itself
    with every zero entry written as -0.0 (bitwise different, equal in
    value)."""
    return (m, 2.0 * m, np.where(m == 0.0, -0.0, m))


def _noise_switching_scenario(q_schedule, r_schedule, runs=1):
    """fault_h1 with Q and R taken at each k from the variants of
    :func:`_noise_candidates` that the schedules name; the provider copies
    them into fresh arrays at every k."""
    base = config_scenario("fault_h1").model.step(0)
    qs, rs = _noise_candidates(base.Q), _noise_candidates(base.R)

    def provider(k):
        return dataclasses.replace(base, Q=np.array(qs[q_schedule[k]]),
                                   R=np.array(rs[r_schedule[k]]))

    model = SystemModel.time_varying(provider, dims=(base.n, base.m, base.p, base.l))
    return config_scenario("fault_h1", model=model, horizon=len(q_schedule) - 1,
                           monte_carlo=runs, structural_checks=False)


def _assert_truth_matches_per_run_oracle(q_schedule, r_schedule):
    # each of Q and R is factored (by the step contexts) at k = 0 and at
    # every k where the schedule switches to another variant, and at no
    # other k
    switches = sum(a != b for sched in (q_schedule, r_schedule)
                   for a, b in zip(sched, sched[1:]))
    for runs in (1, 3):
        sc = _noise_switching_scenario(q_schedule, r_schedule, runs)
        with mock.patch.object(lise.decomposition, "_noise_factor",
                               wraps=lise.decomposition._noise_factor) as f:
            batch = simulate_truth(sc, range(runs))
        assert f.call_count == 2 + switches
        for r in range(runs):
            x, y, _, _ = per_run_truth_oracle(sc, r)
            assert _same_bits(batch.x[r], x) and _same_bits(batch.y[r], y)


@pytest.mark.parametrize("q_schedule, r_schedule", [
    ([0] * 6, [1] * 6),                                   # repeats only
    ([0, 0, 1, 1, 0, 0, 1], [1, 1, 0, 0, 0, 1, 1]),       # A-B-A
    ([0, 1, 2, 1, 0, 2, 0, 1], [2, 0, 1, 0, 2, 1, 2, 0]),  # a change at every k
    ([0, 2, 0, 2, 2, 0], [2, 0, 2, 0, 0, 2]),             # +0.0 against -0.0
], ids=["repeats", "a-b-a", "every-k", "zero-sign"])
def test_truth_with_switching_noise_equals_per_run_loop_bitwise(q_schedule, r_schedule):
    _assert_truth_matches_per_run_oracle(q_schedule, r_schedule)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_truth_with_drawn_noise_schedules_equals_per_run_loop_bitwise(data):
    n = data.draw(st.integers(2, 12))
    q_schedule = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    r_schedule = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    _assert_truth_matches_per_run_oracle(q_schedule, r_schedule)


@pytest.mark.parametrize("copies", [False, True], ids=["shared", "copied"])
def test_truth_factors_each_distinct_noise_matrix_once(monkeypatch, copies):
    # the online plant's Q and R never change, so one factor of each serves
    # its 1,001 steps, also when the provider copies them at every k
    plant, sc = online_plant(1000)
    s = plant.step(0)
    if copies:
        model = SystemModel.time_varying(
            lambda k: dataclasses.replace(plant.step(k), Q=np.array(s.Q), R=np.array(s.R)),
            dims=(s.n, s.m, s.p, s.l))
        sc = dataclasses.replace(sc, model=model)
    real = lise.decomposition._noise_factor
    factored = []

    def counting(a, name):
        factored.append(a.tobytes())
        return real(a, name)

    monkeypatch.setattr(lise.decomposition, "_noise_factor", counting)
    simulate_truth(sc, 0)
    assert factored == [s.Q.tobytes(), s.R.tobytes()]


def test_truth_and_validate_form_no_decoupled_dynamics(monkeypatch):
    # both read only the step contexts' verdicts and noise factors, so the
    # contexts' (Ahat, Qhat), built on first use, is never formed
    model, sc = online_plant(1000)
    calls = []
    real = lise.decomposition.decoupled_dynamics

    def counted(step, dec):
        calls.append(step)
        return real(step, dec)

    monkeypatch.setattr(lise.decomposition, "decoupled_dynamics", counted)
    assert validate(model) == []
    simulate_truth(sc, 0)
    assert len(calls) == 0


@pytest.mark.parametrize("name, message", [
    ("Q", r"Q not PSD \(min eigenvalue -1.000e\+00\)"),
    ("R", "measurement covariance R is not PD")], ids=["Q", "R"])
def test_truth_names_the_noise_matrix_and_step_it_cannot_factor(name, message):
    # the filters' error, as the truth judges each step by its context
    model, _ = online_plant(400)
    bad = -np.eye(5)

    def provider(k):
        step = model.step(k)
        return dataclasses.replace(step, **{name: bad}) if k >= 300 else step

    tv = SystemModel.time_varying(provider, dims=(5, 1, 3, 5))
    sc = config_scenario("fault_h1", model=tv, horizon=400, structural_checks=False)
    with pytest.raises(NotPositiveDefiniteError, match=f"^{message} at k=300$"):
        simulate_truth(sc, range(2))


@pytest.mark.parametrize("run_index", [True, False, [0, True], (2, 1.0)])
def test_truth_rejects_a_run_index_that_is_not_an_integer(run_index):
    sc = config_scenario("fault_h1", horizon=5)
    bad = run_index if isinstance(run_index, (bool, float)) else run_index[-1]
    with pytest.raises(InvalidInputError, match=re.escape(f"got {bad!r}")):
        simulate_truth(sc, run_index)


def test_process_noise_with_rounding_below_zero_at_its_scale_runs():
    # an eigenvalue of -1e-8 next to 1e4 is rounding at Q's scale: validate
    # accepts it, and the truth clamps it instead of rejecting Q
    base = config_scenario("fault_h1").model.step(0)
    step = dataclasses.replace(base, Q=np.diag([1e4, 1.0, 1.0, 1.0, -1e-8]))
    model = SystemModel.time_invariant(step)
    assert validate(model) == []
    sc = config_scenario("fault_h1", model=model, horizon=20, structural_checks=False)
    result = run_scenario(sc)
    assert all(fr.error is None for fr in result.filters.values())


class TestThreads:
    """The truth's blocks (``linalg._in_blocks``) leave no thread behind,
    start none for one block, and pass a block's error to the caller; the
    structural analysis starts none."""

    @staticmethod
    def _count_starts(monkeypatch) -> list:
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        return started

    def test_no_thread_outlives_a_run_or_an_analysis(self, monkeypatch):
        monkeypatch.setattr(lise.linalg, "_cpu_count", lambda: 3)
        started = self._count_starts(monkeypatch)
        before = threading.active_count()
        sc = config_scenario("fault_h1", monte_carlo=64)
        run_scenario(sc)
        assert threading.active_count() == before
        ran = len(started)
        assert ran > 0
        analyze(sc.model)
        assert threading.active_count() == before
        assert len(started) == ran

    def test_eight_blocks_with_fast_switching_equal_one_block(self, monkeypatch):
        # more blocks than cores, and the GIL handed over every microsecond:
        # the blocks write disjoint rows, so the truth stays bitwise that of
        # one block
        sc = config_scenario("fault_h1")
        monkeypatch.setattr(lise.linalg, "_cpu_count", lambda: 1)
        want = simulate_truth(sc, range(100))
        monkeypatch.setattr(lise.linalg, "_cpu_count", lambda: 8)
        started = self._count_starts(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = simulate_truth(sc, range(100))
        finally:
            sys.setswitchinterval(interval)
        assert len(started) == 14   # seven blocks more than the caller's, twice
        assert _same_bits(got.x, want.x) and _same_bits(got.y, want.y)

    def test_one_run_and_a_filter_step_start_no_thread(self, monkeypatch):
        monkeypatch.setattr(lise.linalg, "_cpu_count", lambda: 8)
        started = self._count_starts(monkeypatch)
        sc = config_scenario("fault_h1")
        truth = simulate_truth(sc, 0)
        simulate_truth(sc, [5])
        state = ulise_init(sc.model, sc.x0_mean, sc.p0, truth.y[0], truth.u[0])
        ulise_step(state, truth.y[1], truth.u[1], truth.u[0], sc.model)
        assert started == []

    def test_every_block_runs_under_the_callers_error_state(self, monkeypatch):
        # numpy's error state is per thread: each started thread takes the
        # caller's for its block, so an overflow in the last block raises
        # under over="raise" and is silent under over="ignore"
        monkeypatch.setattr(lise.linalg, "_cpu_count", lambda: 2)
        big = np.full(4, 1e308)

        def work(lo, hi):
            if hi == 4:
                big[lo:hi] * 10.0

        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            lise.linalg._in_blocks(work, 4, 1)
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            lise.linalg._in_blocks(work, 4, 1)

    def test_an_error_in_the_last_block_reaches_the_caller(self, monkeypatch):
        # 30 runs of 1001 steps on 3 CPUs: blocks 0-9, 10-19 and 20-29, the
        # last on a thread of its own
        monkeypatch.setattr(lise.linalg, "_cpu_count", lambda: 3)
        started = self._count_starts(monkeypatch)
        real = lise.simulate._run_rng

        def failing(seed, run_index):
            if run_index == 29:
                raise RuntimeError("no noise stream for run 29")
            return real(seed, run_index)

        monkeypatch.setattr(lise.simulate, "_run_rng", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^no noise stream for run 29$"):
            simulate_truth(config_scenario("fault_h1"), range(30))
        assert len(started) == 2
        assert threading.active_count() == before


class TestRunScenario:
    def test_kalman_equals_ulise_when_no_unknown_input(self):
        rng = np.random.default_rng(12)
        model = random_system(rng, n=4, l=3, p=0, p_h=0)
        sc = Scenario(model=model, horizon=60, d_signals=[],
                      u_signals=[Constant(0.3)],
                      x0_true=np.zeros(4), x0_mean=np.zeros(4), p0=np.eye(4),
                      noise_seed=5, filters=("ULISE", "KALMAN"),
                      structural_checks=False)
        res = run_scenario(sc)
        a, b = res.filters["ULISE"], res.filters["KALMAN"]
        assert np.allclose(a.xhat, b.xhat, atol=1e-12)
        assert np.allclose(a.px_diag, b.px_diag, atol=1e-12)

    def test_truth_holds_run_0_only(self):
        # the result keeps copies of run 0, not views that pin the whole
        # Monte-Carlo batch
        sc = config_scenario("fault_h1", horizon=30, monte_carlo=8, filters=("ULISE",),
                             structural_checks=False)
        res = run_scenario(sc)
        alone = simulate_truth(sc, 0)
        assert res.truth.x.base is None and res.truth.y.base is None
        for name in ("x", "y", "d", "u"):
            got, want = getattr(res.truth, name), getattr(alone, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    def test_batch_replay_matches_sequential_filter(self):
        # Monte-Carlo runs replay a precomputed gain schedule; each filter's
        # run 1 must equal its own from-scratch sequential filter on run 1's
        # data, on fault_h1, on a time-varying model whose feedthrough rank
        # changes inside the schedule, and on a p = 0 model with KALMAN
        for sc in (config_scenario("fault_h1", horizon=80, monte_carlo=3,
                                   structural_checks=False), _switching_scenario(40, 3),
                   _no_input_scenario(80, 3)):
            res = run_scenario(sc)
            truth1 = simulate_truth(sc, run_index=1)
            model = sc.model
            for name in sc.filters:
                fr = res.filters[name]
                state = _INITS[name](model, sc.x0_mean, sc.p0, truth1.y[0], truth1.u[0])
                for k in range(1, sc.horizon + 1):
                    state, out = _STEPS[name](state, truth1.y[k], truth1.u[k],
                                              truth1.u[k - 1], model, sc.gamma)
                    replayed = fr.err_x_runs[1, k - 1] + truth1.x[k]
                    assert np.allclose(out.xhat, replayed, atol=1e-11), (name, k)
                    replayed = fr.err_d_runs[1, k - 1] + truth1.d[k - 1]
                    assert np.allclose(out.dhat_prev, replayed, atol=1e-11), (name, k)

    @pytest.mark.parametrize("runs", [1, 2, 128])
    @pytest.mark.parametrize("case", ["fault_h1", "time_varying", "failing"])
    def test_run_0_of_the_batch_is_the_pass(self, monkeypatch, case, runs):
        # run 0 is computed once, by the filter pass: row 0 of the batch is
        # err_x and err_d bit for bit, also for a filter that fails mid-run
        # (a non-finite measurement at k = 50 of every run)
        if case == "failing":
            real = lise.simulate.simulate_truth

            def poisoned(scenario, run_index):
                truth = real(scenario, run_index)
                truth.y[:, 50, 0] = np.nan
                return truth

            monkeypatch.setattr(lise.simulate, "simulate_truth", poisoned)
        sc = (_switching_scenario(80, runs) if case == "time_varying"
              else config_scenario("fault_h1", horizon=200, monte_carlo=runs,
                                   structural_checks=False))
        res = run_scenario(sc, raise_filter_errors=False)
        for name, fr in res.filters.items():
            assert fr.failed_at == (50 if case == "failing" else None), name
            assert fr.err_x_runs.shape == (runs,) + fr.xhat.shape, name
            assert fr.err_d_runs.shape == (runs,) + fr.dhat.shape, name
            assert _same_bits(fr.err_x_runs[0], fr.err_x), name
            assert _same_bits(fr.err_d_runs[0], fr.err_d), name

    def test_input_estimate_alignment(self):
        # with exact start and vanishing noise, the delayed estimate indexed
        # k-1 matches the true input at k-1 (produced from measurement k)
        model = _zero_noise_model()
        sc = config_scenario("fault_h1", model=model, horizon=30, p0=np.zeros((5, 5)),
                             noise_seed=2, filters=("ULISE",), structural_checks=False)
        res = run_scenario(sc)
        fr = res.filters["ULISE"]
        assert np.allclose(fr.dhat, res.truth.d[:30], atol=1e-4)

    def test_trace_series_positive_and_settled(self):
        res = run_scenario(config_scenario("fault_h1", horizon=400, structural_checks=False))
        for fr in res.filters.values():
            assert np.all(fr.tr_px > 0) and np.all(fr.tr_pd > 0)
            tail = fr.tr_px[-80:]
            assert np.max(np.abs(np.diff(tail))) / tail[-1] < 1e-6

    @pytest.mark.parametrize("runs", [1, 8])
    def test_two_runs_of_one_scenario_are_equal_field_by_field(self, runs):
        # a record holds nothing that differs between runs, such as a timing
        sc = config_scenario("fault_h1", monte_carlo=runs)
        first, second = (run_scenario(sc).filters for _ in range(2))
        assert first.keys() == second.keys()
        for name, a in first.items():
            for field in dataclasses.fields(a):
                got, want = getattr(a, field.name), getattr(second[name], field.name)
                assert bits(got) == bits(want), (name, field.name)

    def test_structural_report_attached(self):
        res = run_scenario(config_scenario("fault_h1", horizon=30))
        assert res.structural is not None
        assert res.structural.strongly_detectable.detectable

    def test_filter_failure_raises_with_step_index(self):
        sc = _failing_scenario()
        with pytest.raises(FilterFailure, match="step 1"):
            run_scenario(sc)

    def test_nonfinite_measurement_recorded_as_failure(self, monkeypatch):
        real = lise.simulate.simulate_truth

        def poisoned(scenario, run_index):
            truth = real(scenario, run_index)
            truth.y[:, 7, 0] = np.nan
            return truth

        monkeypatch.setattr(lise.simulate, "simulate_truth", poisoned)
        sc = config_scenario("fault_h1", horizon=20, monte_carlo=3, structural_checks=False)
        res = run_scenario(sc, raise_filter_errors=False)
        for fr in res.filters.values():
            assert fr.failed_at == 7 and "y at k=7" in fr.error
            assert fr.xhat.shape[0] == 6 and np.all(np.isfinite(fr.xhat))
            assert fr.steady == {}   # failed before the tail window

    def test_a_prior_mean_too_large_fails_at_the_first_step(self):
        # A x0_mean overflows in the first prediction; no step checks its
        # estimates, so the pass's one scan of them names the first step
        sc = config_scenario("fault_h3", horizon=40, x0_mean=np.array([0.0, 1e308, 0, 0, 0]))
        with np.errstate(all="ignore"):
            res = run_scenario(sc, raise_filter_errors=False)
            for fr in res.filters.values():
                assert fr.failed_at == 1 and fr.gain_cycle is None
                assert fr.error == ("step 1: non-finite estimate: xhat = [nan nan nan nan nan] "
                                    "and dhat = [nan nan nan]")
                assert fr.xhat.shape == (0, 5) and fr.gain_l_series == []
            with pytest.raises(FilterFailure, match="step 1: non-finite estimate: xhat = "):
                run_scenario(sc)

    def test_time_varying_model_validated_over_whole_horizon(self):
        base = config_scenario("fault_h1").model.step(0)
        singular_r = np.diag([1.0, 1.0, 1.0, 1.0, 0.0])

        def provider(k):
            return SystemStep(A=base.A, B=base.B, C=base.C, D=base.D, G=base.G,
                              H=base.H, Q=base.Q, R=base.R if k < 120 else singular_r)

        model = SystemModel.time_varying(provider, dims=(5, 1, 3, 5))
        sc = config_scenario("fault_h1", model=model, horizon=150, noise_seed=3,
                             filters=("ULISE",), structural_checks=False)
        with pytest.raises(InvalidInputError, match=r"\[k=120\] R"):
            run_scenario(sc)

    def test_failure_on_undetectable_model_names_the_cause(self):
        # invariant zero at 7.71: all three filters diverge and a solve
        # breaks; the error says why, not only which matrix broke
        sc = _undetectable_scenario()
        res = run_scenario(sc, raise_filter_errors=False)
        assert res.structural is None
        for fr in res.filters.values():
            assert fr.failed_at is not None
            assert fr.error.endswith(
                "; model is not strongly detectable (max zero modulus 7.71)"), fr.error
        with pytest.raises(FilterFailure, match="not strongly detectable"):
            run_scenario(sc)
        # the structural report's verdict is reused when it exists
        checked = run_scenario(dataclasses.replace(sc, structural_checks=True),
                               raise_filter_errors=False)
        assert not checked.structural.strongly_detectable.detectable
        for name, fr in checked.filters.items():
            assert fr.error == res.filters[name].error

    def test_failure_on_detectable_model_has_no_cause_appended(self):
        res = run_scenario(_failing_scenario(), raise_filter_errors=False)
        assert "strongly detectable" not in res.filters["ULISE"].error

    def test_filter_failure_captured_when_requested(self):
        res = run_scenario(_failing_scenario(), raise_filter_errors=False)
        fr = res.filters["ULISE"]
        assert fr.error is not None and fr.failed_at == 1
        assert fr.xhat.shape[0] == 0


def _config_scenario(name, horizon, **updates):
    return config_scenario(name, horizon=horizon, structural_checks=False, **updates)


def _per_step_run(sc, **kwargs):
    with mock.patch.object(lise.simulate, "_full_pass", per_step_full_pass_oracle):
        return run_scenario(sc, **kwargs)


def _assert_same_runs(got, want):
    assert got.filters.keys() == want.filters.keys()
    for name, a in got.filters.items():
        b = want.filters[name]
        for field in ("xhat", "dhat", "px_diag", "pd_diag", "err_x_runs", "err_d_runs"):
            assert _same_bits(getattr(a, field), getattr(b, field)), (name, field)
        assert len(a.gain_l_series) == len(b.gain_l_series)
        for la, lb in zip(a.gain_l_series, b.gain_l_series):
            assert _same_bits(la, lb), name
        assert a.max_unbiasedness == b.max_unbiasedness, name
        assert (a.error, a.failed_at) == (b.error, b.failed_at), name


def _assert_periodic_from_cycle(fr):
    start, period = fr.gain_cycle
    assert 1 <= period < start <= fr.xhat.shape[0]
    gains = np.array(fr.gain_l_series)
    for series in (fr.px_diag, fr.pd_diag, gains):
        tail = series[start - 1:]
        assert _same_bits(tail, series[start - 1 - period:len(series) - period])


class TestGainCycle:
    """Steps served from a repeating gain cycle against the per-step pass."""

    @pytest.mark.parametrize("config", CONFIG_NAMES)
    def test_bundled_configs_match_per_step_pass(self, config):
        sc = _config_scenario(config, 300)
        res = run_scenario(sc)
        _assert_same_runs(res, _per_step_run(sc))
        for fr in res.filters.values():
            if fr.gain_cycle is not None:
                _assert_periodic_from_cycle(fr)

    @pytest.mark.parametrize("config", CONFIG_NAMES)
    def test_bundled_configs_match_per_step_pass_at_full_horizon(self, config):
        # the configs' own horizons, where every cycle of BUNDLED_CYCLES is
        # served, those of period > 1 included (fault_h4, fault_h5, fault_h6);
        # each is served from the first repeat that the per-step pass sees
        sc = config_scenario(config, structural_checks=False)
        res = run_scenario(sc)
        _assert_same_runs(res, _per_step_run(sc))
        truth = simulate_truth(sc, 0)
        for name, fr in res.filters.items():
            assert fr.gain_cycle == first_repeat_oracle(name, sc, truth), name

    # (k, period) of FilterRun.gain_cycle per filter at each config's horizon
    BUNDLED_CYCLES = {
        "fault_h1": {"ULISE": (92, 1), "PLISE": (99, 5), "CYWZ": (93, 1)},
        "fault_h2": {"ULISE": (95, 1), "PLISE": (97, 1), "CYWZ": (95, 1)},
        "fault_h3": {"ULISE": (54, 1), "PLISE": None, "CYWZ": (54, 1)},
        "fault_h4": {"ULISE": (96, 2), "PLISE": None, "CYWZ": (95, 2)},
        "fault_h5": {"ULISE": (65, 1), "PLISE": (269, 168), "CYWZ": (66, 2)},
        "fault_h6": {"ULISE": (62, 1), "PLISE": (153, 17), "CYWZ": (62, 1)},
        "vehicle_tracking": {"ULISE": None, "PLISE": None},
    }

    @pytest.mark.parametrize("config", CONFIG_NAMES)
    def test_bundled_configs_detect_their_cycles(self, config):
        # pins where the covariance state first repeats, so a change to the
        # state or its key cannot move it unnoticed
        res = run_scenario(config_scenario(config, structural_checks=False))
        got = {name: fr.gain_cycle for name, fr in res.filters.items()}
        assert got == self.BUNDLED_CYCLES[config]

    @pytest.mark.parametrize("runs", [1, 4])
    def test_kalman_serves_its_fixed_point(self, runs):
        # the Kalman filter is keyed and served like every other filter; it
        # is ULISE's recursion, so its covariance state first repeats where
        # ULISE's does
        sc = _no_input_scenario(200, runs)
        res = run_scenario(sc)
        assert res.filters["KALMAN"].gain_cycle == res.filters["ULISE"].gain_cycle == (57, 2)
        _assert_periodic_from_cycle(res.filters["KALMAN"])
        _assert_same_runs(res, _per_step_run(sc))

    def test_cycle_found_and_monte_carlo_replay_matches(self):
        sc = _config_scenario("fault_h1", 300, monte_carlo=8)
        res = run_scenario(sc)
        assert any(fr.gain_cycle is not None for fr in res.filters.values())
        _assert_same_runs(res, _per_step_run(sc))

    def test_never_engages_on_time_varying_model(self):
        # the same plant behind a provider: its covariance state repeats just
        # the same, but a time-varying model keeps the per-step path
        ti = config_scenario("fault_h1", horizon=150, structural_checks=False)
        step = ti.model.step(0)
        tv = dataclasses.replace(ti, model=SystemModel.time_varying(
            lambda k: step, dims=(5, 1, 3, 5)))
        res_ti, res_tv = run_scenario(ti), run_scenario(tv)
        assert all(fr.gain_cycle is not None for fr in res_ti.filters.values())
        assert all(fr.gain_cycle is None for fr in res_tv.filters.values())
        _assert_same_runs(res_tv, res_ti)

    @pytest.mark.parametrize("field", ["y", "u"])
    def test_nonfinite_input_on_a_cycle_step_names_the_step(self, monkeypatch, field):
        real = lise.simulate.simulate_truth

        def poisoned(scenario, run_index):
            truth = real(scenario, run_index)
            getattr(truth, field)[..., 500, 0] = np.nan
            return truth

        monkeypatch.setattr(lise.simulate, "simulate_truth", poisoned)
        sc = config_scenario("fault_h1", horizon=520, monte_carlo=2, structural_checks=False)
        res = run_scenario(sc, raise_filter_errors=False)
        for fr in res.filters.values():
            assert fr.gain_cycle[0] < 500    # the step is served from the cycle
            assert fr.failed_at == 500 and f"{field} at k=500" in fr.error
            assert fr.xhat.shape[0] == 499 and np.all(np.isfinite(fr.xhat))
            assert fr.err_x_runs.shape == (2, 499, 5)
        with pytest.raises(FilterFailure, match="step 500"):
            run_scenario(sc)

    @pytest.mark.parametrize("bad, k, named", [(("u",), 600, "u"), (("y", "u"), 550, "y")])
    def test_first_nonfinite_input_of_a_cycle_step_is_named(self, monkeypatch, bad, k,
                                                            named):
        real = lise.simulate.simulate_truth

        def poisoned(scenario, run_index):
            truth = real(scenario, run_index)
            for field in bad:
                getattr(truth, field)[..., k, -1] = np.inf
            return truth

        monkeypatch.setattr(lise.simulate, "simulate_truth", poisoned)
        sc = config_scenario("fault_h1", horizon=620, monte_carlo=2, structural_checks=False)
        res = run_scenario(sc, raise_filter_errors=False)
        for fr in res.filters.values():
            assert fr.gain_cycle[0] < k
            assert fr.failed_at == k
            assert fr.error == f"step {k}: {named} at k={k} has non-finite entries"
            assert fr.xhat.shape[0] == k - 1 and np.all(np.isfinite(fr.xhat))
            assert fr.err_x_runs.shape == (2, k - 1, 5)
        with pytest.raises(FilterFailure, match=f"step {k}: {named} at k={k}"):
            run_scenario(sc)

    @pytest.mark.parametrize("k", [11, 501])
    def test_estimates_that_overflow_fail_at_their_step(self, monkeypatch, k):
        # finite measurements too large for the estimate recursion: step k
        # subtracts a predicted output of about 1.7e308 from -1.7e308, and the
        # pass fails there, with its gains cut to the steps before; a cycle
        # is reported only when it starts by then (it starts before k = 100)
        real = lise.simulate.simulate_truth

        def poisoned(scenario, run_index):
            truth = real(scenario, run_index)
            truth.y[..., k - 1, :] = 1.7e308
            truth.y[..., k, :] = -1.7e308
            return truth

        monkeypatch.setattr(lise.simulate, "simulate_truth", poisoned)
        sc = config_scenario("fault_h1", horizon=520, monte_carlo=2, structural_checks=False)
        with np.errstate(all="ignore"):
            res = run_scenario(sc, raise_filter_errors=False)
            for fr in res.filters.values():
                assert (fr.gain_cycle is not None) == (k > 100)
                assert fr.failed_at == k
                assert fr.error.startswith(f"step {k}: non-finite estimate: xhat = [")
                assert fr.xhat.shape[0] == len(fr.gain_l_series) == k - 1
                assert fr.err_x_runs.shape == (2, k - 1, 5)
                assert np.all(np.isfinite(fr.err_x_runs))
            with pytest.raises(FilterFailure, match=f"step {k}: non-finite estimate: xhat = "):
                run_scenario(sc)


def _assert_replay_matches_oracle(sc):
    """Replay every filter's schedule over the MC batch against the frozen
    batched recursion: rows 1.. of each array, the replayed runs, within
    1e-11 of the oracle's, relative to their largest entry (at least 1); row
    0 is left to the caller, which writes the filter pass's run 0 there."""
    truth = simulate_truth(sc, range(sc.monte_carlo))
    truth0 = TruthTrajectories(x=truth.x[0], y=truth.y[0], d=truth.d, u=truth.u)
    for name in sc.filters:
        gains = _full_pass(name, sc, truth0)[4]
        if not gains:
            continue
        got = _apply_schedule(gains, truth.y, truth.u, sc.x0_mean)
        want = per_step_replay_oracle(name, gains, truth.y, truth.u, sc.x0_mean)
        for a, b in zip(got, want):
            assert a.shape == b.shape, name
            a, b = a[1:], b[1:]
            scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-11 * scale, err_msg=name)


class TestReplay:
    """The Monte-Carlo replay through per-record maps against the batched
    recursion it replaced."""

    @pytest.mark.parametrize("config, runs",
                             [(c, 8) for c in CONFIG_NAMES] + [("fault_h1", 128)])
    def test_bundled_configs_match_batched_recursion(self, config, runs):
        _assert_replay_matches_oracle(_config_scenario(config, 1000, monte_carlo=runs))

    def test_rank_switching_time_varying_model(self):
        model = _rank_switching_model(np.random.default_rng(8))
        horizon = 40
        sc = Scenario(model=model, horizon=horizon,
                      d_signals=[SquareWave(1.5, 2, 1, horizon)] * 2,
                      u_signals=[Ramp(0.3, 0, horizon)], x0_true=np.ones(4),
                      x0_mean=np.zeros(4), p0=np.eye(4), noise_seed=9, monte_carlo=5,
                      filters=("ULISE", "PLISE", "CYWZ"), structural_checks=False)
        _assert_replay_matches_oracle(sc)

    def test_rank_switching_inside_the_schedule(self):
        # feedthrough rank 0, 0, 1, 1, 0, ...: the replayed map changes shape
        # inside a chunk, and every filter runs the whole horizon
        sc = _switching_scenario(70, 5)
        res = run_scenario(sc)
        assert all(fr.xhat.shape[0] == 70 for fr in res.filters.values())
        _assert_replay_matches_oracle(sc)

    def test_fresh_step_every_k_time_varying_model(self):
        # the online plant builds a new step object at every k, so the maps
        # stack the records' model steps and decompositions too; H changes
        # rank at k = 100 and 200
        _, sc = online_plant(250)
        _assert_replay_matches_oracle(dataclasses.replace(sc, monte_carlo=4))

    def test_peak_memory_stays_near_the_outputs(self):
        # the replay holds the two output arrays, the per-record maps (each an
        # array object and its data, and the list naming one per step) and
        # one chunk buffer, never a data term of every step; the vehicle's
        # 1000 steps are all distinct records.  8 KiB covers the interpreter
        # objects of one step (array views, loop counters).
        runs = 128
        for config in ("fault_h1", "vehicle_tracking"):
            sc = _config_scenario(config, 1000, monte_carlo=runs)
            truth = simulate_truth(sc, range(runs))
            truth0 = TruthTrajectories(x=truth.x[0], y=truth.y[0], d=truth.d, u=truth.u)
            step = sc.model.step(0)
            for name in sc.filters:
                gains = _full_pass(name, sc, truth0)[4]
                maps = lise.simulate._update_maps(gains)
                records = {id(f): f for f in maps}.values()
                chunk = min(lise.simulate._CHUNK, len(gains))
                rows = step.l + 2 * step.m + max(f.shape[0] for f in maps)
                held = (sum(f.nbytes + sys.getsizeof(f) for f in records)
                        + sys.getsizeof(maps) + 8 * (chunk + 1) * rows * runs + 8192)
                del maps, records
                tracemalloc.start()
                try:
                    xh, dh = _apply_schedule(gains, truth.y, truth.u, sc.x0_mean)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                outputs = xh.nbytes + dh.nbytes
                assert peak <= outputs + held, (config, name, peak, outputs, held)
                if config == "fault_h1":
                    assert peak <= 1.25 * outputs, (name, peak)


# derandomized, as the other drift properties are: a random search would
# fail now and then on a draw whose float recursion drifts past the bound
# instead of on a new defect; the one such draw seen is kept as an example
# (hypothesis's xfail examples are strict: one that passes fails the test)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 31), horizon=st.integers(5, 40), runs=st.integers(2, 6))
@example(seed=7072, horizon=39, runs=2).xfail(
    raises=AssertionError,
    reason="PLISE's replayed err_x_runs[1, 38, 0] is 5.6e-11 from the batched oracle, "
           "past the bound of 4.4e-11, 1e-11 times the largest entry (CHANGES.md FOUND)")
def test_replay_matches_batched_recursion_on_random_systems(seed, horizon, runs):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    l = int(rng.integers(1, n + 1))
    p = int(rng.integers(0, l + 1))
    model = random_system(rng, n=n, l=l, p=p, p_h=int(rng.integers(0, p + 1)),
                          m=int(rng.integers(0, 3)), radius=0.5)
    # on a model that is not strongly detectable the estimates diverge, and
    # any two roundings of the recursion part by the growth factor
    assume(strong_detectability(model.step(0)).detectable)
    sc = Scenario(model=model, horizon=horizon,
                  d_signals=[SquareWave(1.5, 2, 1, horizon)] * p,
                  u_signals=[Ramp(0.3, 0, horizon)] * model.m,
                  x0_true=rng.standard_normal(n), x0_mean=rng.standard_normal(n),
                  p0=np.eye(n), noise_seed=int(rng.integers(2 ** 63)), monte_carlo=runs,
                  filters=("ULISE", "PLISE", "CYWZ") + (("KALMAN",) if p == 0 else ()),
                  structural_checks=False)
    _assert_replay_matches_oracle(sc)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(20, 60))
def test_cycle_replay_matches_per_step_pass_on_random_systems(seed, horizon):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    l = int(rng.integers(1, n + 1))
    p = int(rng.integers(0, l + 1))
    model = random_system(rng, n=n, l=l, p=p, p_h=int(rng.integers(0, p + 1)),
                          radius=0.5)
    sc = Scenario(model=model, horizon=horizon,
                  d_signals=[SquareWave(1.5, 2, 1, horizon)] * p,
                  u_signals=[Ramp(0.3, 0, horizon)] * model.m,
                  x0_true=rng.standard_normal(n), x0_mean=np.zeros(n), p0=np.eye(n),
                  noise_seed=int(rng.integers(2 ** 63)), monte_carlo=2,
                  filters=("ULISE", "PLISE", "CYWZ") + (("KALMAN",) if p == 0 else ()),
                  structural_checks=False)
    res = run_scenario(sc, raise_filter_errors=False)
    _assert_same_runs(res, _per_step_run(sc, raise_filter_errors=False))
    truth = simulate_truth(sc, 0)
    for name, fr in res.filters.items():
        assert fr.gain_cycle == first_repeat_oracle(name, sc, truth), name
        if fr.gain_cycle is not None:
            _assert_periodic_from_cycle(fr)


def _keyed_pass(key, horizon):
    """``_full_pass`` of ULISE on fault_h1 with the state before step ``j``
    keyed by ``key(j)`` in place of its covariance bytes."""
    sc = config_scenario("fault_h1", horizon=horizon, structural_checks=False)
    keys = map(key, itertools.count(1))
    with mock.patch.object(lise.simulate, "_gain_key", lambda state: next(keys)):
        return _full_pass("ULISE", sc, simulate_truth(sc, 0))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40))
def test_cycle_is_found_at_its_first_repeat_with_its_minimal_period(mu, lam):
    # keys 1..mu-1 are distinct, then a cycle of lam distinct keys repeats:
    # key mu + lam is the first key seen before
    def key(j):
        return b"pre%d" % j if j < mu else b"cyc%d" % ((j - mu) % lam)

    assert _keyed_pass(key, mu + lam)[-1] == (mu + lam, lam)
    assert _keyed_pass(key, mu + lam - 1)[-1] is None


def test_cycle_map_holds_each_key_once_and_is_dropped_with_the_pass():
    # distinct keys, so the pass maps every one of its steps; a big key size
    # makes the map's share of the traced memory stand out from the pass's
    size, steps = 1 << 16, 100

    def traced(key):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = _keyed_pass(key, steps)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out[-1] is None
        return peak - before, after - before

    peak_small, kept_small = traced(lambda j: j.to_bytes(8, "little"))
    peak_big, kept_big = traced(lambda j: j.to_bytes(8, "little") * (size // 8))
    # one copy of each of the steps' keys while the pass runs (the small
    # keys' own share of the first peak is well under one big key), then none
    assert (steps - 1) * size < peak_big - peak_small < (steps + 2) * size
    assert kept_big - kept_small < size


def test_python_m_lise_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "lise", "--help"],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "analyze" in proc.stdout


def test_samples_shorter_than_the_horizon_are_rejected():
    # the config's bias samples cover k = 0..1000
    sc = config_scenario("vehicle_tracking", horizon=2000)
    with pytest.raises(InvalidInputError,
                       match=r"d_signals\[1\] has 1001 samples, but horizon 2000"):
        run_scenario(sc)


@pytest.mark.parametrize("runs", [0, range(3)])
def test_truth_rejects_samples_shorter_than_the_horizon(runs):
    # past its last sample the truth would read the bias as zero
    sc = config_scenario("vehicle_tracking", horizon=1500)
    with pytest.raises(InvalidInputError,
                       match=r"^d_signals\[1\] has 1001 samples, but horizon 1500 needs "
                             r"1501 \(k = 0\.\.1500\)$"):
        simulate_truth(sc, runs)


def test_cli_run_rejects_samples_shorter_than_the_horizon(tmp_path, capsys):
    text = (ROOT / "configs" / "vehicle_tracking.yaml").read_text()
    assert text.count("horizon: 1000") == 1
    cfg = tmp_path / "vehicle_2000.yaml"
    cfg.write_text(text.replace("horizon: 1000", "horizon: 2000"))
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) != 0
    assert "d_signals[1] has 1001 samples, but horizon 2000" in capsys.readouterr().err


def test_time_varying_filter_pass_fetches_each_step_once(monkeypatch):
    # validation, the truth and the three passes share one fetch per k, and
    # the passes one decomposition per run of equal H (11 on the plant)
    import lise.decomposition

    calls, in_pass, decs, refs = [0], [], [], []
    decompose = lise.decomposition.decompose

    def counted_pass(*args):
        start = calls[0]
        res = _full_pass(*args)
        in_pass.append(calls[0] - start)
        return res

    def counted_decompose(*args):
        dec = decompose(*args)
        decs.append(weakref.ref(dec))
        return dec

    class CountedContext(lise.decomposition.StepContext):
        def __init__(self, *args):
            super().__init__(*args)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(lise.simulate, "_full_pass", counted_pass)
    monkeypatch.setattr(lise.decomposition, "decompose", counted_decompose)
    monkeypatch.setattr(lise.decomposition, "StepContext", CountedContext)

    def scenario():
        model, sc = online_plant(1000)

        def provider(k):
            calls[0] += 1
            step = model.provider(k)
            refs.append(weakref.ref(step))
            return step

        counted = SystemModel.time_varying(provider, dims=(model.n, model.m, model.p, model.l))
        return dataclasses.replace(sc, model=counted, filters=("ULISE", "PLISE", "CYWZ"))

    sc = scenario()
    sc_ref = weakref.ref(sc)
    res = run_scenario(sc)
    del sc
    assert res.scenario is sc_ref()
    assert in_pass == [0, 0, 0]
    assert calls[0] == res.scenario.horizon + 1
    assert len(decs) == 11
    assert len(refs) == 1001 + 1001
    # the result holds the caller's scenario, whose model keeps its last
    # step; once it is dropped, no step, context or decomposition is left
    del res
    assert [r for r in [sc_ref] + refs + decs if r() is not None] == []


def _failing_scenario():
    base = config_scenario("fault_h1").model.step(0)
    g_bad = np.array(base.G)
    g_bad[:, 0] = np.eye(5)[0]
    model = SystemModel.time_invariant(SystemStep(
        A=base.A, B=base.B, C=base.C, D=base.D, G=g_bad, H=base.H,
        Q=base.Q, R=base.R))
    return config_scenario("fault_h1", model=model, horizon=10, noise_seed=3,
                           filters=("ULISE",), structural_checks=False)


def _undetectable_scenario():
    model = random_system(np.random.default_rng(4), n=3, l=3, p=3, p_h=2, radius=0.5)
    return Scenario(model=model, horizon=80, d_signals=[Constant(0.0)] * 3,
                    u_signals=[Constant(0.0)], x0_true=np.zeros(3),
                    x0_mean=np.zeros(3), p0=np.eye(3), noise_seed=1,
                    filters=("ULISE", "PLISE", "CYWZ"), structural_checks=False)


class TestEmpiricalCovariance:
    def test_zero_noise_gives_zero_matrix(self):
        model = _zero_noise_model()
        sc = config_scenario("fault_h1", model=model, horizon=20, p0=np.zeros((5, 5)),
                             noise_seed=4, filters=("ULISE",), monte_carlo=4,
                             structural_checks=False)
        res = run_scenario(sc)
        cov = empirical_error_covariance(res.filters["ULISE"], 15, "x")
        assert np.allclose(cov, 0.0, atol=1e-10)
        assert np.allclose(cov, cov.T)

    def test_needs_at_least_two_runs(self):
        res = run_scenario(config_scenario("fault_h1", horizon=10, structural_checks=False))
        with pytest.raises(InvalidInputError):
            empirical_error_covariance(res.filters["ULISE"], 5)

    @pytest.mark.parametrize("which, k, inside", [("x", 0, 1), ("x", 11, 10),
                                                   ("d", -1, 0), ("d", 10, 9)])
    def test_time_outside_the_recorded_series(self, which, k, inside):
        # the state error is recorded at k = 1..10, the input error at 0..9
        res = run_scenario(config_scenario("fault_h1", horizon=10, monte_carlo=4,
                                           filters=("ULISE",), structural_checks=False))
        with pytest.raises(InvalidInputError, match=f"^time index {k} outside the recorded"):
            empirical_error_covariance(res.filters["ULISE"], k, which)
        assert empirical_error_covariance(res.filters["ULISE"], inside, which).shape[0] == (
            5 if which == "x" else 3)

    @pytest.mark.parametrize("which", ["X", "D", "", "xd"])
    def test_which_names_x_or_d(self, which):
        res = run_scenario(config_scenario("fault_h1", horizon=10, monte_carlo=4,
                                           filters=("ULISE",), structural_checks=False))
        with pytest.raises(InvalidInputError, match="which must be 'x' or 'd'"):
            empirical_error_covariance(res.filters["ULISE"], 5, which)

    def test_scalar_kalman_matches_riccati_fixed_point(self):
        # sample covariance across many runs against the closed-form
        # posterior fixed point of the scalar problem
        a, q, r = 0.5, 1.0, 1.0
        b = q + r - a * a * r
        p_oracle = (-b + np.sqrt(b * b + 4 * a * a * q * r)) / (2 * a * a)
        step = SystemStep(A=[[a]], B=np.zeros((1, 0)), C=[[1.0]],
                          D=np.zeros((1, 0)), G=np.zeros((1, 0)),
                          H=np.zeros((1, 0)), Q=[[q]], R=[[r]])
        sc = Scenario(model=SystemModel.time_invariant(step), horizon=60,
                      d_signals=[], u_signals=[], x0_true=np.zeros(1),
                      x0_mean=np.zeros(1), p0=np.eye(1), noise_seed=9,
                      filters=("KALMAN",), monte_carlo=2000,
                      structural_checks=False)
        res = run_scenario(sc)
        emp = empirical_error_covariance(res.filters["KALMAN"], 60)[0, 0]
        assert emp == pytest.approx(p_oracle, rel=0.15)
        assert res.filters["KALMAN"].px_diag[-1, 0] == pytest.approx(p_oracle, abs=1e-10)


class TestCsv:
    def test_step_and_summary_schema(self, tmp_path):
        res = run_scenario(config_scenario("fault_h2", horizon=40, structural_checks=False))
        sp = tmp_path / "steps.csv"
        mp = tmp_path / "summary.csv"
        write_step_csv(res, sp)
        write_summary_csv(res, mp)
        lines = sp.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["k", "filter"]
        assert header[2:7] == [f"xhat_{i}" for i in range(1, 6)]
        assert header[7:10] == [f"dhat_{i}" for i in range(1, 4)]
        assert header[10:] == ["tr_px", "tr_pd", "err_x_norm", "err_d_norm"]
        assert len(lines) == 1 + 3 * 40
        # 17-significant-digit floats survive a parse round trip
        val = float(lines[1].split(",")[2])
        assert f"{val:.17g}" == lines[1].split(",")[2]
        srows = mp.read_text().splitlines()
        assert srows[0].split(",")[0] == "filter"
        assert len(srows) == 4

    @pytest.mark.parametrize("name", CONFIG_NAMES + ("p0",))
    def test_row_norms_are_bitwise_per_row_norms(self, name):
        # the error-norm columns, one stacked matmul per series, against the
        # per-row norm; with p = 0 every err_d row has zero width
        if name == "p0":
            model = random_system(np.random.default_rng(4), n=4, l=3, p=0, p_h=0)
            sc = Scenario(model=model, horizon=200, d_signals=[],
                          u_signals=[Constant(0.3)], x0_true=np.ones(4),
                          x0_mean=np.zeros(4), p0=np.eye(4), noise_seed=5,
                          filters=("ULISE", "KALMAN"), structural_checks=False)
        else:
            sc = config_scenario(name, structural_checks=False)
        res = run_scenario(sc)
        for fr in res.filters.values():
            for errs in (fr.err_x, fr.err_d):
                want = np.array([_norm(e) for e in errs])
                got = _row_norms(errs)
                assert got.shape == want.shape == (sc.horizon,)
                assert got.tobytes() == want.tobytes()

    def test_a_failed_write_leaves_no_temporary_file(self, tmp_path):
        # the target is a directory: the final rename fails, and the
        # temporary file written beside it is removed
        res = run_scenario(config_scenario("fault_h1", horizon=10, structural_checks=False))
        (tmp_path / "summary.csv").mkdir()
        with pytest.raises(OSError):
            write_summary_csv(res, tmp_path / "summary.csv")
        assert [p.name for p in tmp_path.iterdir()] == ["summary.csv"]

    def test_deterministic_bytes(self, tmp_path):
        sc = config_scenario("fault_h3", horizon=30, structural_checks=False)
        out = []
        for i in range(2):
            res = run_scenario(sc)
            path = tmp_path / f"s{i}.csv"
            write_step_csv(res, path)
            out.append(path.read_bytes())
        assert out[0] == out[1]

    def test_error_row_on_failure(self, tmp_path):
        res = run_scenario(_failing_scenario(), raise_filter_errors=False)
        path = tmp_path / "steps.csv"
        write_step_csv(res, path)
        rows = path.read_text().splitlines()
        assert len(rows) == 2
        assert "ULISE:ERROR" in rows[1]

    def test_a_long_non_finite_estimate_stays_on_its_error_row(self, tmp_path):
        # 20 states: numpy would wrap the printed xhat over two lines, and
        # the error row over three CSV rows
        n = 20
        e1 = np.eye(n)[:, :1]
        step = SystemStep(A=1.9 * np.eye(n), B=np.zeros((n, 0)), C=np.eye(n),
                          D=np.zeros((n, 0)), G=e1, H=np.zeros((n, 1)),
                          Q=1e-2 * np.eye(n), R=1e-2 * np.eye(n))
        sc = Scenario(model=SystemModel.time_invariant(step), horizon=5,
                      d_signals=[Constant(0.0)], u_signals=[], x0_true=np.zeros(n),
                      x0_mean=np.full(n, 1e308), p0=np.eye(n), noise_seed=0,
                      filters=("ULISE",))
        with np.errstate(all="ignore"):
            res = run_scenario(sc, raise_filter_errors=False)
        assert res.filters["ULISE"].error == (
            f"step 1: non-finite estimate: xhat = [{' '.join(['nan'] * n)}] and dhat = [nan]")
        path = tmp_path / "steps.csv"
        write_step_csv(res, path)
        with open(path, newline="") as fh:
            assert [len(row) for row in csv.reader(fh)] == [n + 7, n + 7]

    def test_summary_row_is_empty_without_a_steady_state(self, tmp_path):
        # ULISE fails at step 1, before the steady window starts
        res = run_scenario(_failing_scenario(), raise_filter_errors=False)
        assert res.filters["ULISE"].steady == {}
        path = tmp_path / "summary.csv"
        write_summary_csv(res, path)
        rows = path.read_text().splitlines()
        assert len(rows[0].split(",")) == 11
        assert rows[1:] == ["ULISE" + "," * 10]

    @pytest.mark.parametrize("case", ["fault_h1", "failed_mid_run", "p_zero"])
    def test_bytes_equal_per_value_writer(self, tmp_path, case):
        if case == "fault_h1":
            sc = _config_scenario("fault_h1", 300)      # 3 filters
        elif case == "failed_mid_run":
            sc = _undetectable_scenario()                # error rows after steps
        else:
            model = random_system(np.random.default_rng(1), n=3, l=2, p=0, p_h=0)
            sc = Scenario(model=model, horizon=50, d_signals=[],
                          u_signals=[Constant(0.0)], x0_true=np.zeros(3),
                          x0_mean=np.zeros(3), p0=np.eye(3), noise_seed=1,
                          filters=("ULISE", "KALMAN"), structural_checks=False)
        res = run_scenario(sc, raise_filter_errors=False)
        if case == "failed_mid_run":
            assert all(0 < fr.xhat.shape[0] < sc.horizon for fr in res.filters.values())
        path = tmp_path / "steps.csv"
        write_step_csv(res, path)
        assert path.read_bytes() == per_value_step_csv(res).encode()

    def test_kalman_only_has_no_input_columns(self, tmp_path):
        rng = np.random.default_rng(1)
        model = random_system(rng, n=3, l=2, p=0, p_h=0)
        sc = Scenario(model=model, horizon=10, d_signals=[],
                      u_signals=[Constant(0.0)], x0_true=np.zeros(3),
                      x0_mean=np.zeros(3), p0=np.eye(3), noise_seed=1,
                      filters=("KALMAN",), structural_checks=False)
        res = run_scenario(sc)
        path = tmp_path / "steps.csv"
        write_step_csv(res, path)
        header = path.read_text().splitlines()[0]
        assert "dhat" not in header


def _with_eigenvalue(a, w0):
    """The symmetric matrix ``a`` with its smallest eigenvalue set to ``w0``."""
    w, v = np.linalg.eigh(a)
    w[0] = w0
    return symmetrize((v * w) @ v.T)


def _noise_case_scenario(base, bad_k, horizon, **changes):
    """A time-varying model of ``base`` whose steps from ``bad_k`` on have
    the matrices ``changes``, with ``horizon_hint = bad_k - 1`` so that
    ``validate``'s range ends just before them, and a one-run
    scenario around it."""
    changed = dataclasses.replace(base, **changes)
    model = SystemModel.time_varying(lambda k: changed if k >= bad_k else base,
                                     dims=(base.n, base.m, base.p, base.l),
                                     horizon_hint=bad_k - 1)
    return Scenario(model=model, horizon=horizon, d_signals=[Constant(0.0)] * base.p,
                    u_signals=[Constant(0.0)] * base.m, x0_true=np.zeros(base.n),
                    x0_mean=np.zeros(base.n), p0=np.eye(base.n), noise_seed=3,
                    filters=("ULISE",), structural_checks=False)


_LISE_STEPS = [(ulise_init, ulise_step), (plise_init, plise_step), (ulise_init, cywz_step)]


def _first_failure(init, step_fn, model, horizon, rng):
    """``(k, error)`` of the first step of the filter over ``horizon`` steps
    of drawn data that raises, or ``None``."""
    ys = rng.standard_normal((horizon + 1, model.l))
    us = rng.standard_normal((horizon + 1, model.m))
    state = init(model, np.zeros(model.n), np.eye(model.n), ys[0], us[0])
    for k in range(1, horizon + 1):
        try:
            state, _ = step_fn(state, ys[k], us[k], us[k - 1], model)
        except LiseError as exc:
            return k, exc
    return None


class TestOneVerdictPerStep:
    """validate, the filters' steps and the truth judge a step by one rule,
    that of the step's context."""

    def test_r_too_badly_conditioned_past_the_validated_window_fails_every_reader(self):
        # fault_h1 whose R has condition number 1e13 from k = 11 on, past the
        # horizon_hint of 10: a Cholesky factorization accepts such an R,
        # and the steps used to run on it to k = 40
        base = config_scenario("fault_h1").model.step(0)
        w = np.linalg.eigvalsh(base.R)
        sc = _noise_case_scenario(base, 11, 40, R=_with_eigenvalue(base.R, w[-1] * 1e-13))
        model = sc.model
        assert validate(model) == []
        to_40 = dataclasses.replace(model, horizon_hint=40)
        assert [(v.index, v.field, v.message) for v in validate(to_40)] == [
            (k, "R", "R not PD") for k in range(11, 41)]
        message = "^measurement covariance R is not PD at k=11$"
        for init, step_fn in _LISE_STEPS:
            k, exc = _first_failure(init, step_fn, model, 40, np.random.default_rng(2))
            assert k == 11 and type(exc) is NotPositiveDefiniteError
            assert re.match(message, str(exc))
        with pytest.raises(NotPositiveDefiniteError, match=message):
            simulate_truth(sc, range(2))

    # derandomized, as the replay property is: a random search would fail
    # now and then on the known PLISE breakdown below instead of on a new
    # defect (hypothesis's xfail examples are strict: one that passes fails)
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 31), st.integers(1, 4), st.integers(0, 1),
           st.sampled_from([("Q", 2.0), ("Q", -2.0), ("R", 10.0), ("R", 0.1)]))
    @example(seed=175359, bad_k=1, p_h=1, case=("R", 10.0)).xfail(
        raises=AssertionError,
        reason="ROADMAP item 11: on an R of condition 1e10, which validate admits, "
               "plise_step raises NumericalError at step 5 (r2_tilde's Cholesky)")
    def test_validate_steps_and_truth_agree_across_the_thresholds(self, seed, bad_k, p_h,
                                                                   case):
        # a Q eigenvalue at +-2 zero_abs times its scale, or an R condition
        # number of 0.1 or 10 times 1 / rank_rel, from step bad_k on
        name, factor = case
        rng = np.random.default_rng(seed)
        base = random_system(rng, n=4, l=3, p=1, p_h=p_h).step(0)
        a = getattr(base, name)
        if name == "Q":
            w0 = factor * DEFAULT_TOL.zero_abs * max(1.0, float(np.max(np.abs(a))))
        else:
            w0 = np.linalg.eigvalsh(a)[-1] * DEFAULT_TOL.rank_rel * factor
        horizon = 5
        sc = _noise_case_scenario(base, bad_k, horizon, **{name: _with_eigenvalue(a, w0)})
        to_horizon = dataclasses.replace(sc.model, horizon_hint=horizon)
        found = [(v.index, v.field) for v in validate(to_horizon)]
        violated = bool(found)
        assert found == ([(k, name) for k in range(bad_k, horizon + 1)] if violated else [])
        naming = re.compile(rf"\b{name}\b.* at k={bad_k}$")
        for init, step_fn in _LISE_STEPS:
            failure = _first_failure(init, step_fn, sc.model, horizon, rng)
            named = failure is not None and failure[0] == bad_k and bool(
                naming.search(str(failure[1])))
            assert named == violated, failure
            assert violated or failure is None, failure
        try:
            simulate_truth(sc, 0)
            truth_named = False
        except (InvalidInputError, NotPositiveDefiniteError) as exc:
            truth_named = bool(naming.search(str(exc)))
        assert truth_named == violated
        assert violated == ((name, factor) in {("Q", -2.0), ("R", 0.1)})

    def test_one_run_factors_q_and_r_once_and_never_by_cholesky(self, monkeypatch):
        # validation, the truth and the three filters read one step context:
        # one eigendecomposition each of Q and R, and no Cholesky of R
        sc = config_scenario("fault_h1", horizon=200, structural_checks=False)
        step = sc.model.step(0)
        fresh = dataclasses.replace(sc, model=SystemModel.time_invariant(
            SystemStep(**{name: np.array(getattr(step, name)) for name in "ABCDGHQR"})))
        targets = {symmetrize(step.Q).tobytes(): "Q", symmetrize(step.R).tobytes(): "R"}
        seen, cholesky = [], []
        real_eigh, real_cholesky = lise.linalg.eigh, np.linalg.cholesky
        monkeypatch.setattr(lise.linalg, "eigh",
                            lambda a: seen.append(targets.get(a.tobytes())) or real_eigh(a))
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda a: cholesky.append(a) or real_cholesky(a))
        run_scenario(fresh)
        assert sorted(name for name in seen if name) == ["Q", "R"]
        assert cholesky == []
