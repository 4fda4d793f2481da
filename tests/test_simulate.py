import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lise.simulate
from conftest import config_scenario, online_plant, random_system
from oracles import (fault_input_samples, per_run_truth_oracle,
                     per_step_full_pass_oracle, per_step_replay_oracle,
                     per_value_step_csv)
from lise.cli import main as cli_main
from lise.errors import InvalidInputError
from lise.linalg import DEFAULT_TOL, _norm
from lise.signals import (Constant, Ramp, Samples, SquareWave, sample_signal,
                          sample_signals)
from lise.simulate import (
    _INITS,
    _STEPS,
    FilterFailure,
    _CycleDetector,
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
from lise.model import SystemModel, SystemStep
from lise.structural import strong_detectability

ROOT = Path(__file__).resolve().parent.parent
CONFIG_NAMES = ("fault_h1", "fault_h2", "fault_h3", "fault_h4", "fault_h5",
                "fault_h6", "vehicle_tracking")

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
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

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
    ("steady_window", True, "steady_window must be a real number, got True"),
    ("steady_window", "0.5", "steady_window must be a real number, got '0.5'"),
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
@given(st.integers(0, 2 ** 31), st.sampled_from([1, 3, 7]), st.integers(1, 12),
       st.booleans())
def test_batched_truth_equals_per_run_loop_bitwise(seed, runs, horizon, varying):
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
        assert np.array_equal(batch.x[r], x) and np.array_equal(batch.y[r], y)
        assert np.array_equal(single.x, x) and np.array_equal(single.y, y)
        for got in (batch, single):
            assert np.array_equal(got.d, d) and np.array_equal(got.u, u)


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
            assert fr.seconds_per_step > 0

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

        def poisoned(scenario, run_index, tol):
            truth = real(scenario, run_index, tol)
            truth.y[:, 7, 0] = np.nan
            return truth

        monkeypatch.setattr(lise.simulate, "simulate_truth", poisoned)
        sc = config_scenario("fault_h1", horizon=20, monte_carlo=3, structural_checks=False)
        res = run_scenario(sc, raise_filter_errors=False)
        for fr in res.filters.values():
            assert fr.failed_at == 7 and "y at k=7" in fr.error
            assert fr.xhat.shape[0] == 6 and np.all(np.isfinite(fr.xhat))
            assert fr.steady == {}   # failed before the tail window

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
            assert np.array_equal(getattr(a, field), getattr(b, field)), (name, field)
        assert len(a.gain_l_series) == len(b.gain_l_series)
        for la, lb in zip(a.gain_l_series, b.gain_l_series):
            assert np.array_equal(la, lb), name
        assert a.max_unbiasedness == b.max_unbiasedness, name
        assert (a.error, a.failed_at) == (b.error, b.failed_at), name


def _assert_periodic_from_cycle(fr):
    start, period = fr.gain_cycle
    assert 1 <= period < start <= fr.xhat.shape[0]
    gains = np.array(fr.gain_l_series)
    for series in (fr.px_diag, fr.pd_diag, gains):
        tail = series[start - 1:]
        assert np.array_equal(tail, series[start - 1 - period:len(series) - period])


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
        # served, those of period > 1 included (fault_h4, fault_h5, fault_h6)
        sc = config_scenario(config, structural_checks=False)
        res = run_scenario(sc)
        _assert_same_runs(res, _per_step_run(sc))
        got = {name: fr.gain_cycle for name, fr in res.filters.items()}
        assert got == self.BUNDLED_CYCLES[config]

    # (k, period) of FilterRun.gain_cycle per filter at each config's horizon
    BUNDLED_CYCLES = {
        "fault_h1": {"ULISE": (129, 1), "PLISE": (133, 5), "CYWZ": (129, 1)},
        "fault_h2": {"ULISE": (129, 1), "PLISE": (129, 1), "CYWZ": (129, 1)},
        "fault_h3": {"ULISE": (65, 1), "PLISE": None, "CYWZ": (65, 1)},
        "fault_h4": {"ULISE": (130, 2), "PLISE": None, "CYWZ": (130, 2)},
        "fault_h5": {"ULISE": (65, 1), "PLISE": (424, 168), "CYWZ": (66, 2)},
        "fault_h6": {"ULISE": (65, 1), "PLISE": (273, 17), "CYWZ": (65, 1)},
        "vehicle_tracking": {"ULISE": None, "PLISE": None},
    }

    @pytest.mark.parametrize("config", CONFIG_NAMES)
    def test_bundled_configs_detect_their_cycles(self, config):
        # pins where Brent's detector first sees the covariance state repeat,
        # so a change to the state or its key cannot move it unnoticed
        res = run_scenario(config_scenario(config, structural_checks=False))
        got = {name: fr.gain_cycle for name, fr in res.filters.items()}
        assert got == self.BUNDLED_CYCLES[config]

    @pytest.mark.parametrize("runs", [1, 4])
    def test_kalman_serves_its_fixed_point(self, runs):
        # the Kalman filter is keyed and served like every other filter
        sc = _no_input_scenario(200, runs)
        res = run_scenario(sc)
        assert res.filters["KALMAN"].gain_cycle == (65, 1)
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

        def poisoned(scenario, run_index, tol):
            truth = real(scenario, run_index, tol)
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

        def poisoned(scenario, run_index, tol):
            truth = real(scenario, run_index, tol)
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


def _assert_replay_matches_oracle(sc):
    """Replay every filter's schedule over the MC batch against the frozen
    batched recursion: each array within 1e-11 of the oracle, relative to
    its largest entry (at least 1)."""
    truth = simulate_truth(sc, range(sc.monte_carlo))
    truth0 = TruthTrajectories(x=truth.x[0], y=truth.y[0], d=truth.d, u=truth.u)
    for name in sc.filters:
        gains = _full_pass(name, sc, truth0, DEFAULT_TOL)[4]
        if not gains:
            continue
        got = _apply_schedule(gains, truth.y, truth.u, sc.x0_mean)
        want = per_step_replay_oracle(name, gains, truth.y, truth.u, sc.x0_mean)
        for a, b in zip(got, want):
            assert a.shape == b.shape, name
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
                gains = _full_pass(name, sc, truth0, DEFAULT_TOL)[4]
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


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(5, 40), st.integers(2, 6))
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
    for fr in res.filters.values():
        if fr.gain_cycle is not None:
            _assert_periodic_from_cycle(fr)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 300), st.integers(1, 300))
def test_cycle_detector_finds_minimal_period_at_brent_bound(mu, lam):
    # keys 1..mu-1 are distinct, then a cycle of lam distinct keys repeats
    def key(j):
        return b"pre%d" % j if j < mu else b"cyc%d" % ((j - mu) % lam)

    c = 1
    while c < max(mu, lam):
        c *= 2
    det = _CycleDetector()
    for j in range(1, c + lam):
        assert det.observe(key(j)) is None, j
    assert det.observe(key(c + lam)) == lam


@pytest.mark.parametrize("count", [200, 2000])
def test_cycle_detector_memory_does_not_grow_with_the_horizon(count):
    size = 4096
    det = _CycleDetector()
    tracemalloc.start()
    try:
        for j in range(count):
            assert det.observe(j.to_bytes(8, "little") * (size // 8)) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * size   # the saved key and the one being observed


def test_python_m_lise_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "lise", "--help"],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "analyze" in proc.stdout


@pytest.mark.parametrize("script, first_line", [
    ("run_fault_benchmark.py", ["variant", "filter", "px_11", "px_22", "px_33", "px_44",
                                "px_55", "pd_11", "pd_22", "pd_33"]),
    ("run_vehicle_tracking.py", ["discretized", "model:", "n=4,", "l=4,", "p=2"]),
])
def test_scripts_run(script, first_line):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--horizon", "60"],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].split() == first_line


def test_vehicle_script_rejects_a_horizon_past_its_signals():
    # the config's bias samples and known input end at its horizon, 1000
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_vehicle_tracking.py"),
                           "--horizon", "1001"],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "--horizon may not exceed the config's horizon 1000" in proc.stderr
    assert proc.stdout == ""


def test_samples_shorter_than_the_horizon_are_rejected():
    # the config's bias samples cover k = 0..1000
    sc = config_scenario("vehicle_tracking", horizon=2000)
    with pytest.raises(InvalidInputError,
                       match=r"d_signals\[1\] has 1001 samples, but horizon 2000"):
        run_scenario(sc)


def test_cli_run_rejects_samples_shorter_than_the_horizon(tmp_path, capsys):
    text = (ROOT / "configs" / "vehicle_tracking.yaml").read_text()
    assert text.count("horizon: 1000") == 1
    cfg = tmp_path / "vehicle_2000.yaml"
    cfg.write_text(text.replace("horizon: 1000", "horizon: 2000"))
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) != 0
    assert "d_signals[1] has 1001 samples, but horizon 2000" in capsys.readouterr().err


def test_time_varying_filter_pass_fetches_each_step_once(monkeypatch):
    base = config_scenario("fault_h1")
    s1 = base.model.step(0)
    calls = [0]

    def provider(k):
        calls[0] += 1
        return SystemStep(A=(1.0 + 0.2 * math.sin(k / 80.0)) * s1.A, B=s1.B, C=s1.C,
                          D=s1.D, G=s1.G, H=s1.H, Q=s1.Q, R=s1.R)

    in_pass = []

    def counted_pass(*args):
        start = calls[0]
        res = _full_pass(*args)
        in_pass.append(calls[0] - start)
        return res

    monkeypatch.setattr(lise.simulate, "_full_pass", counted_pass)
    model = SystemModel.time_varying(provider, dims=(s1.n, s1.m, s1.p, s1.l),
                                     horizon_hint=1000)
    sc = dataclasses.replace(base, model=model, horizon=1000, filters=("ULISE",),
                             structural_checks=False)
    run_scenario(sc)
    assert len(in_pass) == 1 and in_pass[0] <= sc.horizon + 1
    # validation and truth simulation fetch every step once more each
    assert calls[0] <= 3 * (sc.horizon + 1)


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
