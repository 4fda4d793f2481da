import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lise.simulate
from conftest import random_system
from oracles import per_run_truth_oracle
from lise.benchmarks import (
    fault_d_signals,
    fault_input_samples,
    fault_scenario,
    fault_system,
)
from lise.errors import InvalidInputError
from lise.filters import ulise_init, ulise_step
from lise.signals import (Constant, Ramp, Samples, SquareWave, sample_signal,
                          sample_signals)
from lise.simulate import (
    FilterFailure,
    Scenario,
    empirical_error_covariance,
    run_scenario,
    simulate_truth,
    write_step_csv,
    write_summary_csv,
)
from lise.model import SystemModel, SystemStep


def _zero_noise_model():
    base = fault_system(1).step(0)
    step = SystemStep(A=base.A, B=base.B, C=base.C, D=base.D, G=base.G, H=base.H,
                      Q=np.zeros((5, 5)), R=1e-12 * np.eye(5))
    return SystemModel.time_invariant(step)


class TestSignals:
    def test_benchmark_fault_signal_values(self):
        d = sample_signals(fault_d_signals(), 1001)
        assert d[600, 0] == 1.0
        assert d[600, 1] == pytest.approx(500.0 / 700.0)
        assert d[600, 2] == 3.0
        assert d[499, 0] == 0.0 and d[701, 0] == 0.0
        assert d[99, 1] == 0.0 and d[801, 1] == 0.0

    def test_square_wave_matches_piecewise_definition(self):
        # the generic square wave must reproduce the explicitly written-out
        # on/off intervals, including the sign of every half period; the ramp
        # may differ by one ulp (slope*(k-k_on) vs (k-k_on)/700)
        d = sample_signals(fault_d_signals(), 1001)
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
        sc = fault_scenario(1, horizon=50)
        a = simulate_truth(sc)
        b = simulate_truth(sc)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_runs_have_independent_streams(self):
        sc = fault_scenario(1, horizon=50)
        a = simulate_truth(sc, run_index=0)
        b = simulate_truth(sc, run_index=1)
        assert not np.array_equal(a.y, b.y)
        assert np.array_equal(a.d, b.d)   # signals are shared, noise is not


def _rank_switching_model(rng):
    """Time-varying model whose feedthrough rank alternates 0 and 2."""
    steps = [random_system(rng, n=4, l=3, p=2, p_h=p_h).step(0) for p_h in (0, 2)]
    return SystemModel.time_varying(lambda k: steps[(k // 2) % 2], dims=(4, 1, 2, 3))


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
        # Monte-Carlo runs replay a precomputed gain schedule; run 1 must
        # equal a from-scratch sequential filter on run 1's data
        sc = fault_scenario(1, horizon=80, monte_carlo=3,
                            structural_checks=False)
        res = run_scenario(sc)
        truth1 = simulate_truth(sc, run_index=1)
        model = sc.model
        state = ulise_init(model, sc.x0_mean, sc.p0, truth1.y[0], truth1.u[0])
        for k in range(1, 81):
            state, out = ulise_step(state, truth1.y[k], truth1.u[k],
                                    truth1.u[k - 1], model, sc.gamma)
            replayed = res.filters["ULISE"].err_x_runs[1, k - 1] + truth1.x[k]
            assert np.allclose(out.xhat, replayed, atol=1e-11)

    def test_input_estimate_alignment(self):
        # with exact start and vanishing noise, the delayed estimate indexed
        # k-1 matches the true input at k-1 (produced from measurement k)
        model = _zero_noise_model()
        sc = Scenario(model=model, horizon=30,
                      d_signals=fault_d_signals(), u_signals=[Constant(0.0)],
                      x0_true=np.zeros(5), x0_mean=np.zeros(5),
                      p0=np.zeros((5, 5)), noise_seed=2, filters=("ULISE",),
                      structural_checks=False)
        res = run_scenario(sc)
        fr = res.filters["ULISE"]
        assert np.allclose(fr.dhat, res.truth.d[:30], atol=1e-4)

    def test_trace_series_positive_and_settled(self):
        res = run_scenario(fault_scenario(1, horizon=400, structural_checks=False))
        for fr in res.filters.values():
            assert np.all(fr.tr_px > 0) and np.all(fr.tr_pd > 0)
            tail = fr.tr_px[-80:]
            assert np.max(np.abs(np.diff(tail))) / tail[-1] < 1e-6
            assert fr.seconds_per_step > 0

    def test_structural_report_attached(self):
        res = run_scenario(fault_scenario(1, horizon=30))
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
        sc = fault_scenario(1, horizon=20, monte_carlo=3, structural_checks=False)
        res = run_scenario(sc, raise_filter_errors=False)
        for fr in res.filters.values():
            assert fr.failed_at == 7 and "y at k=7" in fr.error
            assert fr.xhat.shape[0] == 6 and np.all(np.isfinite(fr.xhat))
            assert fr.steady == {}   # failed before the tail window

    def test_time_varying_model_validated_over_whole_horizon(self):
        base = fault_system(1).step(0)
        singular_r = np.diag([1.0, 1.0, 1.0, 1.0, 0.0])

        def provider(k):
            return SystemStep(A=base.A, B=base.B, C=base.C, D=base.D, G=base.G,
                              H=base.H, Q=base.Q, R=base.R if k < 120 else singular_r)

        model = SystemModel.time_varying(provider, dims=(5, 1, 3, 5))
        sc = Scenario(model=model, horizon=150, d_signals=fault_d_signals(),
                      u_signals=[Constant(0.0)], x0_true=np.zeros(5),
                      x0_mean=np.zeros(5), p0=np.eye(5), noise_seed=3,
                      filters=("ULISE",), structural_checks=False)
        with pytest.raises(InvalidInputError, match=r"\[k=120\] R"):
            run_scenario(sc)

    def test_filter_failure_captured_when_requested(self):
        res = run_scenario(_failing_scenario(), raise_filter_errors=False)
        fr = res.filters["ULISE"]
        assert fr.error is not None and fr.failed_at == 1
        assert fr.xhat.shape[0] == 0


def _failing_scenario():
    base = fault_system(1).step(0)
    g_bad = np.array(base.G)
    g_bad[:, 0] = np.eye(5)[0]
    model = SystemModel.time_invariant(SystemStep(
        A=base.A, B=base.B, C=base.C, D=base.D, G=g_bad, H=base.H,
        Q=base.Q, R=base.R))
    return Scenario(model=model, horizon=10, d_signals=fault_d_signals(),
                    u_signals=[Constant(0.0)], x0_true=np.zeros(5),
                    x0_mean=np.zeros(5), p0=np.eye(5), noise_seed=3,
                    filters=("ULISE",), structural_checks=False)


class TestEmpiricalCovariance:
    def test_zero_noise_gives_zero_matrix(self):
        model = _zero_noise_model()
        sc = Scenario(model=model, horizon=20, d_signals=fault_d_signals(),
                      u_signals=[Constant(0.0)], x0_true=np.zeros(5),
                      x0_mean=np.zeros(5), p0=np.zeros((5, 5)), noise_seed=4,
                      filters=("ULISE",), monte_carlo=4, structural_checks=False)
        res = run_scenario(sc)
        cov = empirical_error_covariance(res.filters["ULISE"], 15, "x")
        assert np.allclose(cov, 0.0, atol=1e-10)
        assert np.allclose(cov, cov.T)

    def test_needs_at_least_two_runs(self):
        res = run_scenario(fault_scenario(1, horizon=10, structural_checks=False))
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
        res = run_scenario(fault_scenario(2, horizon=40, structural_checks=False))
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

    def test_deterministic_bytes(self, tmp_path):
        sc = fault_scenario(3, horizon=30, structural_checks=False)
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
