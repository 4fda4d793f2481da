"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing a pass line (run with ``pytest -s`` to see them).

The deterministic criteria share one set of benchmark runs (module-scoped
fixtures) so the whole suite stays fast.
"""

import time

import numpy as np
import pytest

from conftest import config_scenario, random_system
from oracles import full_rank_gain_oracle, no_feedthrough_oracle
from lise.filters import (
    GammaPolicy,
    kalman_init,
    kalman_step,
    plise_init,
    plise_step,
    ulise_init,
    ulise_step,
)
from lise.model import SystemModel, SystemStep
from lise.simulate import empirical_error_covariance, run_scenario
from lise.structural import strong_detectability

# steady-state covariance diagonals of the six benchmark variants
# (px_11..px_55, pd_11..pd_33), printed at four decimals
STEADY_TABLE = {
    1: {"CYWZ":  (0.1843, 0.0091, 0.0002, 0.0004, 0.0001, 0.0099, 0.0102, 0.1923),
        "ULISE": (0.1843, 0.0091, 0.0002, 0.0004, 0.0001, 0.0099, 0.0102, 0.1923),
        "PLISE": (0.1843, 0.0091, 0.0002, 0.0004, 0.0001, 0.0099, 0.0102, 0.1923)},
    2: {"CYWZ":  (0.1494, 0.0052, 0.0002, 0.0004, 0.0001, 0.0097, 0.0102, 0.1574),
        "ULISE": (0.1494, 0.0052, 0.0002, 0.0004, 0.0001, 0.0097, 0.0102, 0.1574),
        "PLISE": (0.1614, 0.0053, 0.0002, 0.0004, 0.0001, 0.0102, 0.0102, 0.1889)},
    3: {"CYWZ":  (0.0076, 0.0052, 0.0002, 0.0004, 0.0001, 0.0097, 0.0102, 0.3906),
        "ULISE": (0.0076, 0.0052, 0.0002, 0.0004, 0.0001, 0.0097, 0.0102, 0.3906),
        "PLISE": (0.0076, 0.0053, 0.0002, 0.0004, 0.0001, 0.0102, 0.0102, 0.3961)},
    4: {"CYWZ":  (0.0076, 0.0257, 0.0002, 0.0004, 0.0001, 0.0348, 0.0102, 0.4925),
        "ULISE": (0.0076, 0.0257, 0.0002, 0.0004, 0.0001, 0.0348, 0.0102, 0.4925),
        "PLISE": (0.0076, 0.0258, 0.0002, 0.0004, 0.0001, 0.0349, 0.0102, 0.4925)},
    5: {"CYWZ":  (0.0079, 0.0074, 0.0002, 0.0004, 0.0001, 0.0089, 0.0102, 0.0099),
        "ULISE": (0.0079, 0.0074, 0.0002, 0.0004, 0.0001, 0.0089, 0.0102, 0.0099),
        "PLISE": (0.0079, 0.0074, 0.0002, 0.0004, 0.0001, 0.0089, 0.0102, 0.0150)},
    6: {"CYWZ":  (0.0076, 0.0218, 0.0002, 0.0004, 0.0001, 0.0309, 0.0102, 0.0097),
        "ULISE": (0.0076, 0.0218, 0.0002, 0.0004, 0.0001, 0.0309, 0.0102, 0.0097),
        "PLISE": (0.0078, 0.0257, 0.0002, 0.0004, 0.0001, 0.0368, 0.0102, 0.0165)},
}

ZERO_SETS = {
    1: [0.3, 0.8],
    2: [0.1, 0.3, 0.5, 0.7, 0.8],
    3: [],
    4: [-0.8, 0.3],
    5: [],
    6: [-0.8, 0.1, 0.3, 0.35, 0.7],
}

MC_SEEDS = (101, 202, 303)
MC_RUNS = 1000
MC_HORIZON = 420


@pytest.fixture(scope="module")
def benchmark_runs():
    t0 = time.time()
    runs = {i: run_scenario(config_scenario(f"fault_h{i}", structural_checks=False))
            for i in range(1, 7)}
    runs["elapsed"] = time.time() - t0
    return runs


@pytest.fixture(scope="module")
def mc_runs():
    out = []
    for seed in MC_SEEDS:
        sc = config_scenario("fault_h1", horizon=MC_HORIZON, noise_seed=seed,
                             filters=("ULISE",), monte_carlo=MC_RUNS,
                             structural_checks=False)
        out.append(run_scenario(sc))
    return out


@pytest.fixture(scope="module")
def vehicle_run():
    return run_scenario(config_scenario("vehicle_tracking"))


def test_criterion_01_steady_state_table(benchmark_runs):
    worst = 0.0
    for i in range(1, 7):
        for name in ("CYWZ", "ULISE", "PLISE"):
            fr = benchmark_runs[i].filters[name]
            got = np.concatenate([fr.steady["px_diag"], fr.steady["pd_diag"]])
            err = float(np.max(np.abs(got - np.array(STEADY_TABLE[i][name]))))
            worst = max(worst, err)
            assert err < 5e-4, (i, name, got)
    print(f"\n[criterion 1] PASS: all 18 steady-state rows within {worst:.2e} "
          f"of the printed values ({benchmark_runs['elapsed']:.1f}s for 6 systems)")


def test_criterion_02_invariant_zeros_and_detectability():
    t0 = time.time()
    for i in range(1, 7):
        step = config_scenario(f"fault_h{i}").model.step(0)
        det = strong_detectability(step)
        zs = np.sort_complex(det.zeros.zeros)
        want = ZERO_SETS[i]
        assert len(zs) == len(want), (i, zs)
        for z, w in zip(zs, want):
            assert abs(z - w) < 1e-6, (i, z, w)
        assert det.detectable, i
    print(f"\n[criterion 2] PASS: six zero sets reproduced to 1e-6 with no "
          f"spurious zeros, all strongly detectable ({time.time() - t0:.2f}s)")


def test_criterion_03_kalman_equivalence():
    rng = np.random.default_rng(1234)
    steps_per_system = 20
    for trial in range(100):
        n = int(rng.integers(2, 6))
        l = int(rng.integers(1, n + 1))
        m = int(rng.integers(0, 3))
        model = random_system(rng, n=n, l=l, p=0, p_h=0, m=m)
        ys = rng.standard_normal((steps_per_system + 1, l))
        us = rng.standard_normal((steps_per_system + 1, m))
        x0 = rng.standard_normal(n)
        p0 = np.eye(n)
        ks = kalman_init(model, x0, p0)
        uls = ulise_init(model, x0, p0, ys[0], us[0])
        pls = plise_init(model, x0, p0, ys[0], us[0])
        for k in range(1, steps_per_system + 1):
            ks, ko = kalman_step(ks, ys[k], us[k], us[k - 1], model)
            uls, uo = ulise_step(uls, ys[k], us[k], us[k - 1], model)
            pls, po = plise_step(pls, ys[k], us[k], us[k - 1], model)
            for o in (uo, po):
                assert np.allclose(o.xhat, ko.xhat, atol=1e-10)
                assert np.allclose(o.px, ko.px, atol=1e-10)
    print("\n[criterion 3] PASS: 100 random p=0 systems, both variants match "
          "the Kalman recursion to 1e-10 at every step")


def test_criterion_04_special_case_oracles():
    rng = np.random.default_rng(99)
    # no feedthrough: both variants against the closed-form recursion
    for trial in range(100):
        n = int(rng.integers(3, 6))
        l = int(rng.integers(2, n + 1))
        p = int(rng.integers(1, l))
        model = random_system(rng, n=n, l=l, p=p, p_h=0)
        ys = rng.standard_normal((13, l))
        us = rng.standard_normal((13, 1))
        x0 = rng.standard_normal(n)
        oracle = no_feedthrough_oracle(model, ys, us, x0, np.eye(n))
        for init, step_fn in ((ulise_init, ulise_step), (plise_init, plise_step)):
            state = init(model, x0, np.eye(n), ys[0], us[0])
            for k in range(1, 13):
                state, out = step_fn(state, ys[k], us[k], us[k - 1], model,
                                     GammaPolicy.PSEUDO_INVERSE)
                xh, px, dh, pd = oracle[k - 1]
                assert np.allclose(out.xhat, xh, atol=1e-9)
                assert np.allclose(out.px, px, atol=1e-9)
                assert np.allclose(out.dhat_prev, dh, atol=1e-9)
    # full-column-rank feedthrough: the gain against its closed form; the
    # square full-row-rank case must annihilate the update entirely
    for trial in range(100):
        full_row = trial % 2 == 1
        n = int(rng.integers(3, 6))
        if full_row:
            # l = p leaves no feedthrough-free channel, so the filter runs
            # open loop; pin the decoupled dynamics stable by construction
            l = p = int(rng.integers(1, n + 1))
            model = _full_row_rank_system(rng, n, l)
        else:
            l = int(rng.integers(2, n + 1))
            p = int(rng.integers(1, l))
            model = random_system(rng, n=n, l=l, p=p, p_h=p)
        step0 = model.step(0)
        ys = rng.standard_normal((7, l))
        us = rng.standard_normal((7, 1))
        state = ulise_init(model, rng.standard_normal(n), np.eye(n), ys[0], us[0])
        for k in range(1, 7):
            state, out = ulise_step(state, ys[k], us[k], us[k - 1], model)
            oracle = full_rank_gain_oracle(step0, out.px_star)
            scale = max(1.0, float(np.linalg.norm(oracle)),
                        float(np.linalg.norm(out.px_star)))
            assert np.linalg.norm(out.gains.gain_l - oracle) <= 1e-9 * scale
            if full_row:
                assert np.linalg.norm(out.gains.gain_l) <= 1e-9 * scale
    print("\n[criterion 4] PASS: 100 no-feedthrough systems match the "
          "closed-form recursion to 1e-9; 100 full-rank-feedthrough systems "
          "match the closed-form gain to 1e-9")


def _full_row_rank_system(rng, n, l):
    """Random system with square invertible feedthrough whose decoupled
    dynamics has a prescribed stable spectrum (A is solved for afterwards)."""
    from conftest import random_pd, random_psd, stable_matrix
    from lise.decomposition import decompose
    from lise.model import validate

    p = l
    while True:
        h = rng.standard_normal((l, p)) + 2.0 * np.eye(l, p)
        g = rng.standard_normal((n, p))
        c = rng.standard_normal((l, n))
        r = random_pd(rng, l, 0.5)
        q = random_psd(rng, n, 0.3)
        ahat = stable_matrix(rng, n, 0.85)
        probe = SystemStep(A=np.zeros((n, n)), B=np.zeros((n, 1)), C=c,
                           D=np.zeros((l, 1)), G=g, H=h, Q=q, R=r)
        dec = decompose(probe)
        if dec.p_h != p:
            continue
        a = ahat + dec.G1 @ dec.sigma_inv @ dec.C1
        step = SystemStep(A=a, B=np.zeros((n, 1)), C=c, D=np.zeros((l, 1)),
                          G=g, H=h, Q=q, R=r)
        model = SystemModel.time_invariant(step)
        if not validate(model):
            return model


def test_criterion_05_monte_carlo_unbiasedness(mc_runs):
    k_eval = 400
    for seed, res in zip(MC_SEEDS, mc_runs):
        fr = res.filters["ULISE"]
        ex = fr.err_x_runs[:, k_eval - 1, :]     # state error at k given k
        ed = fr.err_d_runs[:, k_eval, :]         # input error at time k
        for errs, label in ((ex, "x"), (ed, "d")):
            mean = errs.mean(axis=0)
            se = errs.std(axis=0, ddof=1) / np.sqrt(errs.shape[0])
            assert np.all(np.abs(mean) <= 4.0 * se), (seed, label, mean, se)
    print(f"\n[criterion 5] PASS: sample-mean state and input errors at "
          f"k={k_eval} within 4 standard errors of zero for M={MC_RUNS}, "
          f"seeds {MC_SEEDS}")


def test_criterion_06_covariance_consistency(mc_runs):
    res = mc_runs[0]
    fr = res.filters["ULISE"]
    k_eval = 400
    emp = empirical_error_covariance(fr, k_eval, "x")
    reported = float(fr.px_diag[k_eval - 1].sum())
    rel = abs(np.trace(emp) - reported) / reported
    assert rel < 0.20, (np.trace(emp), reported)
    print(f"\n[criterion 6] PASS: empirical steady-state error-covariance "
          f"trace within {rel * 100:.1f}% of the reported trace")


def test_criterion_07_gain_convergence_forgets_initialization():
    runs = {}
    for scale in (1.0, 100.0):
        sc = config_scenario("fault_h1", horizon=400, filters=("ULISE",),
                             p0=scale * np.eye(5), structural_checks=False)
        runs[scale] = run_scenario(sc).filters["ULISE"].gain_l_series
    worst = 0.0
    for k in range(200, 401):
        d = np.linalg.norm(runs[1.0][k - 1] - runs[100.0][k - 1])
        worst = max(worst, d)
        assert d < 1e-8, k
    print(f"\n[criterion 7] PASS: gains from P0=I and P0=100I differ by at "
          f"most {worst:.2e} for k >= 200")


def test_criterion_08_optimal_variant_dominates(benchmark_runs):
    for i in range(1, 7):
        filters = benchmark_runs[i].filters
        u, p, c = filters["ULISE"], filters["PLISE"], filters["CYWZ"]
        assert u.steady["tr_px"] <= p.steady["tr_px"] + 1e-10, i
        assert u.steady["tr_pd"] <= p.steady["tr_pd"] + 1e-10, i
        du = np.concatenate([u.steady["px_diag"], u.steady["pd_diag"]])
        dc = np.concatenate([c.steady["px_diag"], c.steady["pd_diag"]])
        assert np.max(np.abs(du - dc)) < 5e-4, i
    print("\n[criterion 8] PASS: steady traces of the updated variant never "
          "exceed the propagated variant's; the OLS variant matches it to 5e-4")


def test_criterion_09_unbiasedness_constraints_every_step(benchmark_runs, vehicle_run):
    worst = 0.0
    for i in range(1, 7):
        for fr in benchmark_runs[i].filters.values():
            worst = max(worst, max(fr.max_unbiasedness.values()))
    for fr in vehicle_run.filters.values():
        worst = max(worst, max(fr.max_unbiasedness.values()))
    assert worst < 1e-10
    print(f"\n[criterion 9] PASS: gain constraints hold at every step of "
          f"every filter on every fixture (worst deviation {worst:.2e})")


def test_criterion_10_vehicle_tracking_end_to_end(vehicle_run):
    rep = vehicle_run.structural
    assert rep is not None and rep.strongly_detectable.detectable
    ratios = {}
    for name in ("ULISE", "PLISE"):
        fr = vehicle_run.filters[name]
        rms = fr.steady["rms_err_d"]
        sd = np.sqrt(fr.steady["pd_diag"])
        assert rms.shape == (2,)
        assert np.all(rms < 3.0 * sd), (name, rms, sd)
        ratios[name] = rms / sd
    print(f"\n[criterion 10] PASS: discretized tracking model is strongly "
          f"detectable; steady input-tracking RMS/sd ratios "
          f"{ {k: np.round(v, 2).tolist() for k, v in ratios.items()} } (< 3)")
