import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.signal
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lise.decomposition
import lise.structural
from conftest import CONFIGS, config_scenario, online_plant, random_system
from oracles import plise_circle_oracle, ulise_circle_oracle
from lise.cli import main as cli_main
from lise.config import load_config
from lise.errors import InvalidInputError, NotPositiveDefiniteError
from lise.linalg import DEFAULT_TOL, rank
from lise.model import SystemModel, SystemStep, validate
from lise.structural import (
    _pencil,
    analyze,
    build_observability_matrices,
    invariant_zeros,
    plise_stability_check,
    strong_detectability,
    strong_observability_ti,
    strong_observability_tv,
    ulise_convergence_check,
)

CONFIG_NAMES = ("fault_h1", "fault_h2", "fault_h3", "fault_h4", "fault_h5",
                "fault_h6", "vehicle_tracking")

# hand-derived zero sets for the rank-deficient feedthrough variants: with
# C = I the combined pencil loses rank exactly where (zI - A) H + G drops
# column rank, which reduces to small closed-form conditions per variant
PENCIL_ZEROS = {1: [0.3, 0.8], 3: [], 4: [-0.8, 0.3], 5: []}
# full-feedthrough variants report the spectrum of the decoupled dynamics
SPECTRUM_ZEROS = {2: [0.1, 0.3, 0.5, 0.7, 0.8], 6: [-0.8, 0.1, 0.3, 0.35, 0.7]}


def _rank_drop_oracle(step, zs):
    """Confirm candidate zeros by the (zI - A) H + G column-rank criterion
    (valid here because C is the identity)."""
    assert np.array_equal(step.C, np.eye(step.n))
    out = []
    for z in zs:
        m = (z * np.eye(step.n) - step.A) @ step.H + step.G
        if rank(m) < step.p:
            out.append(z)
    return out


class TestObservabilityMatrices:
    def test_window_zero(self, fault_models):
        mats = build_observability_matrices(fault_models[1], 0)
        from lise.decomposition import decompose

        dec = decompose(fault_models[1].step(0))
        assert np.allclose(mats.o2, dec.C2)
        assert mats.i22.shape[1] == 0

    def test_classical_stack_when_no_unknown_input(self):
        rng = np.random.default_rng(3)
        model = random_system(rng, n=4, l=2, p=0, p_h=0)
        step = model.step(0)
        r = 3
        mats = build_observability_matrices(model, r)
        stack = np.vstack([step.C @ np.linalg.matrix_power(step.A, k)
                           for k in range(r + 1)])
        assert np.allclose(mats.o2, stack)
        assert mats.i22.shape == (stack.shape[0], 0)

    def test_benchmark_dimensions(self, fault_models):
        # variant 1 has constant feedthrough rank 2: the invertibility matrix
        # gets p - 2 = 1 columns per window step
        r = 5
        mats = build_observability_matrices(fault_models[1], r)
        assert mats.o2.shape == ((r + 1) * 5 - 2 * (r + 1), 5)
        assert mats.i22.shape == (mats.o2.shape[0], 3 * r - 2 * r)
        combined_cols = mats.o2.shape[1] + mats.i22.shape[1]
        assert combined_cols == 5 + r * 3 - 2 * r == 10

    def test_block_lower_triangular(self, fault_models):
        mats = build_observability_matrices(fault_models[4], 4)
        for k in range(5):
            rows = slice(mats.row_offsets[k], mats.row_offsets[k + 1])
            for j in range(k, 4):
                cols = slice(mats.col_offsets[j], mats.col_offsets[j + 1])
                assert np.allclose(mats.i22[rows, cols], 0.0)


    def test_negative_window_rejected(self, fault_models):
        with pytest.raises(InvalidInputError, match="window length r must be nonnegative"):
            build_observability_matrices(fault_models[1], -1)

    def test_window_decomposes_once_per_run_of_equal_h(self, monkeypatch):
        # the online plant's H switches every 100 steps: a window over
        # k = 0-150 takes the previous step's decomposition on all but two
        model, _ = online_plant(150)
        built = []
        real = lise.decomposition.decompose
        monkeypatch.setattr(lise.decomposition, "decompose",
                            lambda step, tol: built.append(step) or real(step, tol))
        mats = build_observability_matrices(model, 150)
        assert len(built) == 2
        assert mats.p_h == [2] * 100 + [3] * 51

class TestStrongObservabilityTv:
    def test_classical_reduction(self):
        rng = np.random.default_rng(8)
        model = random_system(rng, n=4, l=2, p=0, p_h=0)
        v = strong_observability_tv(model, r=3)
        assert v.combined.required == 4
        assert v.observable

    def test_zero_free_variant_is_observable(self, fault_models):
        v = strong_observability_tv(fault_models[3], r=5)
        assert v.observable
        assert v.window_ok and v.o2_rank.ok
        assert all(c.ok for c in v.column_ranks)

    def test_variant_with_zeros_is_not(self, fault_models):
        assert not strong_observability_tv(fault_models[1], r=5).observable

    def test_window_condition_fails_when_l_equals_p(self):
        # l = p < n with no feedthrough: the window bound has no valid branch
        rng = np.random.default_rng(4)
        model = random_system(rng, n=3, l=2, p=2, p_h=0)
        v = strong_observability_tv(model, r=4)
        assert not v.window_ok
        assert v.r0 is None


class TestStrongObservabilityTi:
    def test_requires_time_invariant(self, fault_models):
        model = SystemModel.time_varying(lambda k: fault_models[1].step(0),
                                         dims=(5, 1, 3, 5))
        with pytest.raises(InvalidInputError):
            strong_observability_ti(model)

    def test_classical_reduction_observable_and_not(self):
        rng = np.random.default_rng(10)
        model = random_system(rng, n=4, l=2, p=0, p_h=0)
        assert strong_observability_ti(model).observable
        # an unobservable pair: a decoupled state never seen by C
        a = np.diag([0.5, 0.7, 0.9])
        step = SystemStep(A=a, B=np.zeros((3, 0)), C=np.array([[1.0, 0.0, 0.0]]),
                          D=np.zeros((1, 0)), G=np.zeros((3, 0)), H=np.zeros((1, 0)),
                          Q=np.eye(3), R=np.eye(1))
        assert not strong_observability_ti(SystemModel.time_invariant(step)).observable

    @pytest.mark.parametrize("idx,expect", [(1, False), (2, False), (3, True),
                                            (4, False), (5, True), (6, True)])
    def test_matches_exact_pencil_zero_freeness(self, idx, expect, fault_models):
        # full column rank of the decoupled pencil at every z is equivalent
        # to the stacked-window test.  The exact pencil rank-drop sets are
        # {0.3, 0.8}, {0.8}, {}, {0.3, -0.8}, {}, {} (hand-derivable from the
        # (zI - A) H + G criterion since C = I), so exactly variants 3, 5,
        # and 6 are strongly observable.
        v = strong_observability_ti(fault_models[idx])
        assert v.observable is expect
        if expect:
            assert v.witness_window is not None

    def test_rank_saturates_beyond_witness(self, fault_models):
        # once the window test passes at n it keeps passing for longer windows
        model = fault_models[3]
        n, p = model.n, model.p
        p_h = 2
        for r in (n, n + 1, n + 2):
            mats = build_observability_matrices(model, r)
            combined = np.hstack([mats.o2, mats.i22])
            assert rank(combined) == n + r * (p - p_h)


class TestInvariantZeros:
    @pytest.mark.parametrize("idx", [1, 3, 4, 5])
    def test_pencil_branch_matches_hand_derivation(self, idx, fault_models):
        zs = invariant_zeros(fault_models[idx].step(0))
        assert zs.method == "pencil"
        want = PENCIL_ZEROS[idx]
        assert len(zs.zeros) == len(want)
        for z, w in zip(np.sort_complex(zs.zeros), want):
            assert abs(z - w) < 1e-9
        confirmed = _rank_drop_oracle(fault_models[idx].step(0), want)
        assert confirmed == want

    @pytest.mark.parametrize("idx", [2, 6])
    def test_full_feedthrough_reports_decoupled_spectrum(self, idx, fault_models):
        zs = invariant_zeros(fault_models[idx].step(0))
        assert zs.method == "decoupled_spectrum"
        assert np.allclose(np.sort_complex(zs.zeros).real,
                           SPECTRUM_ZEROS[idx], atol=1e-9)
        assert np.allclose(np.sort_complex(zs.zeros).imag, 0.0, atol=1e-9)

    @pytest.mark.parametrize("idx", [1, 2, 4])
    def test_similarity_invariance(self, idx, fault_models):
        rng = np.random.default_rng(idx)
        t = np.eye(5) + 0.3 * rng.standard_normal((5, 5))
        assert np.linalg.cond(t) < 50
        s = fault_models[idx].step(0)
        ti = np.linalg.inv(t)
        transformed = SystemStep(A=t @ s.A @ ti, B=t @ s.B, C=s.C @ ti, D=s.D,
                                 G=t @ s.G, H=s.H, Q=t @ s.Q @ t.T, R=s.R)
        za = np.sort_complex(invariant_zeros(s).zeros)
        zb = np.sort_complex(invariant_zeros(transformed).zeros)
        assert za.shape == zb.shape
        assert np.allclose(za, zb, atol=1e-6)

    def test_squared_down_zero_pencil_contains_benchmark_zeros(self, fault_models):
        # squaring the rank-2 feedthrough benchmark's zero pencil z*E - F down
        # to a square one keeps the true zeros among its finite eigenvalues
        e, f = _pencil(fault_models[1].step(0), DEFAULT_TOL)
        rng = np.random.default_rng(5)
        w = rng.standard_normal((e.shape[1], e.shape[0]))
        alpha, beta = scipy.linalg.eig(w @ f, w @ e, right=False,
                                       homogeneous_eigvals=True)
        finite = np.abs(beta) > 1e-9 * np.abs(beta).max()
        zs = alpha[finite] / beta[finite]
        for want in (0.3, 0.8):
            assert np.min(np.abs(zs - want)) < 1e-6


class TestStrongDetectability:
    def test_all_benchmarks_detectable(self, fault_models):
        for idx in range(1, 7):
            v = strong_detectability(fault_models[idx].step(0))
            assert v.detectable, idx
            assert v.max_zero_modulus < 1.0

    def test_negative_zero_inside_circle_still_detectable(self, fault_models):
        v = strong_detectability(fault_models[4].step(0))
        assert any(abs(z + 0.8) < 1e-6 for z in v.zeros.zeros)
        assert v.detectable

    def test_unstable_zero_fails(self):
        # transfer function with a zero planted at 1.25 outside the circle
        a, b, c, d = scipy.signal.tf2ss([1.0, -1.25], [1.0, -0.7, 0.12])
        step = SystemStep(A=a, B=np.zeros((2, 0)), C=c, D=np.zeros((1, 0)),
                          G=b, H=d.reshape(1, 1) * 0.0, Q=np.eye(2), R=np.eye(1))
        zs = invariant_zeros(step)
        assert any(abs(z - 1.25) < 1e-8 for z in zs.zeros)
        assert not strong_detectability(step).detectable


def _pbh_zeros(step):
    """The eigenvalues of A-hat that (A-hat, C2) cannot observe (PBH test):
    the invariant zeros when H has full column rank."""
    ctx = lise.decomposition._step_context(step)
    out = []
    for z in np.linalg.eigvals(ctx.ahat):
        s = np.linalg.svd(np.vstack([ctx.ahat - z * np.eye(step.n), ctx.dec.C2]),
                          compute_uv=False)
        if s[-1] <= 1e-8 * s[0]:
            out.append(z)
    return out


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 8: with H of full column rank and l > p the "
                          "verdict reads the whole spectrum of A-hat, not the rank-drop "
                          "subset")
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 31))
def test_full_feedthrough_detectability_is_the_pbh_test(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    l = int(rng.integers(2, n + 1))
    p = int(rng.integers(1, l))
    step = random_system(rng, n=n, l=l, p=p, p_h=p).step(0)
    pbh = _pbh_zeros(step)
    want = max(map(abs, pbh), default=0.0) < 1.0 - DEFAULT_TOL.unit_circle_eps
    assert strong_detectability(step).detectable == want


class TestUliseConvergence:
    def test_benchmarks_all_converge(self, fault_models):
        for idx in range(1, 7):
            cert = ulise_convergence_check(fault_models[idx].step(0))
            assert cert.ok, (idx, cert)
            # no mode of A-hat near the circle: no point to test
            assert cert.circle.ok and cert.circle.min_sigma is None

    def test_kalman_collapse(self):
        rng = np.random.default_rng(2)
        model = random_system(rng, n=3, l=2, p=0, p_h=0)
        assert ulise_convergence_check(model.step(0)).ok

    def test_an_overflowing_q_hat_is_a_named_error(self):
        # a feedthrough input entering the dynamics with gain 1e200 adds
        # G1 Sigma^-1 R1 Sigma^-1 G1' = 1e400 to Q: the check names Q-hat,
        # and numpy warns nothing
        step = SystemStep(A=0.5 * np.eye(2), B=np.zeros((2, 1)), C=np.eye(2),
                          D=np.zeros((2, 1)), G=[[1e200], [0.0]], H=[[1.0], [0.0]],
                          Q=0.1 * np.eye(2), R=np.eye(2))
        with warnings.catch_warnings():
            # the decomposition's own product G1 Sigma^-1 R1 Sigma^-1 G1'
            # still warns as it overflows
            warnings.simplefilter("ignore", RuntimeWarning)
            assert validate(SystemModel.time_invariant(step)) == []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=r"^ULISE convergence check: Q-hat = Q "
                                                        r"\+ G1 Sigma\^-1 R1 Sigma\^-1 G1' "
                                                        r"overflows \(non-finite entries\)$"):
                ulise_convergence_check(step)

    def test_unit_circle_mode_without_noise_fails(self):
        # marginal mode, no process noise, nothing to excite it: the
        # stationary-gain certificate must fail on the circle
        step = SystemStep(A=np.eye(1), B=np.zeros((1, 0)), C=np.eye(1),
                          D=np.zeros((1, 0)), G=np.zeros((1, 0)), H=np.zeros((1, 0)),
                          Q=np.zeros((1, 1)), R=np.eye(1))
        cert = ulise_convergence_check(step)
        assert cert.status == "failed"
        assert cert.detectability.detectable        # no zeros at all
        assert not cert.circle.ok
        assert abs(cert.circle.worst_omega) < 1e-6  # drop at omega = 0

    def test_rank_precondition_reported(self, fault_models):
        s = fault_models[1].step(0)
        g_bad = np.array(s.G)
        g_bad[:, 0] = np.eye(5)[0]
        bad = SystemStep(A=s.A, B=s.B, C=s.C, D=s.D, G=g_bad, H=s.H, Q=s.Q, R=s.R)
        cert = ulise_convergence_check(bad)
        assert cert.status == "precondition_failed"
        assert "rank" in cert.reason


class TestPliseStability:
    def test_benchmarks_all_bounded(self, fault_models):
        for idx in range(1, 7):
            cert = plise_stability_check(fault_models[idx].step(0))
            assert cert.ok, (idx, cert)

    def test_kalman_collapse(self):
        rng = np.random.default_rng(6)
        model = random_system(rng, n=3, l=2, p=0, p_h=0)
        assert plise_stability_check(model.step(0)).ok

    def test_rank_precondition_reported(self, fault_models):
        s = fault_models[1].step(0)
        g_bad = np.array(s.G)
        g_bad[:, 0] = np.eye(5)[0]
        bad = SystemStep(A=s.A, B=s.B, C=s.C, D=s.D, G=g_bad, H=s.H, Q=s.Q, R=s.R)
        cert = plise_stability_check(bad)
        assert cert.status == "precondition_failed"

    def test_singular_noise_coupling_fails_the_precondition(self):
        # with p = 0 the coupling matrix Theta is R2 = R itself.  The step
        # rule admits an R whose eigenvalue ratio is rank_rel (w[0] >=
        # rank_rel * w[-1]), and the rank of Theta, which counts singular
        # values strictly above rank_rel times the largest, calls it singular
        step = SystemStep(A=0.5 * np.eye(2), B=np.zeros((2, 0)), C=np.eye(2),
                          D=np.zeros((2, 0)), G=np.zeros((2, 0)), H=np.zeros((2, 0)),
                          Q=np.eye(2), R=np.diag([1.0, DEFAULT_TOL.rank_rel]))
        assert validate(SystemModel.time_invariant(step)) == []
        cert = plise_stability_check(step)
        assert cert.status == "precondition_failed"
        assert cert.reason == "noise coupling matrix Theta is singular"
        assert cert.circle is None and cert.detectability is None
        # a worse conditioned R fails the step rule before any certificate
        with pytest.raises(NotPositiveDefiniteError, match="^measurement covariance R is not PD$"):
            plise_stability_check(dataclasses.replace(step, R=np.diag([1.0, 1e-12])))

    def test_large_process_noise_meets_the_precondition(self):
        # the exact equivalent process noise is PSD whenever R is PD; in
        # floating point, a process noise of 1e10 along the input direction
        # g (an eigenvector of A) leaves its smallest eigenvalue near -1.7e-7,
        # rounding at the scale of Q-hat, below the absolute zero_abs but not
        # below zero_abs times that scale
        g = np.array([[0.388], [0.922]])
        gg = g @ g.T
        step = SystemStep(A=0.5 * np.eye(2) + 0.3 * gg, B=np.zeros((2, 0)),
                          C=np.eye(2), D=np.zeros((2, 0)), G=g, H=np.zeros((2, 1)),
                          Q=1e10 * gg, R=np.eye(2))
        assert validate(SystemModel.time_invariant(step)) == []
        cert = plise_stability_check(step)
        assert cert.status != "precondition_failed", cert.reason
        assert cert.ok and cert.circle is not None and cert.detectability is not None

    def test_rule_level_q_eigenvalue_meets_the_precondition(self):
        # Q passes the PSD rule with an eigenvalue of -5e-11 along e1, which
        # the input projector N-hat maps onto 1e3 e2, where R2 (1e-12) adds
        # too little to cover it: the equivalent process noise has an
        # eigenvalue near -5e-5.  Judged at ||N-hat||^2 max(1, max|Q-hat|)
        # (about 1e6), that is rounding, and the verdict is the one of the
        # same step with that eigenvalue at zero
        step = SystemStep(A=0.5 * np.eye(3), B=np.zeros((3, 0)), C=np.array([[1.0, 0.0, 0.0]]),
                          D=np.zeros((1, 0)), G=np.array([[1.0], [1e3], [0.0]]),
                          H=np.zeros((1, 1)), Q=np.diag([-5e-11, 0.0, 1.0]),
                          R=np.array([[1e-12]]))
        assert validate(SystemModel.time_invariant(step)) == []
        cert = plise_stability_check(step)
        assert cert.status == "ok", cert.reason
        assert cert.circle is not None and cert.detectability is not None
        clamped = plise_stability_check(dataclasses.replace(step, Q=np.diag([0.0, 0.0, 1.0])))
        assert clamped.status == "ok"
        assert cert.circle.threshold == pytest.approx(clamped.circle.threshold, rel=1e-6)

    def test_noise_coupling_always_invertible_on_valid_systems(self, fault_models):
        # with R PD and the rank condition holding, the coupling matrix is
        # block-diagonalized by the input-direction projector into two PD
        # principal blocks (up to sign), so the singular branch cannot
        # trigger; confirm on every benchmark plus random systems
        from lise.decomposition import decompose

        rng = np.random.default_rng(0)
        steps = [fault_models[i].step(0) for i in range(1, 7)]
        steps += [random_system(rng, n=4, l=3, p=2, p_h=1).step(0) for _ in range(5)]
        for step in steps:
            dec = decompose(step)
            c2g2 = dec.C2 @ dec.G2
            m2t = np.linalg.pinv(c2g2)
            theta = dec.R2 - c2g2 @ m2t @ dec.R2 - dec.R2 @ m2t.T @ c2g2.T
            sv = np.linalg.svd(theta, compute_uv=False)
            assert sv[-1] > 1e-8 * sv[0]


class TestReport:
    def test_report_invariants_across_benchmarks(self, fault_models):
        for idx in range(1, 7):
            rep = analyze(fault_models[idx])
            if rep.strongly_observable.observable:
                assert rep.strongly_detectable.detectable
            if rep.ulise_convergent.ok:
                assert rep.strongly_detectable.detectable
            d = rep.to_dict()
            assert isinstance(d["invariant_zeros"], list)
            assert d["strongly_detectable"] is True

    def test_to_dict_carries_the_certificate_reasons(self, fault_models):
        # a G whose first column is e1 breaks the rank condition of both
        # certificates, which then name it as their reason
        s = fault_models[1].step(0)
        g_bad = np.array(s.G)
        g_bad[:, 0] = np.eye(5)[0]
        rep = analyze(SystemModel.time_invariant(SystemStep(
            A=s.A, B=s.B, C=s.C, D=s.D, G=g_bad, H=s.H, Q=s.Q, R=s.R)))
        d = rep.to_dict()
        assert d["ulise_convergent"] == d["plise_bounded"] == "precondition_failed"
        assert d["ulise_reason"] == rep.ulise_convergent.reason
        assert d["plise_reason"] == rep.plise_bounded.reason
        assert "ulise_circle_min_sigma" not in d

    def test_analyze_derives_the_decoupled_dynamics_once(self, monkeypatch, tmp_path):
        # every test of one analyze reads (Ahat, Qhat) from the step's
        # context, formed once for a freshly loaded model, and the CLI's
        # analyze, which runs the tests one by one, forms it once too
        calls = []
        real = lise.decomposition.decoupled_dynamics

        def counted(step, dec):
            calls.append(step)
            return real(step, dec)

        monkeypatch.setattr(lise.decomposition, "decoupled_dynamics", counted)
        # a module that imported the function by name would call it past
        # the patch; count those calls too
        monkeypatch.setattr(lise.structural, "decoupled_dynamics", counted, raising=False)
        for name in CONFIG_NAMES:
            path = CONFIGS / f"{name}.yaml"
            calls.clear()
            analyze(load_config(path).model)
            assert len(calls) == 1, name
            calls.clear()
            assert cli_main(["analyze", "--config", str(path)]) == 0
            assert len(calls) == 1, name

    def test_analyze_rejects_time_varying(self, fault_models):
        model = SystemModel.time_varying(lambda k: fault_models[1].step(0),
                                         dims=(5, 1, 3, 5))
        with pytest.raises(InvalidInputError):
            analyze(model)


def _assert_circles_match_per_point_scan(step):
    """Both certificates' circle verdicts equal the 721-point grid scan's;
    returns the two certificates."""
    ulise = ulise_convergence_check(step)
    if ulise.circle is not None:
        assert ulise.circle.ok == ulise_circle_oracle(step).ok
    plise = plise_stability_check(step)
    if plise.circle is not None:
        assert plise.circle.ok == plise_circle_oracle(step).ok
    return ulise, plise


def _unit_circle_draw(seed):
    """A system built to have modes on the unit circle.

    n = 2-5, l = 1..n, p = 0..l, H = 0, R = I and no known input.  A is
    T blockdiag T^-1 with T = randn + 2 I, and about 60 % of its blocks on
    the circle: rotations by 0.1-3.0 rad, or +-1; the others have radius
    0.2-0.95.  C is randn, G randn zeroed in 30 % of draws, and Q = F F^T
    of rank 0..n.
    """
    rng = np.random.default_rng(50_000 + seed)
    n = int(rng.integers(2, 6))
    l = int(rng.integers(1, n + 1))
    p = int(rng.integers(0, l + 1))
    blocks = []
    size = 0
    while size < n:
        on = rng.random() < 0.6
        if n - size >= 2 and rng.random() < 0.5:
            th = rng.uniform(0.1, 3.0)
            r = 1.0 if on else rng.uniform(0.2, 0.95)
            blocks.append(r * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]))
        else:
            sign = rng.choice([-1.0, 1.0])
            blocks.append(np.array([[sign * (1.0 if on else rng.uniform(0.2, 0.95))]]))
        size += blocks[-1].shape[0]
    t = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    a = t @ scipy.linalg.block_diag(*blocks) @ np.linalg.inv(t)
    c = rng.standard_normal((l, n))
    g = rng.standard_normal((n, p)) * (rng.random() >= 0.3)
    f = rng.standard_normal((n, int(rng.integers(0, n + 1))))
    return SystemStep(A=a, B=np.zeros((n, 0)), C=c, D=np.zeros((l, 0)), G=g,
                      H=np.zeros((l, p)), Q=f @ f.T, R=np.eye(l))


# draws whose PLISE pencil is zero at its candidate point up to roundoff
# (largest singular value there 3e-17 to 1.8e-16): a threshold taken from that
# point's own largest singular value would pass them
_ZERO_PENCIL_SEEDS = (205, 330, 398, 408)


class TestCircleScan:
    """The rank test at the candidate points against the 721-point grid
    scan (``oracles.per_point_circle_scan``): the same verdicts."""

    @pytest.mark.parametrize("config", CONFIG_NAMES)
    def test_bundled_configs_match_per_point_scan(self, config):
        step = config_scenario(config).model.step(0)
        ulise, plise = _assert_circles_match_per_point_scan(step)
        assert ulise.circle is not None and plise.circle is not None

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31), st.integers(1, 5), st.integers(1, 5),
           st.integers(0, 5), st.integers(0, 5), st.sampled_from([0.5, 0.9, 1.0, 1.2]))
    def test_random_systems_match_per_point_scan(self, seed, n, l, p, p_h, radius):
        # radius 1.0 puts an eigenvalue on the circle, so there are
        # candidate points to test
        l = min(l, n)
        p = min(p, l)
        p_h = min(p_h, p)
        model = random_system(np.random.default_rng(seed), n=n, l=l, p=p,
                              p_h=p_h, radius=radius)
        _assert_circles_match_per_point_scan(model.step(0))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 999))
    @example(seed=_ZERO_PENCIL_SEEDS[0])
    @example(seed=_ZERO_PENCIL_SEEDS[1])
    @example(seed=_ZERO_PENCIL_SEEDS[2])
    @example(seed=_ZERO_PENCIL_SEEDS[3])
    def test_unit_circle_modes_match_per_point_scan(self, seed):
        _assert_circles_match_per_point_scan(_unit_circle_draw(seed))

    @pytest.mark.parametrize("seed", _ZERO_PENCIL_SEEDS)
    def test_a_pencil_zero_at_its_candidate_fails(self, seed):
        cert = plise_stability_check(_unit_circle_draw(seed))
        assert cert.status == "failed" and not cert.circle.ok
        assert cert.circle.min_sigma < 1e-15 < cert.circle.threshold

    def test_no_candidate_tests_nothing(self, fault_models):
        # every mode of fault_h1 lies well inside the circle
        cert = ulise_convergence_check(fault_models[1].step(0))
        assert cert.circle.ok
        assert cert.circle.min_sigma is None and cert.circle.worst_omega is None
        assert cert.circle.threshold > 0.0

    def test_marginal_mode_matches_per_point_scan(self):
        # the marginal mode of test_unit_circle_mode_without_noise_fails:
        # sigma is exactly 0 at its candidate point z = 1
        step = SystemStep(A=np.eye(1), B=np.zeros((1, 0)), C=np.eye(1),
                          D=np.zeros((1, 0)), G=np.zeros((1, 0)), H=np.zeros((1, 0)),
                          Q=np.zeros((1, 1)), R=np.eye(1))
        ulise, plise = _assert_circles_match_per_point_scan(step)
        for cert in (ulise, plise):
            assert cert.status == "failed"
            assert cert.circle.min_sigma == 0.0 and cert.circle.worst_omega == 0.0
