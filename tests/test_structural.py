import numpy as np
import pytest
import scipy.linalg
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

import lise.decomposition
import lise.linalg
import lise.structural
from conftest import CONFIGS, config_scenario, random_system
from oracles import per_point_circle_scan, plise_circle_oracle, ulise_circle_oracle
from lise.cli import main as cli_main
from lise.config import load_config
from lise.errors import InvalidInputError
from lise.linalg import DEFAULT_TOL, rank
from lise.model import SystemModel, SystemStep, validate
from lise.structural import (
    _circle_scan,
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


class TestUliseConvergence:
    def test_benchmarks_all_converge(self, fault_models):
        for idx in range(1, 7):
            cert = ulise_convergence_check(fault_models[idx].step(0))
            assert cert.ok, (idx, cert)
            assert cert.circle.min_sigma > cert.circle.threshold

    def test_kalman_collapse(self):
        rng = np.random.default_rng(2)
        model = random_system(rng, n=3, l=2, p=0, p_h=0)
        assert ulise_convergence_check(model.step(0)).ok

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
        # with p = 0 the coupling matrix Theta is R2 = R itself; an R this
        # badly conditioned is singular to the rank tolerance
        step = SystemStep(A=0.5 * np.eye(2), B=np.zeros((2, 0)), C=np.eye(2),
                          D=np.zeros((2, 0)), G=np.zeros((2, 0)), H=np.zeros((2, 0)),
                          Q=np.eye(2), R=np.diag([1.0, 1e-12]))
        cert = plise_stability_check(step)
        assert cert.status == "precondition_failed"
        assert cert.reason == "noise coupling matrix Theta is singular"
        assert cert.circle is None and cert.detectability is None

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
    """Both certificates' circle tests equal the per-point loop's, field by
    field; returns the two verdicts."""
    ulise = ulise_convergence_check(step)
    if ulise.circle is not None:
        assert ulise.circle == ulise_circle_oracle(step)
    plise = plise_stability_check(step)
    if plise.circle is not None:
        assert plise.circle == plise_circle_oracle(step)
    return ulise, plise


class TestCircleScan:
    """The batched unit-circle scan against the per-point loop."""

    @pytest.mark.parametrize("config", CONFIG_NAMES)
    def test_bundled_configs_match_per_point_scan(self, config, monkeypatch):
        # with 2 and 3 CPUs every chunk's SVDs run in two or three blocks
        step = config_scenario(config).model.step(0)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(lise.linalg, "_cpu_count", lambda: cpus)
            ulise, plise = _assert_circles_match_per_point_scan(step)
            assert ulise.circle is not None and plise.circle is not None

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31), st.integers(1, 5), st.integers(1, 5),
           st.integers(0, 5), st.integers(0, 5), st.sampled_from([0.5, 0.9, 1.0, 1.2]))
    def test_random_systems_match_per_point_scan(self, seed, n, l, p, p_h, radius):
        # radius 1.0 puts an eigenvalue on the circle, so candidate angles
        # are appended to the grid
        l = min(l, n)
        p = min(p, l)
        p_h = min(p_h, p)
        model = random_system(np.random.default_rng(seed), n=n, l=l, p=p,
                              p_h=p_h, radius=radius)
        _assert_circles_match_per_point_scan(model.step(0))

    def test_marginal_mode_matches_per_point_scan(self):
        # the marginal mode of test_unit_circle_mode_without_noise_fails:
        # sigma is exactly 0 at omega = 0 and again at the candidate angle 0
        # appended after the grid (about 1e-16 at omega = 2 pi)
        step = SystemStep(A=np.eye(1), B=np.zeros((1, 0)), C=np.eye(1),
                          D=np.zeros((1, 0)), G=np.zeros((1, 0)), H=np.zeros((1, 0)),
                          Q=np.zeros((1, 1)), R=np.eye(1))
        ulise, plise = _assert_circles_match_per_point_scan(step)
        for cert in (ulise, plise):
            assert cert.status == "failed"
            assert cert.circle.min_sigma == 0.0 and cert.circle.worst_omega == 0.0

    def test_ties_go_to_the_first_point(self):
        # |cos omega| rounded to zero at both pi/2 and 3 pi/2: the loop's
        # strict < kept the first of the two
        def one(z):
            return np.diag([1.0, np.round(abs(z.real), 6)]).astype(complex)

        def stack(zs):
            return np.stack([one(z) for z in zs])

        got = _circle_scan(stack, 2, np.zeros(0), DEFAULT_TOL)
        assert got == per_point_circle_scan(one, 2, np.zeros(0))
        assert got.min_sigma == 0.0
        assert got.worst_omega == pytest.approx(np.pi / 2)
