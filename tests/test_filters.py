import numpy as np
import pytest

from conftest import random_system
from oracles import full_rank_gain_oracle, no_feedthrough_oracle
from lise.decomposition import decompose, decompose_cached
from lise.errors import EstimabilityError, InvalidInputError
from lise.filters import (
    GammaPolicy,
    compute_gain_L,
    cywz_step,
    kalman_init,
    kalman_step,
    plise_init,
    plise_step,
    ulise_init,
    ulise_step,
)
from lise.benchmarks import fault_system
from lise.linalg import symmetrize
from lise.model import SystemModel, SystemStep
from lise.signals import Ramp, SquareWave, Step
from lise.simulate import Scenario, simulate_truth


def _drive(model, n_steps, seed=0, x0=None, init=ulise_init, step_fn=ulise_step,
           gamma=GammaPolicy.DAROUACH, ys=None, us=None):
    """Run a filter over simulated (or provided) data; returns outputs list."""
    n, m, p, l = model.n, model.m, model.p, model.l
    rng = np.random.default_rng(seed)
    if ys is None:
        ys = rng.standard_normal((n_steps + 1, l))
    if us is None:
        us = rng.standard_normal((n_steps + 1, m))
    x0 = np.zeros(n) if x0 is None else x0
    state = init(model, x0, np.eye(n), ys[0], us[0])
    outs = []
    for k in range(1, n_steps + 1):
        state, out = step_fn(state, ys[k], us[k], us[k - 1], model, gamma)
        outs.append(out)
    return outs


class TestInit:
    def test_no_feedthrough_collapse(self):
        rng = np.random.default_rng(3)
        model = random_system(rng, n=4, l=3, p=1, p_h=0)
        step0 = model.step(0)
        st = ulise_init(model, np.zeros(4), np.eye(4), np.zeros(3), np.zeros(1))
        assert st.d1hat.size == 0
        assert np.array_equal(st.ahat, step0.A)
        assert np.array_equal(st.qhat, step0.Q)
        pst = plise_init(model, np.zeros(4), np.eye(4), np.zeros(3), np.zeros(1))
        assert pst.pxd1.shape == (4, 0)

    def test_exact_init_recovers_feedthrough_input(self):
        # exact state and no noise make the time-0 input residual exact
        model = fault_system(1)
        step0 = model.step(0)
        dec = decompose_cached(step0)
        rng = np.random.default_rng(7)
        x0 = rng.standard_normal(5)
        d0 = rng.standard_normal(3)
        u0 = np.zeros(1)
        y0 = step0.C @ x0 + step0.H @ d0
        for init in (ulise_init, plise_init):
            st = init(model, x0, np.zeros((5, 5)), y0, u0)
            assert np.allclose(st.d1hat, dec.V1.T @ d0, atol=1e-12)

    def test_zero_p0_spherical_noise_covariance(self):
        # spherical R decouples the output channels exactly, so with P0 = 0
        # the initial feedthrough-input covariance is rho * diag(1/sigma_i^2)
        base = fault_system(1).step(0)
        rho = 0.01
        step = SystemStep(A=base.A, B=base.B, C=base.C, D=base.D, G=base.G,
                          H=base.H, Q=base.Q, R=rho * np.eye(5))
        model = SystemModel.time_invariant(step)
        dec = decompose_cached(step)
        st = ulise_init(model, np.zeros(5), np.zeros((5, 5)), np.zeros(5), np.zeros(1))
        assert np.allclose(dec.R1, rho * np.eye(2), atol=1e-14)
        want = rho * np.diag(1.0 / np.diag(dec.Sigma) ** 2)
        assert np.allclose(st.pd1, want, atol=1e-14)
        pst = plise_init(model, np.zeros(5), np.zeros((5, 5)), np.zeros(5), np.zeros(1))
        assert np.allclose(pst.pxd1, 0.0)

    def test_p0_must_be_psd(self):
        model = fault_system(1)
        with pytest.raises(InvalidInputError):
            ulise_init(model, np.zeros(5), -np.eye(5), np.zeros(5), np.zeros(1))


_FILTER_FNS = {
    "ULISE": (ulise_init, ulise_step),
    "PLISE": (plise_init, plise_step),
    "CYWZ": (ulise_init, cywz_step),
    "KALMAN": (lambda model, x0, p0, y0, u0: kalman_init(model, x0, p0), kalman_step),
}


class TestNonFiniteInputs:
    """A non-finite input would corrupt xhat while px stays finite; every
    filter must reject it at the step boundary and name the step."""

    @pytest.mark.parametrize("field", ["y", "u", "u_prev"])
    @pytest.mark.parametrize("name", sorted(_FILTER_FNS))
    def test_nan_at_step_7_is_rejected(self, name, field):
        rng = np.random.default_rng(21)
        model = random_system(rng, n=4, l=3, p=0 if name == "KALMAN" else 1, p_h=0)
        ys = rng.standard_normal((8, 3))
        us = rng.standard_normal((8, 1))
        init, step_fn = _FILTER_FNS[name]
        state = init(model, np.zeros(4), np.eye(4), ys[0], us[0])
        for k in range(1, 7):
            state, out = step_fn(state, ys[k], us[k], us[k - 1], model)
            assert np.all(np.isfinite(out.xhat))
        args = {"y": ys[7].copy(), "u": us[7].copy(), "u_prev": us[6].copy()}
        args[field][0] = np.nan
        with pytest.raises(InvalidInputError, match=f"{field} at k=7"):
            step_fn(state, args["y"], args["u"], args["u_prev"], model)

    @pytest.mark.parametrize("name,field", [
        (name, field) for name in sorted(_FILTER_FNS)
        for field in ("x0_mean", "P0", "y0", "u0")
        # the Kalman filter is not initialized from a measurement
        if not (name == "KALMAN" and field in ("y0", "u0"))])
    def test_nonfinite_init_is_rejected(self, name, field):
        rng = np.random.default_rng(22)
        model = random_system(rng, n=4, l=3, p=0 if name == "KALMAN" else 1, p_h=0)
        args = {"x0_mean": np.zeros(4), "P0": np.eye(4), "y0": np.zeros(3),
                "u0": np.zeros(1)}
        args[field].flat[0] = np.inf
        init, _ = _FILTER_FNS[name]
        with pytest.raises(InvalidInputError, match=f"{field} at k=0"):
            init(model, args["x0_mean"], args["P0"], args["y0"], args["u0"])


class TestKalmanCollapse:
    def test_all_variants_match_kalman_bitwise_tolerance(self):
        rng = np.random.default_rng(11)
        model = random_system(rng, n=4, l=2, p=0, p_h=0, m=2)
        ys = rng.standard_normal((31, 2))
        us = rng.standard_normal((31, 2))
        x0 = rng.standard_normal(4)
        kstate = kalman_init(model, x0, np.eye(4))
        ustate = ulise_init(model, x0, np.eye(4), ys[0], us[0])
        pstate = plise_init(model, x0, np.eye(4), ys[0], us[0])
        for k in range(1, 31):
            kstate, ko = kalman_step(kstate, ys[k], us[k], us[k - 1], model)
            ustate, uo = ulise_step(ustate, ys[k], us[k], us[k - 1], model)
            pstate, po = plise_step(pstate, ys[k], us[k], us[k - 1], model)
            for o in (uo, po):
                assert np.allclose(o.xhat, ko.xhat, atol=1e-12)
                assert np.allclose(o.px, ko.px, atol=1e-12)
                assert o.dhat_prev.size == 0

    def test_kalman_rejects_unknown_inputs(self):
        model = fault_system(1)
        with pytest.raises(InvalidInputError):
            kalman_init(model, np.zeros(5), np.eye(5))

    def test_no_information_limit(self):
        # R -> infinity: the gain vanishes and the covariance follows the
        # open-loop propagation
        a = np.diag([0.9, 0.5])
        step = SystemStep(A=a, B=np.zeros((2, 0)), C=np.eye(2), D=np.zeros((2, 0)),
                          G=np.zeros((2, 0)), H=np.zeros((2, 0)),
                          Q=0.1 * np.eye(2), R=1e12 * np.eye(2))
        model = SystemModel.time_invariant(step)
        state = kalman_init(model, np.zeros(2), np.eye(2))
        px_prev = state.px
        for k in range(1, 6):
            state, out = kalman_step(state, np.zeros(2), np.zeros(0), np.zeros(0), model)
            open_loop = a @ px_prev @ a.T + step.Q
            assert np.linalg.norm(out.gain_l) < 1e-9
            assert np.allclose(state.px, open_loop, atol=1e-6)
            px_prev = state.px

    def test_scalar_steady_state_matches_riccati_root(self):
        # quadratic-formula oracle for the posterior fixed point of
        # a=0.5, c=1, q=r=1
        a, q, r = 0.5, 1.0, 1.0
        b = q + r - a * a * r
        p_oracle = (-b + np.sqrt(b * b + 4 * a * a * q * r)) / (2 * a * a)
        step = SystemStep(A=[[a]], B=np.zeros((1, 0)), C=[[1.0]], D=np.zeros((1, 0)),
                          G=np.zeros((1, 0)), H=np.zeros((1, 0)), Q=[[q]], R=[[r]])
        model = SystemModel.time_invariant(step)
        state = kalman_init(model, np.zeros(1), np.eye(1))
        for _ in range(200):
            state, _ = kalman_step(state, np.zeros(1), np.zeros(0), np.zeros(0), model)
        assert state.px[0, 0] == pytest.approx(p_oracle, abs=1e-12)

    def test_posterior_contracts_with_full_observation(self):
        # monotone non-increasing trace when C = I and the plant is stable
        rng = np.random.default_rng(2)
        model = random_system(rng, n=3, l=3, p=0, p_h=0, m=0)
        state = kalman_init(model, np.zeros(3), 10 * np.eye(3))
        traces = [np.trace(state.px)]
        for _ in range(30):
            state, _ = kalman_step(state, np.zeros(3), np.zeros(0), np.zeros(0), model)
            traces.append(np.trace(state.px))
        assert all(t2 <= t1 + 1e-12 for t1, t2 in zip(traces, traces[1:]))


class TestNoFeedthroughOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_both_variants_match_closed_form(self, seed):
        rng = np.random.default_rng(100 + seed)
        model = random_system(rng, n=3, l=2, p=1, p_h=0)
        ys = rng.standard_normal((25, 2))
        us = rng.standard_normal((25, 1))
        x0 = rng.standard_normal(3)
        oracle = no_feedthrough_oracle(model, ys, us, x0, np.eye(3))
        for init, step_fn in ((ulise_init, ulise_step), (plise_init, plise_step)):
            state = init(model, x0, np.eye(3), ys[0], us[0])
            for k in range(1, 25):
                state, out = step_fn(state, ys[k], us[k], us[k - 1], model,
                                     GammaPolicy.PSEUDO_INVERSE)
                xh, px, dhat, pd = oracle[k - 1]
                assert np.allclose(out.xhat, xh, atol=1e-9)
                assert np.allclose(out.px, px, atol=1e-9)
                assert np.allclose(out.dhat_prev, dhat, atol=1e-9)
                assert np.allclose(out.pd_prev, pd, atol=1e-9)


class TestFullRankFeedthroughGain:
    @pytest.mark.parametrize("seed", range(6))
    def test_gain_matches_closed_form(self, seed):
        rng = np.random.default_rng(200 + seed)
        model = random_system(rng, n=4, l=3, p=2, p_h=2)
        for gamma in GammaPolicy:
            for out in _drive(model, 12, seed=seed, gamma=gamma)[2:]:
                oracle = full_rank_gain_oracle(model.step(0), out.px_star)
                assert np.allclose(out.gain_l, oracle, atol=1e-9)

    def test_square_full_row_rank_kills_the_gain(self):
        # l = p with invertible feedthrough: the update must not move the
        # propagated estimate.  G = 0 keeps the covariance recursion stable
        # (with zero gain the filter runs open loop).
        rng = np.random.default_rng(17)
        h = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        step = SystemStep(A=np.diag([0.5, 0.3, 0.8, 0.2]), B=np.zeros((4, 1)),
                          C=rng.standard_normal((3, 4)), D=np.zeros((3, 1)),
                          G=np.zeros((4, 3)), H=h,
                          Q=0.1 * np.eye(4), R=0.3 * np.eye(3))
        model = SystemModel.time_invariant(step)
        for out in _drive(model, 10)[1:]:
            assert np.linalg.norm(out.gain_l) < 1e-9
            oracle = full_rank_gain_oracle(model.step(0), out.px_star)
            assert np.linalg.norm(oracle) < 1e-9
            assert np.allclose(out.xhat, out.xhat_star, atol=1e-9)


class TestGammaPolicies:
    def test_policies_agree_on_estimates_and_covariances(self):
        # the gain parameterization family: different L, identical estimates
        model = fault_system(1)
        sc = Scenario(model=model, horizon=120,
                      d_signals=[Step(1.0, 40, 80), Ramp(0.01, 10, 100),
                                 SquareWave(2.0, 15, 30, 90)],
                      u_signals=[Step(0.5, 0, 120)],
                      x0_true=np.zeros(5), x0_mean=np.zeros(5), p0=np.eye(5),
                      noise_seed=42, filters=("ULISE",))
        truth = simulate_truth(sc)
        for init, step_fn in ((ulise_init, ulise_step), (plise_init, plise_step),
                              (ulise_init, cywz_step)):
            sa = init(model, sc.x0_mean, sc.p0, truth.y[0], truth.u[0])
            sb = init(model, sc.x0_mean, sc.p0, truth.y[0], truth.u[0])
            for k in range(1, 121):
                sa, oa = step_fn(sa, truth.y[k], truth.u[k], truth.u[k - 1], model,
                                 GammaPolicy.DAROUACH)
                sb, ob = step_fn(sb, truth.y[k], truth.u[k], truth.u[k - 1], model,
                                 GammaPolicy.PSEUDO_INVERSE)
                assert np.allclose(oa.xhat, ob.xhat, atol=1e-8)
                assert np.allclose(oa.px, ob.px, atol=1e-10)
                assert np.allclose(oa.pd_prev, ob.pd_prev, atol=1e-10)

    def test_closed_form_matches_explicit_reduction(self):
        # the bypass form of the default policy must equal the explicit
        # whitened-complement construction when the state path uses the GLS
        # input gain
        from lise.filters import _whitened_complement_reduction

        model = fault_system(1)
        step = model.step(0)
        dec = decompose_cached(step)
        state = ulise_init(model, np.zeros(5), np.eye(5), np.zeros(5), np.zeros(1))
        rng = np.random.default_rng(1)
        for k in range(1, 30):
            p_tilde = symmetrize(state.ahat @ state.px @ state.ahat.T + state.qhat)
            r_hat = step.C @ p_tilde @ step.C.T + step.R
            y = rng.standard_normal(5)
            state, out = ulise_step(state, y, np.zeros(1), np.zeros(1), model,
                                    GammaPolicy.DAROUACH)
            # recompute the explicit-reduction gain at this step
            m2 = out.gain_m2
            r_check = _whitened_complement_reduction(r_hat, _r_star(step, dec, out, m2),
                                                     step.C, dec.G2)
            k_gain = out.px_star @ step.C.T - dec.G2 @ m2 @ dec.U2.T @ step.R
            core = np.linalg.inv(dec.U1.T @ r_check @ dec.U1)
            m1s = dec.sigma_inv @ core @ dec.U1.T @ r_check
            explicit = k_gain @ (np.eye(5) - dec.H1 @ m1s).T @ r_check
            assert np.allclose(out.gain_l, explicit, atol=1e-10)

    def test_policies_agree_on_random_systems(self):
        # reduction invariance across the admissible family, over varied
        # dimensions and feedthrough ranks (updated and OLS variants; the
        # propagated variant shares one reduction path by construction).
        # Restricted to strongly detectable draws: elsewhere the covariance
        # legitimately diverges and the comparison only holds relatively.
        from lise.structural import strong_detectability

        rng = np.random.default_rng(77)
        trials = 0
        while trials < 8:
            n = int(rng.integers(3, 6))
            l = int(rng.integers(2, n + 1))
            p = int(rng.integers(1, l + 1))
            p_h = int(rng.integers(0, p + 1))
            if p == l and p_h == p:
                continue   # open-loop case, covered separately
            model = random_system(rng, n=n, l=l, p=p, p_h=p_h)
            if not strong_detectability(model.step(0)).detectable:
                continue
            ys = rng.standard_normal((13, l))
            us = rng.standard_normal((13, 1))
            for step_fn in (ulise_step, cywz_step):
                sa = ulise_init(model, np.zeros(n), np.eye(n), ys[0], us[0])
                sb = ulise_init(model, np.zeros(n), np.eye(n), ys[0], us[0])
                for k in range(1, 13):
                    sa, oa = step_fn(sa, ys[k], us[k], us[k - 1], model,
                                     GammaPolicy.DAROUACH)
                    sb, ob = step_fn(sb, ys[k], us[k], us[k - 1], model,
                                     GammaPolicy.PSEUDO_INVERSE)
                    scale = max(1.0, float(np.linalg.norm(ob.xhat)))
                    assert np.allclose(oa.xhat, ob.xhat, atol=1e-8 * scale)
                    assert np.allclose(oa.px, ob.px,
                                       atol=1e-9 * max(1.0, np.linalg.norm(ob.px)))
            trials += 1

    def test_innovation_covariance_factorization(self):
        # the identity behind the closed-form reduction: for the updated and
        # OLS variants the singular innovation covariance factors exactly
        # through the pre-update one
        rng = np.random.default_rng(31)
        for trial in range(6):
            n = int(rng.integers(3, 6))
            l = int(rng.integers(2, n + 1))
            p = int(rng.integers(1, l))
            p_h = int(rng.integers(0, p + 1))
            model = random_system(rng, n=n, l=l, p=p, p_h=p_h)
            step = model.step(0)
            dec = decompose_cached(step)
            ys = rng.standard_normal((9, l))
            us = rng.standard_normal((9, 1))
            for step_fn in (ulise_step, cywz_step):
                state = ulise_init(model, np.zeros(n), np.eye(n), ys[0], us[0])
                for k in range(1, 9):
                    p_tilde = symmetrize(state.ahat @ state.px @ state.ahat.T
                                         + state.qhat)
                    r_hat = step.C @ p_tilde @ step.C.T + step.R
                    state, out = step_fn(state, ys[k], us[k], us[k - 1], model)
                    n_mat = (np.eye(l)
                             - step.C @ dec.G2 @ out.gain_m2_state @ dec.U2.T)
                    lhs = _r_star(step, dec, out, out.gain_m2_state)
                    rhs = n_mat @ r_hat @ n_mat.T
                    assert np.allclose(lhs, rhs, atol=1e-9 * np.linalg.norm(rhs))


def _r_star(step, dec, out, m2):
    cross = step.C @ dec.G2 @ m2 @ dec.U2.T @ step.R
    return symmetrize(step.C @ out.px_star @ step.C.T + step.R - cross - cross.T)


class TestOlsVariant:
    def test_spherical_innovation_collapses_to_gls(self):
        # isotropic plant: the feedthrough-free innovation covariance is a
        # multiple of the identity at every step, so OLS and GLS gains agree
        n = 3
        rng = np.random.default_rng(5)
        g = rng.standard_normal((n, 1))
        step = SystemStep(A=0.6 * np.eye(n), B=np.zeros((n, 0)), C=np.eye(n),
                          D=np.zeros((n, 0)), G=g, H=np.zeros((n, 1)),
                          Q=0.1 * np.eye(n), R=0.2 * np.eye(n))
        model = SystemModel.time_invariant(step)
        ys = rng.standard_normal((16, n))
        us = np.zeros((16, 0))
        sa = ulise_init(model, np.zeros(n), np.eye(n), ys[0], us[0])
        sb = ulise_init(model, np.zeros(n), np.eye(n), ys[0], us[0])
        for k in range(1, 16):
            sa, oa = ulise_step(sa, ys[k], us[k], us[k - 1], model)
            sb, ob = cywz_step(sb, ys[k], us[k], us[k - 1], model)
            assert np.allclose(oa.gain_m2, ob.gain_m2_state, atol=1e-12)
            assert np.allclose(oa.xhat, ob.xhat, atol=1e-12)
            assert np.allclose(oa.px, ob.px, atol=1e-12)

    def test_reported_input_covariance_is_blue(self, fault_models):
        # the reported input covariance uses the GLS gain even though the
        # state path uses the OLS one
        model = fault_models[5]
        outs = _drive(model, 40, init=ulise_init, step_fn=cywz_step)
        out = outs[-1]
        assert not np.allclose(out.gain_m2, out.gain_m2_state)
        gls = out.gain_m2
        dec = decompose_cached(model.step(0))
        # BLUE covariance identity: pd2 == m2 r2_tilde m2'
        c2g2 = dec.C2 @ dec.G2
        assert np.allclose(gls @ c2g2, np.eye(1), atol=1e-10)

    def test_rank_deficient_input_map_raises(self):
        # dynamics-only input invisible in the feedthrough-free output
        model = fault_system(1)
        step = model.step(0)
        g_bad = step.G.copy()
        g_bad[:, 0] = np.eye(5)[0]   # e1 lies in the feedthrough output span
        bad = SystemModel.time_invariant(SystemStep(
            A=step.A, B=step.B, C=step.C, D=step.D, G=g_bad, H=step.H,
            Q=step.Q, R=step.R))
        state = ulise_init(bad, np.zeros(5), np.eye(5), np.zeros(5), np.zeros(1))
        with pytest.raises(EstimabilityError, match="rank"):
            ulise_step(state, np.zeros(5), np.zeros(1), np.zeros(1), bad)


class TestStepInvariants:
    @pytest.mark.parametrize("variant", ["ulise", "plise", "cywz"])
    def test_unbiasedness_and_symmetry(self, variant, fault_models):
        init, step_fn = {
            "ulise": (ulise_init, ulise_step),
            "plise": (plise_init, plise_step),
            "cywz": (ulise_init, cywz_step),
        }[variant]
        outs = _drive(fault_models[4], 60, init=init, step_fn=step_fn)
        for out in outs:
            for key, val in out.unbiasedness.items():
                assert val < 1e-10, (key, val)
            assert np.allclose(out.px, out.px.T)
            assert np.allclose(out.pd_prev, out.pd_prev.T)
            assert np.min(np.linalg.eigvalsh(out.px)) > -1e-10
            assert np.min(np.linalg.eigvalsh(out.pd_prev)) > -1e-10

    def test_zero_noise_exactness(self):
        # strongly observable variant, exact start, vanishing noise: the
        # filter must track state and inputs essentially exactly
        base = fault_system(3).step(0)
        model = SystemModel.time_invariant(SystemStep(
            A=base.A, B=base.B, C=base.C, D=base.D, G=base.G, H=base.H,
            Q=np.zeros((5, 5)), R=1e-12 * np.eye(5)))
        from lise.signals import sample_signals

        x0 = np.array([0.2, -0.1, 0.4, 0.0, 0.3])
        d = sample_signals([Step(1.0, 5, 30), Ramp(0.05, 0, 40),
                            SquareWave(2.0, 7, 10, 35)], 41)
        u = sample_signals([Step(0.3, 0, 40)], 41)
        step = model.step(0)
        xs = np.zeros((41, 5))
        ys = np.zeros((41, 5))
        xs[0] = x0
        for k in range(41):   # noiseless truth; the filter merely assumes eps*I
            ys[k] = step.C @ xs[k] + step.D @ u[k] + step.H @ d[k]
            if k < 40:
                xs[k + 1] = step.A @ xs[k] + step.B @ u[k] + step.G @ d[k]
        for init, step_fn in ((ulise_init, ulise_step), (plise_init, plise_step)):
            state = init(model, x0, np.zeros((5, 5)), ys[0], u[0])
            for k in range(1, 41):
                state, out = step_fn(state, ys[k], u[k], u[k - 1], model)
                assert np.linalg.norm(out.xhat - xs[k]) < 1e-6
                assert np.linalg.norm(out.dhat_prev - d[k - 1]) < 1e-6

    def test_time_varying_feedthrough_rank(self):
        # the feedthrough rank changes along the run (0, 2, and full), so the
        # input blocks resize between steps; G is chosen so each transition
        # keeps the input-estimation rank condition satisfiable
        base = fault_system(1).step(0)
        g = np.array([[1.0, 0.0, -0.3],
                      [1.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0]])
        h_by_phase = [np.zeros((5, 3)), np.array(base.H), fault_system(2).step(0).H]

        def provider(k):
            return SystemStep(A=base.A, B=base.B, C=base.C, D=base.D, G=g,
                              H=h_by_phase[k % 3], Q=base.Q, R=base.R)

        model = SystemModel.time_varying(provider, dims=(5, 1, 3, 5), horizon_hint=30)
        rng = np.random.default_rng(9)
        ys = rng.standard_normal((31, 5))
        us = rng.standard_normal((31, 1))
        for init, step_fn in ((ulise_init, ulise_step), (plise_init, plise_step),
                              (ulise_init, cywz_step)):
            state = init(model, np.zeros(5), np.eye(5), ys[0], us[0])
            for k in range(1, 31):
                state, out = step_fn(state, ys[k], us[k], us[k - 1], model)
                assert np.all(np.isfinite(out.xhat))
                for val in out.unbiasedness.values():
                    assert val < 1e-9
            assert state.k == 30

    def test_gain_constraint_annihilates_feedthrough_directions(self, fault_models):
        outs = _drive(fault_models[1], 30)
        dec = decompose_cached(fault_models[1].step(0))
        for out in outs:
            assert np.linalg.norm(out.gain_l @ dec.U1) < 1e-10


def test_compute_gain_requires_r_hat_for_default_policy(fault_models):
    step = fault_models[1].step(0)
    dec = decompose_cached(step)
    with pytest.raises(InvalidInputError):
        compute_gain_L(np.eye(5), step, dec, np.zeros((1, 3)), dec.G2,
                       GammaPolicy.DAROUACH)
