import dataclasses
import gc
import re
import tracemalloc
import warnings
import weakref

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bits, config_scenario, online_plant, random_system
from oracles import full_rank_gain_oracle, kalman_oracle_pass, no_feedthrough_oracle
import lise.decomposition
import lise.filters
from lise.decomposition import (_pair_context, _step_context, decompose, decompose_cached,
                                decoupled_dynamics)
from lise.errors import (
    EstimabilityError,
    GainConstructionError,
    InvalidInputError,
    NotPositiveDefiniteError,
    NumericalError,
)
from lise.filters import (
    GammaPolicy,
    UliseState,
    _check_vector,
    _factor_solve,
    _gain_key,
    _input_gain_gls,
    _lise_gains,
    _spd_factor,
    _sym_block,
    _whitened_complement_reduction,
    compute_gain_L,
    cywz_step,
    plise_init,
    plise_step,
    ulise_init,
    ulise_step,
)
from lise.linalg import DEFAULT_TOL, symmetrize
from lise.model import SystemModel, SystemStep, validate
from lise.signals import Ramp, SquareWave, Step
from lise.structural import analyze
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
        st = ulise_init(model, np.zeros(4), np.eye(4), np.zeros(3), np.zeros(1))
        assert st.d1hat.size == 0
        pst = plise_init(model, np.zeros(4), np.eye(4), np.zeros(3), np.zeros(1))
        assert pst.pxd1.shape == (4, 0)

    def test_exact_init_recovers_feedthrough_input(self):
        # exact state and no noise make the time-0 input residual exact
        model = config_scenario("fault_h1").model
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
        base = config_scenario("fault_h1").model.step(0)
        rho = 0.01
        step = SystemStep(A=base.A, B=base.B, C=base.C, D=base.D, G=base.G,
                          H=base.H, Q=base.Q, R=rho * np.eye(5))
        model = SystemModel.time_invariant(step)
        dec = decompose_cached(step)
        assert np.allclose(dec.R1, rho * np.eye(2), atol=1e-14)
        want = rho * np.diag(1.0 / np.diag(dec.Sigma) ** 2)
        pst = plise_init(model, np.zeros(5), np.zeros((5, 5)), np.zeros(5), np.zeros(1))
        assert np.allclose(pst.pd1, want, atol=1e-14)
        assert np.allclose(pst.pxd1, 0.0)

    def test_p0_must_be_n_by_n(self):
        model = config_scenario("fault_h1").model
        with pytest.raises(InvalidInputError, match=r"^P0 must be 5 x 5, got \(4, 4\)$"):
            ulise_init(model, np.zeros(5), np.eye(4), np.zeros(5), np.zeros(1))

    def test_p0_must_be_psd(self):
        model = config_scenario("fault_h1").model
        with pytest.raises(NotPositiveDefiniteError, match=r"^P0 not PSD \(min eigenvalue"):
            ulise_init(model, np.zeros(5), -np.eye(5), np.zeros(5), np.zeros(1))


# KALMAN is ULISE's recursion, on a model with p = 0
_FILTER_FNS = {
    "ULISE": (ulise_init, ulise_step),
    "PLISE": (plise_init, plise_step),
    "CYWZ": (ulise_init, cywz_step),
    "KALMAN": (ulise_init, ulise_step),
}
# the state class each filter's step takes
_STATE_CLASSES = {"ULISE": "UliseState", "PLISE": "PliseState", "CYWZ": "UliseState",
                  "KALMAN": "UliseState"}


class TestStateClass:
    """Each public step takes the state of its own variant only: the shared
    step body reads the variant from the state's class."""

    @pytest.mark.parametrize("step_name,state_name", [
        (s, t) for s in sorted(_FILTER_FNS) for t in ("ULISE", "PLISE", "KALMAN")
        if _STATE_CLASSES[s] != _STATE_CLASSES[t]])
    def test_wrong_state_class_is_rejected(self, step_name, state_name):
        rng = np.random.default_rng(24)
        model = random_system(rng, n=4, l=2, p=0, p_h=0)
        ys = rng.standard_normal((2, 2))
        us = rng.standard_normal((2, 1))
        init, _ = _FILTER_FNS[state_name]
        _, step_fn = _FILTER_FNS[step_name]
        state = init(model, np.zeros(4), np.eye(4), ys[0], us[0])
        got = type(state).__name__
        with pytest.raises(InvalidInputError,
                           match=f"{step_fn.__name__} needs a "
                                 f"{_STATE_CLASSES[step_name]}, got {got}"):
            step_fn(state, ys[1], us[1], us[0], model)


# the options each filter's public step runs the gain half with
_GAIN_OPTIONS = {
    "ULISE": {"gamma": GammaPolicy.DAROUACH, "ols_state_gain": False},
    "PLISE": {"gamma": GammaPolicy.DAROUACH, "ols_state_gain": False},
    "CYWZ": {"gamma": GammaPolicy.DAROUACH, "ols_state_gain": True},
    "KALMAN": {"gamma": GammaPolicy.DAROUACH, "ols_state_gain": False},
}


def _declaration_model(name, system):
    """fault_h1 (with G and H emptied for the Kalman filter) or a
    ``random_system`` draw (p = 0 for the Kalman filter)."""
    if system == "random":
        p, p_h = (0, 0) if name == "KALMAN" else (2, 1)
        return random_system(np.random.default_rng(31), n=4, l=3, p=p, p_h=p_h)
    model = config_scenario("fault_h1").model
    if name != "KALMAN":
        return model
    s = model.step(0)
    return SystemModel.time_invariant(SystemStep(
        A=s.A, B=s.B, C=s.C, D=s.D, G=s.G[:, :0], H=s.H[:, :0], Q=s.Q, R=s.R))


@pytest.mark.parametrize("system", ["fault_h1", "random"])
@pytest.mark.parametrize("name", sorted(_FILTER_FNS))
def test_hand_built_state_steps_as_the_init_state(name, system):
    # a state needs its k, estimates, covariance state and model step alone:
    # one built by hand, on a fresh step object of the same matrices, steps
    # bit for bit as the one the init returns
    model = _declaration_model(name, system)
    init, step_fn = _FILTER_FNS[name]
    rng = np.random.default_rng(8)
    ys = rng.standard_normal((21, model.l))
    us = rng.standard_normal((21, model.m))
    state = init(model, rng.standard_normal(model.n), np.eye(model.n), ys[0], us[0])
    step0 = SystemStep(**{m: getattr(state.step, m) for m in "ABCDGHQR"})
    fields = ("xhat", "d1hat") + type(state).cov_fields
    hand = type(state)(k=0, step=step0, **{f: getattr(state, f).copy() for f in fields})
    for k in range(1, 21):
        args = (ys[k], us[k], us[k - 1], model)
        state, out = step_fn(state, *args)
        hand, hand_out = step_fn(hand, *args)
        assert hand.k == state.k == k
        for f in fields:
            assert bits(getattr(hand, f)) == bits(getattr(state, f)), (k, f)
        for f in dataclasses.fields(out):
            got, want = getattr(hand_out, f.name), getattr(out, f.name)
            assert f.name == "gains" or bits(got) == bits(want), (k, f.name)


class TestCovarianceState:
    """Each state class declares its covariance state once, in
    ``cov_fields``: the gain half returns exactly those fields, reads no
    estimate, and ``_gain_key`` changes with every bit of them."""

    @staticmethod
    def _stepped(name, system):
        """The model, the filter's state after three steps on random data,
        and the gain half of the next step as a function of a state."""
        model = _declaration_model(name, system)
        init, step_fn = _FILTER_FNS[name]
        rng = np.random.default_rng(5)
        ys = rng.standard_normal((4, model.l))
        us = rng.standard_normal((4, model.m))
        state = init(model, np.zeros(model.n), np.eye(model.n), ys[0], us[0])
        for k in range(1, 4):
            prev = state
            state, out = step_fn(state, ys[k], us[k], us[k - 1], model)
        # the step keeps the record its estimate update ran on
        g = out.gains
        pairs = [(g.step_prev, prev.step), (g.dec_prev, _step_context(prev.step).dec),
                 (g.step, state.step), (g.dec, _step_context(state.step).dec)]
        assert all(a is b for a, b in pairs)
        assert g.from_propagated is (name == "PLISE")
        options = _GAIN_OPTIONS[name]

        def gains(s):
            # the gain half's outputs, its gain record by the fields that
            # the step computes
            step = model.step(s.k + 1)
            cov, px_star, pd_prev, g, unb = _lise_gains(
                s, _step_context(s.step, DEFAULT_TOL), step,
                decompose_cached(step, DEFAULT_TOL), DEFAULT_TOL, **options)
            return cov, px_star, pd_prev, g.gain_l, g.m2, g.m2_state, unb

        return state, gains

    @pytest.mark.parametrize("system", ["fault_h1", "random"])
    @pytest.mark.parametrize("name", ["ULISE", "CYWZ", "PLISE", "KALMAN"])
    def test_gain_half_returns_its_declared_fields(self, name, system):
        state, gains = self._stepped(name, system)
        assert tuple(gains(state)[0]) == type(state).cov_fields
        assert type(state).cov_fields == (("px", "pd1", "pxd1") if name == "PLISE"
                                          else ("px",))

    @pytest.mark.parametrize("system", ["fault_h1", "random"])
    @pytest.mark.parametrize("name", ["ULISE", "CYWZ", "PLISE", "KALMAN"])
    def test_gain_half_reads_no_estimate(self, name, system):
        state, gains = self._stepped(name, system)
        blind = dataclasses.replace(state, xhat=np.full_like(state.xhat, np.nan),
                                    d1hat=np.full_like(state.d1hat, np.nan))
        assert bits(gains(blind)) == bits(gains(state))

    @pytest.mark.parametrize("system", ["fault_h1", "random"])
    @pytest.mark.parametrize("name", ["ULISE", "CYWZ", "PLISE", "KALMAN"])
    def test_gain_key_changes_with_every_declared_bit(self, name, system):
        state, _ = self._stepped(name, system)
        key = _gain_key(state)
        flipped = 0
        for field in type(state).cov_fields:
            value = getattr(state, field)
            for i in range(value.size):
                a = value.copy()
                a.view(np.uint64).flat[i] ^= np.uint64(1)
                assert _gain_key(dataclasses.replace(state, **{field: a})) != key, (field, i)
                flipped += 1
        assert flipped == sum(getattr(state, f).size for f in type(state).cov_fields) > 0


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
        for field in ("x0_mean", "P0", "y0", "u0")])
    def test_nonfinite_init_is_rejected(self, name, field):
        rng = np.random.default_rng(22)
        model = random_system(rng, n=4, l=3, p=0 if name == "KALMAN" else 1, p_h=0)
        args = {"x0_mean": np.zeros(4), "P0": np.eye(4), "y0": np.zeros(3),
                "u0": np.zeros(1)}
        args[field].flat[0] = np.inf
        init, _ = _FILTER_FNS[name]
        with pytest.raises(InvalidInputError, match=f"{field} at k=0"):
            init(model, args["x0_mean"], args["P0"], args["y0"], args["u0"])


    @pytest.mark.parametrize("name,matrix", [
        (name, matrix) for name in sorted(_FILTER_FNS)
        for matrix in ("A", "B", "C", "D", "G", "H", "Q", "R")
        # G and H are empty when p = 0
        if not (name == "KALMAN" and matrix in ("G", "H"))])
    @pytest.mark.parametrize("bad_k", [0, 5])
    def test_nonfinite_model_matrix_is_rejected(self, name, matrix, bad_k):
        # a provider step with a NaN entry fails at its first use, init
        # included, with an InvalidInputError naming the matrix and the step;
        # no filter returns a non-finite estimate
        rng = np.random.default_rng(23)
        p = 0 if name == "KALMAN" else 2
        model0 = random_system(rng, n=4, l=3, p=p, p_h=min(p, 1))
        base = model0.step(0)
        poisoned = np.array(getattr(base, matrix))
        poisoned[-1, 0] = np.nan

        def provider(k):
            return dataclasses.replace(base, **({matrix: poisoned} if k == bad_k else {}))

        model = SystemModel.time_varying(provider, dims=(4, 1, p, 3))
        ys = rng.standard_normal((8, 3))
        us = rng.standard_normal((8, 1))
        init, step_fn = _FILTER_FNS[name]
        match = f"{matrix} at k={bad_k} has non-finite entries"
        if bad_k == 0:
            with pytest.raises(InvalidInputError, match=match):
                init(model, np.zeros(4), np.eye(4), ys[0], us[0])
            return
        state = init(model, np.zeros(4), np.eye(4), ys[0], us[0])
        for k in range(1, bad_k):
            state, out = step_fn(state, ys[k], us[k], us[k - 1], model)
            assert np.all(np.isfinite(out.xhat))
        for _ in range(2):  # a failure is not remembered: it raises again
            with pytest.raises(InvalidInputError, match=match):
                step_fn(state, ys[bad_k], us[bad_k], us[bad_k - 1], model)

    @pytest.mark.parametrize("name", ["ULISE", "PLISE", "CYWZ"])
    @pytest.mark.parametrize("bad_k", [0, 5])
    def test_asymmetric_r_is_rejected_naming_the_step(self, name, bad_k):
        # fault_h1 with R[0][1] raised by half of R[0][0] from step bad_k on:
        # validate reports it, and the filters no longer run on R's
        # symmetric part (the decomposition factors only that part)
        step = config_scenario("fault_h1").model.step(0)
        r = np.array(step.R)
        r[0, 1] += 0.5 * r[0, 0]
        bad = dataclasses.replace(step, R=r)
        assert [(v.field, v.message) for v in validate(SystemModel.time_invariant(bad))] == [
            ("R", "R not symmetric")]
        model = SystemModel.time_varying(lambda k: bad if k >= bad_k else step,
                                         dims=(5, 1, 3, 5))
        rng = np.random.default_rng(24)
        ys = rng.standard_normal((bad_k + 1, 5))
        us = np.zeros((bad_k + 1, 1))
        init, step_fn = _FILTER_FNS[name]
        match = f"^R not symmetric at k={bad_k}$"
        if bad_k == 0:
            with pytest.raises(InvalidInputError, match=match):
                init(model, np.zeros(5), np.eye(5), ys[0], us[0])
            return
        state = init(model, np.zeros(5), np.eye(5), ys[0], us[0])
        for k in range(1, bad_k):
            state, _ = step_fn(state, ys[k], us[k], us[k - 1], model)
        for _ in range(2):  # a failure is not cached: it raises again
            with pytest.raises(InvalidInputError, match=match):
                step_fn(state, ys[bad_k], us[bad_k], us[bad_k - 1], model)

    @pytest.mark.parametrize("name", ["ULISE", "PLISE", "CYWZ"])
    @pytest.mark.parametrize("bad_k", [0, 7])
    def test_indefinite_q_is_rejected_naming_the_step(self, name, bad_k):
        # fault_h1 with Q[0][0] = -max|Q| from step bad_k on: validate
        # reports it, and the first step that fetches it raises
        step = config_scenario("fault_h1").model.step(0)
        q = np.array(step.Q)
        q[0, 0] = -np.max(np.abs(q))
        bad = dataclasses.replace(step, Q=q)
        message = "Q not PSD (min eigenvalue -1.000e-04)"
        assert [(v.field, v.message) for v in validate(SystemModel.time_invariant(bad))] == [
            ("Q", message)]
        init, step_fn = _FILTER_FNS[name]
        match = f"^{re.escape(message)} at k={bad_k}$"
        rng = np.random.default_rng(25)
        ys = rng.standard_normal((bad_k + 1, 5))
        us = np.zeros((bad_k + 1, 1))
        with pytest.raises(NotPositiveDefiniteError, match=f"^{re.escape(message)} at k=0$"):
            init(SystemModel.time_invariant(bad), np.zeros(5), np.eye(5), ys[0], us[0])
        model = SystemModel.time_varying(
            lambda k: dataclasses.replace(step, A=(1.0 + 0.01 * k) * step.A,
                                          Q=q if k >= bad_k else step.Q),
            dims=(5, 1, 3, 5))
        if bad_k == 0:
            with pytest.raises(NotPositiveDefiniteError, match=match):
                init(model, np.zeros(5), np.eye(5), ys[0], us[0])
            return
        state = init(model, np.zeros(5), np.eye(5), ys[0], us[0])
        for k in range(1, bad_k):
            state, _ = step_fn(state, ys[k], us[k], us[k - 1], model)
        for _ in range(2):  # a failure is not cached: it raises again
            with pytest.raises(NotPositiveDefiniteError, match=match):
                step_fn(state, ys[bad_k], us[bad_k], us[bad_k - 1], model)

    def test_asymmetric_q_is_rejected_naming_the_step(self):
        step = config_scenario("fault_h1").model.step(0)
        q = np.array(step.Q)
        q[0, 1] += 1e-3
        model = SystemModel.time_varying(
            lambda k: dataclasses.replace(step, Q=q) if k == 3 else step, dims=(5, 1, 3, 5))
        state = ulise_init(model, np.zeros(5), np.eye(5), np.zeros(5), np.zeros(1))
        for k in range(1, 3):
            state, _ = ulise_step(state, np.zeros(5), np.zeros(1), np.zeros(1), model)
        with pytest.raises(InvalidInputError, match="^Q not symmetric at k=3$"):
            ulise_step(state, np.zeros(5), np.zeros(1), np.zeros(1), model)

    def test_overflowing_but_finite_vector_is_accepted(self):
        # squares and sums of the entries overflow, yet every entry is
        # finite: accepted, and the test warns nothing
        big = np.array([1e200, -1e200, 3.0])
        huge = np.array([1.7e308, 1.7e308, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _check_vector(big, 3, "y", 4) is big
            assert _check_vector(huge, 3, "y", 4) is huge
            with pytest.raises(InvalidInputError, match="y at k=4 has non-finite entries"):
                _check_vector(np.array([1e200, np.inf, 3.0]), 3, "y", 4)


class TestKalmanCollapse:
    """With p = 0 every variant is the Kalman filter: ULISE's recursion, which
    the ``KALMAN`` filter name runs."""

    def test_all_variants_match_kalman_bitwise_tolerance(self):
        rng = np.random.default_rng(11)
        model = random_system(rng, n=4, l=2, p=0, p_h=0, m=2)
        ys = rng.standard_normal((31, 2))
        us = rng.standard_normal((31, 2))
        x0 = rng.standard_normal(4)
        kalman = kalman_oracle_pass(model, ys, us, x0, np.eye(4), 30)
        for init, step_fn in ((ulise_init, ulise_step), (plise_init, plise_step),
                              (ulise_init, cywz_step)):
            state = init(model, x0, np.eye(4), ys[0], us[0])
            for k in range(1, 31):
                state, out = step_fn(state, ys[k], us[k], us[k - 1], model)
                assert np.allclose(out.xhat, kalman[k - 1]["xhat"], atol=1e-12)
                assert np.allclose(out.px, kalman[k - 1]["px"], atol=1e-12)
                assert out.dhat_prev.size == 0 and out.pd_prev.shape == (0, 0)

    def test_kalman_state_carries_only_its_step(self):
        # the decompositions a step runs on are those of the contexts of its
        # two model steps, not copies kept on the state
        rng = np.random.default_rng(12)
        model = random_system(rng, n=3, l=2, p=0, p_h=0)
        state = ulise_init(model, np.zeros(3), np.eye(3), np.zeros(2), np.zeros(1))
        assert [f.name for f in dataclasses.fields(state)] == ["k", "xhat", "px", "d1hat", "step"]
        new, out = ulise_step(state, np.zeros(2), np.zeros(1), np.zeros(1), model)
        assert out.gains.dec_prev is decompose_cached(state.step)
        assert out.gains.dec is decompose_cached(new.step)

    def test_kalman_state_is_the_updated_variant_state(self):
        # the Kalman filter is the p = 0 member down to its state type: an
        # UliseState with an empty d1hat; the KALMAN filter name is refused
        # on a model with unknown inputs
        rng = np.random.default_rng(14)
        model = random_system(rng, n=3, l=2, p=0, p_h=0)
        state = ulise_init(model, np.zeros(3), np.eye(3), np.zeros(2), np.zeros(1))
        assert type(state) is UliseState
        assert state.d1hat.shape == (0,)
        state, _ = ulise_step(state, np.zeros(2), np.zeros(1), np.zeros(1), model)
        assert type(state) is UliseState and state.d1hat.shape == (0,)
        sc = config_scenario("fault_h1")
        with pytest.raises(InvalidInputError, match="^filter 'KALMAN' applies only to "
                                                    "models with p = 0, got p = 3$"):
            dataclasses.replace(sc, filters=("KALMAN",))

    def test_kalman_rejects_a_step_whose_r_is_not_pd(self):
        # as the other filters do, at the step whose R fails
        rng = np.random.default_rng(13)
        base = random_system(rng, n=3, l=2, p=0, p_h=0).step(0)
        bad_r = np.diag([1.0, -1.0])

        def provider(k):
            return dataclasses.replace(base, R=bad_r) if k == 3 else base

        model = SystemModel.time_varying(provider, dims=(3, 1, 0, 2))
        state = ulise_init(model, np.zeros(3), np.eye(3), np.zeros(2), np.zeros(1))
        for k in (1, 2):
            state, _ = ulise_step(state, np.zeros(2), np.zeros(1), np.zeros(1), model)
        with pytest.raises(NotPositiveDefiniteError, match="R is not PD at k=3"):
            ulise_step(state, np.zeros(2), np.zeros(1), np.zeros(1), model)

    def test_kalman_rejects_unknown_inputs(self):
        sc = config_scenario("fault_h1")
        with pytest.raises(InvalidInputError, match="^filter 'KALMAN' applies only to "):
            dataclasses.replace(sc, filters=("ULISE", "KALMAN"))

    def test_no_information_limit(self):
        # R -> infinity: the gain vanishes and the covariance follows the
        # open-loop propagation
        a = np.diag([0.9, 0.5])
        step = SystemStep(A=a, B=np.zeros((2, 0)), C=np.eye(2), D=np.zeros((2, 0)),
                          G=np.zeros((2, 0)), H=np.zeros((2, 0)),
                          Q=0.1 * np.eye(2), R=1e12 * np.eye(2))
        model = SystemModel.time_invariant(step)
        state = ulise_init(model, np.zeros(2), np.eye(2), np.zeros(2), np.zeros(0))
        px_prev = state.px
        for k in range(1, 6):
            state, out = ulise_step(state, np.zeros(2), np.zeros(0), np.zeros(0), model)
            open_loop = a @ px_prev @ a.T + step.Q
            assert np.linalg.norm(out.gains.gain_l) < 1e-9
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
        state = ulise_init(model, np.zeros(1), np.eye(1), np.zeros(1), np.zeros(0))
        for _ in range(200):
            state, _ = ulise_step(state, np.zeros(1), np.zeros(0), np.zeros(0), model)
        assert state.px[0, 0] == pytest.approx(p_oracle, abs=1e-12)

    def test_posterior_contracts_with_full_observation(self):
        # monotone non-increasing trace when C = I and the plant is stable
        rng = np.random.default_rng(2)
        model = random_system(rng, n=3, l=3, p=0, p_h=0, m=0)
        state = ulise_init(model, np.zeros(3), 10 * np.eye(3), np.zeros(3), np.zeros(0))
        traces = [np.trace(state.px)]
        for _ in range(30):
            state, _ = ulise_step(state, np.zeros(3), np.zeros(0), np.zeros(0), model)
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
                assert np.allclose(out.gains.gain_l, oracle, atol=1e-9)

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
            assert np.linalg.norm(out.gains.gain_l) < 1e-9
            oracle = full_rank_gain_oracle(model.step(0), out.px_star)
            assert np.linalg.norm(oracle) < 1e-9
            assert np.allclose(out.xhat, out.xhat_star, atol=1e-9)


class TestGammaPolicies:
    def test_policies_agree_on_estimates_and_covariances(self):
        # the gain parameterization family: different L, identical estimates
        model = config_scenario("fault_h1").model
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

        model = config_scenario("fault_h1").model
        step = model.step(0)
        dec = decompose_cached(step)
        state = ulise_init(model, np.zeros(5), np.eye(5), np.zeros(5), np.zeros(1))
        rng = np.random.default_rng(1)
        for k in range(1, 30):
            ahat, qhat = decoupled_dynamics(state.step, dec)
            p_tilde = symmetrize(ahat @ state.px @ ahat.T + qhat)
            r_hat = step.C @ p_tilde @ step.C.T + step.R
            y = rng.standard_normal(5)
            state, out = ulise_step(state, y, np.zeros(1), np.zeros(1), model,
                                    GammaPolicy.DAROUACH)
            # recompute the explicit-reduction gain at this step
            m2 = out.gains.m2
            r_check = _whitened_complement_reduction(r_hat, _r_star(step, dec, out, m2),
                                                     step.C, dec.G2)
            k_gain = out.px_star @ step.C.T - dec.G2 @ m2 @ dec.U2.T @ step.R
            core = np.linalg.inv(dec.U1.T @ r_check @ dec.U1)
            m1s = dec.sigma_inv @ core @ dec.U1.T @ r_check
            explicit = k_gain @ (np.eye(5) - dec.H1 @ m1s).T @ r_check
            assert np.allclose(out.gains.gain_l, explicit, atol=1e-10)

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
                    ahat, qhat = decoupled_dynamics(state.step, dec)
                    p_tilde = symmetrize(ahat @ state.px @ ahat.T + qhat)
                    r_hat = step.C @ p_tilde @ step.C.T + step.R
                    state, out = step_fn(state, ys[k], us[k], us[k - 1], model)
                    n_mat = (np.eye(l)
                             - step.C @ dec.G2 @ out.gains.m2_state @ dec.U2.T)
                    lhs = _r_star(step, dec, out, out.gains.m2_state)
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
            assert np.allclose(oa.gains.m2, ob.gains.m2_state, atol=1e-12)
            assert np.allclose(oa.xhat, ob.xhat, atol=1e-12)
            assert np.allclose(oa.px, ob.px, atol=1e-12)

    def test_reported_input_covariance_is_blue(self, fault_models):
        # the reported input covariance uses the GLS gain even though the
        # state path uses the OLS one
        model = fault_models[5]
        outs = _drive(model, 40, init=ulise_init, step_fn=cywz_step)
        out = outs[-1]
        assert not np.allclose(out.gains.m2, out.gains.m2_state)
        gls = out.gains.m2
        dec = decompose_cached(model.step(0))
        # BLUE covariance identity: pd2 == m2 r2_tilde m2'
        c2g2 = dec.C2 @ dec.G2
        assert np.allclose(gls @ c2g2, np.eye(1), atol=1e-10)

    def test_rank_deficient_input_map_raises(self):
        # dynamics-only input invisible in the feedthrough-free output
        bad = _rank_deficient_fault_model()
        state = ulise_init(bad, np.zeros(5), np.eye(5), np.zeros(5), np.zeros(1))
        with pytest.raises(EstimabilityError, match="rank"):
            ulise_step(state, np.zeros(5), np.zeros(1), np.zeros(1), bad)


def _rank_deficient_fault_model():
    """fault_h1 with the dynamics-only input invisible in the
    feedthrough-free output: rank(C2 G2) = 0 < 1."""
    step = config_scenario("fault_h1").model.step(0)
    g_bad = step.G.copy()
    g_bad[:, 0] = np.eye(5)[0]   # e1 lies in the feedthrough output span
    return SystemModel.time_invariant(SystemStep(
        A=step.A, B=step.B, C=step.C, D=step.D, G=g_bad, H=step.H, Q=step.Q, R=step.R))


def _pair_step(rng):
    """A step with a rank-2 H of a 3-column G: C2 G2 is 3 x 1, of full
    column rank."""
    return SystemStep(
        A=0.5 * np.eye(5), B=np.zeros((5, 1)), C=np.eye(5), D=np.zeros((5, 1)),
        G=rng.standard_normal((5, 3)),
        H=rng.standard_normal((5, 2)) @ rng.standard_normal((2, 3)),
        Q=np.eye(5), R=np.eye(5))


class TestPairContext:
    def test_rank_deficient_c2g2_raises_on_every_call(self):
        model = _rank_deficient_fault_model()
        dec = decompose_cached(model.step(0))
        state = ulise_init(model, np.zeros(5), np.eye(5), np.zeros(5), np.zeros(1))
        pstate = plise_init(model, np.zeros(5), np.eye(5), np.zeros(5), np.zeros(1))
        ctx = _pair_context(dec, dec, DEFAULT_TOL)
        assert (ctx.rank, dec.G2.shape[1]) == (0, 1)
        # the deficient pair keeps its context; every step on it raises
        for _ in range(3):
            for step_fn, st0 in ((ulise_step, state), (cywz_step, state), (plise_step, pstate)):
                with pytest.raises(EstimabilityError, match=r"rank\(C2 G2\) = 0 < 1"):
                    step_fn(st0, np.zeros(5), np.zeros(1), np.zeros(1), model)
            assert _pair_context(dec, dec, DEFAULT_TOL) is ctx

    def test_structural_checks_and_filters_share_the_self_pair_context(self):
        # analyze forms the pseudoinverse that CYWZ's first step then uses;
        # the scaled R gives a decomposition that no other test has paired
        sc = config_scenario("fault_h1")
        base = sc.model.step(0)
        model = SystemModel.time_invariant(dataclasses.replace(base, R=1.5 * base.R))
        analyze(model)
        dec = decompose_cached(model.step(0))
        ctx = _pair_context(dec, dec, DEFAULT_TOL)
        assert "c2g2_pinv" in vars(ctx)
        state = ulise_init(model, sc.x0_mean, sc.p0, np.zeros(5), np.zeros(1))
        _, out = cywz_step(state, np.zeros(5), np.zeros(1), np.zeros(1), model)
        assert out.gains.m2_state is ctx.c2g2_pinv

    def test_arrays_are_read_only(self):
        dec = decompose_cached(config_scenario("fault_h1").model.step(0))
        ctx = _pair_context(dec, dec, DEFAULT_TOL)
        for arr in (ctx.c2g2, ctx.c2g2_pinv):
            with pytest.raises(ValueError):
                arr[...] = 0.0

    def test_one_context_per_decomposition_pair_of_the_online_plant(self, monkeypatch):
        # k = 0-300 crosses three H switches: a decomposition per run of
        # equal H (k = 0-99, 100-199, 200-299, 300), 6 ordered pairs, and
        # one OLS pseudoinverse per pair
        model, sc = online_plant(300)
        truth = simulate_truth(sc, 0)
        found = []

        def recording(dec_prev, dec, tol):
            found.append(((dec_prev, dec), _pair_context(dec_prev, dec, tol)))
            return found[-1][1]

        monkeypatch.setattr(lise.filters, "_pair_context", recording)
        state = ulise_init(model, sc.x0_mean, sc.p0, truth.y[0], truth.u[0])
        pinvs = []
        for k in range(1, 301):
            state, out = cywz_step(state, truth.y[k], truth.u[k], truth.u[k - 1], model)
            pinvs.append(out.gains.m2_state)
        assert len(found) == 300
        contexts = {id(ctx): ctx for _, ctx in found}
        assert len({pair for pair, _ in found}) == len(contexts) == 6
        assert len({id(dec) for pair, _ in found for dec in pair}) == 4
        assert all(dict(found)[pair] is ctx for pair, ctx in found)
        assert len({id(m) for m in pinvs}) == 6
        assert all(any(m is c.c2g2_pinv for c in contexts.values()) for m in pinvs)

    def test_size_is_bounded(self):
        # pairs of fresh decompositions that nothing keeps: the pair
        # contexts go with them, so 100 more pairs leave the traced total
        # where it was
        rng = np.random.default_rng(8)

        def fill(count):
            prev = decompose(_pair_step(rng))
            for _ in range(count):
                dec = decompose(_pair_step(rng))
                _pair_context(prev, dec, DEFAULT_TOL).c2g2_pinv
                prev = dec

        fill(100)
        tracemalloc.start()
        try:
            # after 100 more pairs every live decomposition and context was
            # made while tracing
            fill(100)
            gc.collect()
            full, _ = tracemalloc.get_traced_memory()
            fill(100)
            gc.collect()
            later, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # not even the last pair of decompositions of about 6 KiB each
        assert full < 8 * 1024, full
        assert abs(later - full) < 8 * 1024, (full, later)

    def test_contexts_die_with_their_decompositions(self):
        rng = np.random.default_rng(9)
        decs = [decompose(_pair_step(rng)) for _ in range(101)]
        ctxs = [_pair_context(decs[i], decs[i + 1], DEFAULT_TOL) for i in range(100)]
        for ctx in ctxs:
            ctx.c2g2_pinv
        refs = [weakref.ref(obj) for obj in decs + ctxs]
        del decs, ctxs, ctx
        gc.collect()
        assert sum(ref() is not None for ref in refs) == 0


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
        base = config_scenario("fault_h3").model.step(0)
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
        base = config_scenario("fault_h1").model.step(0)
        g = np.array([[1.0, 0.0, -0.3],
                      [1.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0]])
        h_by_phase = [np.zeros((5, 3)), np.array(base.H),
                      config_scenario("fault_h2").model.step(0).H]

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

    @pytest.mark.parametrize("variant", ["ULISE", "PLISE", "CYWZ", "KALMAN"])
    def test_each_step_fetches_its_model_step_once(self, variant):
        # step k-1 comes from the filter state, so stepping through k = 1..N
        # asks the provider for k = 0..N once each
        base = config_scenario("fault_h1").model.step(0)
        p = 0 if variant == "KALMAN" else base.p
        calls = []

        def provider(k):
            calls.append(k)
            return SystemStep(A=base.A, B=base.B, C=base.C, D=base.D, G=base.G[:, :p],
                              H=base.H[:, :p], Q=base.Q, R=base.R)

        model = SystemModel.time_varying(provider, dims=(5, 1, p, 5), horizon_hint=20)
        rng = np.random.default_rng(2)
        ys = rng.standard_normal((21, 5))
        us = rng.standard_normal((21, 1))
        init, step_fn = _FILTER_FNS[variant]
        state = init(model, np.zeros(5), np.eye(5), ys[0], us[0])
        for k in range(1, 21):
            state, _ = step_fn(state, ys[k], us[k], us[k - 1], model)
        assert calls == list(range(21))

    def test_interleaved_filters_share_one_provider_call_per_k(self, monkeypatch):
        # ULISE, PLISE and CYWZ stepped side by side, one k at a time: the
        # model's memo hands all three the step object of the first request,
        # so 1000 steps make 1001 provider calls, and a step takes the
        # decomposition of the step before it when H, R, C, D and G repeat,
        # so every pass decomposes once per run of equal H (k = 0-99, ...,
        # 900-999, 1000): 11 times
        base = config_scenario("fault_h1").model.step(0)
        h2 = config_scenario("fault_h2").model.step(0).H
        decomposed, ruled = [], []
        real = lise.decomposition.decompose
        monkeypatch.setattr(lise.decomposition, "decompose",
                            lambda step, tol: decomposed.append(step) or real(step, tol))
        rule = lise.decomposition._psd_eigh
        monkeypatch.setattr(lise.decomposition, "_psd_eigh",
                            lambda a, tol, what: ruled.append(what) or rule(a, tol, what))
        rng = np.random.default_rng(4)
        ys = rng.standard_normal((1001, 5))
        us = rng.standard_normal((1001, 1))
        fns = [(ulise_init, ulise_step), (plise_init, plise_step), (ulise_init, cywz_step)]
        for _ in range(2):
            made = []

            def provider(k):
                made.append(SystemStep(A=(1.0 + 0.2 * np.sin(k / 80.0)) * base.A, B=base.B,
                                       C=base.C, D=base.D, G=base.G,
                                       H=base.H if (k // 100) % 2 == 0 else h2,
                                       Q=base.Q, R=base.R))
                return made[-1]

            model = SystemModel.time_varying(provider, dims=(5, 1, 3, 5), horizon_hint=1000)
            decomposed.clear()
            ruled.clear()
            states = [init(model, np.zeros(5), np.eye(5), ys[0], us[0]) for init, _ in fns]
            for k in range(1, 1001):
                for i, (_, step_fn) in enumerate(fns):
                    states[i], _ = step_fn(states[i], ys[k], us[k], us[k - 1], model)
                assert states[0].step is states[1].step is states[2].step
            assert len(made) == 1001
            assert len(decomposed) == 11
            assert all(s is made[k] for s, k in zip(decomposed, range(0, 1001, 100)))
            # every step has fault_h1's Q and R objects: the rules test each
            # once, at k = 0, not again at each decomposition
            assert ruled == ["Q", "R"]

    def test_a_pass_leaves_no_decomposition_behind(self):
        # every decomposition, step context and pair context of an
        # interleaved pass dies with the pass's states, steps and model
        model, sc = online_plant(300)
        truth = simulate_truth(sc, 0)
        fns = [(ulise_init, ulise_step), (plise_init, plise_step), (ulise_init, cywz_step)]
        pairs = []
        real = lise.filters._pair_context

        def recording(dec_prev, dec, tol):
            pairs.append(weakref.ref(real(dec_prev, dec, tol)))
            return pairs[-1]()

        tracemalloc.start()
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lise.filters, "_pair_context", recording)
                states = [init(model, sc.x0_mean, sc.p0, truth.y[0], truth.u[0])
                          for init, _ in fns]
                refs = []
                for k in range(1, 301):
                    for i, (_, step_fn) in enumerate(fns):
                        states[i], _ = step_fn(states[i], truth.y[k], truth.u[k],
                                               truth.u[k - 1], model)
                    refs.append(weakref.ref(decompose_cached(states[0].step)))
                    refs.append(weakref.ref(_step_context(states[0].step)))
            gc.collect()
            live, _ = tracemalloc.get_traced_memory()
            assert sum(ref() is not None for ref in refs) > 0
            del states, model, sc, truth
            gc.collect()
            later, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(ref() is not None for ref in refs + pairs) == 0
        # the weak references themselves are what is left
        assert later < live, (live, later)
        assert later < len(refs + pairs) * 128 + 16 * 1024, later

    def test_gain_constraint_annihilates_feedthrough_directions(self, fault_models):
        outs = _drive(fault_models[1], 30)
        dec = decompose_cached(fault_models[1].step(0))
        for out in outs:
            assert np.linalg.norm(out.gains.gain_l @ dec.U1) < 1e-10


def test_compute_gain_requires_r_hat_for_default_policy(fault_models):
    step = fault_models[1].step(0)
    dec = decompose_cached(step)
    with pytest.raises(InvalidInputError):
        compute_gain_L(np.eye(5), step, dec, dec.G2 @ np.zeros((1, 3)), dec.G2,
                       GammaPolicy.DAROUACH)


def _spd(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T + 0.1 * np.eye(n), rng


def _spd_solve(mat, rhs, what):
    """A solve with a matrix that the model assumptions make PD, as the
    filters make it: factor, then solve with the factor."""
    return _factor_solve(_spd_factor(mat, what), rhs, what)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(1, 8), st.sampled_from([None, 1, 3]))
def test_spd_solve_is_bitwise_scipy_cho_solve(seed, n, cols):
    mat, rng = _spd(seed, n)
    rhs = rng.standard_normal(n if cols is None else (n, cols))
    want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(mat), rhs)
    got = _spd_solve(mat, rhs, "test matrix")
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    # a factor reused for a second right-hand side solves the same way
    assert np.array_equal(_factor_solve(_spd_factor(mat, "m"), rhs, "m"), want)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(1, 6), st.sampled_from([None, 2]),
       st.sampled_from(["indefinite", "nan", "inf", "rhs"]))
def test_spd_solve_rejects_indefinite_or_nonfinite(seed, n, cols, fault):
    mat, rng = _spd(seed, n)
    rhs = rng.standard_normal(n if cols is None else (n, cols))
    i, j = rng.integers(0, n, size=2)
    if fault == "indefinite":
        mat = mat - (np.linalg.eigvalsh(mat)[0] + 1.0) * np.eye(n)
    elif fault == "rhs":
        rhs[i] = np.nan
    else:
        # either triangle: the wrapper checked the whole matrix
        mat[i, j] = np.nan if fault == "nan" else np.inf
    with pytest.raises(NumericalError, match="test matrix"):
        _spd_solve(mat, rhs, "test matrix")


def test_a_failed_potrs_solve_is_a_named_error(monkeypatch):
    # LAPACK's potrs fails only on an illegal argument (info < 0), which
    # the factor and the right-hand side of a step never are: a stub
    # stands in for it
    mat, rng = _spd(0, 3)
    factor = _spd_factor(mat, "test matrix")
    monkeypatch.setattr(lise.filters, "dpotrs", lambda c, b, lower: (b, -2))
    with pytest.raises(NumericalError,
                       match=r"^solve with the test matrix failed \(potrs info -2\)$"):
        _factor_solve(factor, rng.standard_normal(3), "test matrix")


def test_spd_solve_empty_blocks():
    assert _spd_solve(np.zeros((0, 0)), np.zeros((0, 3)), "m").shape == (0, 3)
    mat, _ = _spd(0, 3)
    assert _spd_solve(mat, np.zeros((3, 0)), "m").shape == (3, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31), st.lists(st.integers(0, 4), min_size=1, max_size=3))
@example(0, [5, 0, 2])  # PLISE's joint covariance with p_h = 0
@example(1, [5, 2, 0])  # and with q = 0
@example(2, [0, 3])  # pd_prev with p_h = 0
def test_sym_block_equals_np_block(seed, sizes):
    # byte for byte, on blocks that hold zeros of both signs and arrive
    # C-ordered or as transposed (F-ordered) views, as the filters' do
    rng = np.random.default_rng(seed)

    def block(rows, cols):
        b = rng.standard_normal((rows, cols)) * rng.choice([0.0, -0.0, 1.0], (rows, cols))
        return np.ascontiguousarray(b.T).T if rng.random() < 0.5 else b

    blocks = {(i, j): block(sizes[i], sizes[j])
              for i in range(len(sizes)) for j in range(i, len(sizes))}
    full = [[blocks[i, j] if j >= i else blocks[j, i].T for j in range(len(sizes))]
            for i in range(len(sizes))]
    upper = [[blocks[i, j] for j in range(i, len(sizes))] for i in range(len(sizes))]
    got = _sym_block(upper)
    want = np.block(full)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


class TestSingularBranches:
    """The error branches of the gain solves, on hand-made inputs that reach
    them directly."""

    def test_singular_input_information_matrix(self):
        # a zero column of C2 G2 makes (C2 G2)' R2~^-1 (C2 G2) singular
        dec = SimpleNamespace(C2=np.eye(2), R2=np.eye(2))
        c2g2 = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(NumericalError,
                           match="input-estimate information matrix is singular"):
            _input_gain_gls(np.eye(2), dec, c2g2)

    def test_singular_closed_form_core(self):
        # U2 = U1 (not a valid decomposition) lets C G2 M2 U2' cancel U1, so
        # U1' r_hat^-1 (I - C G2 M2 U2') U1 = 0
        e1 = np.array([[1.0], [0.0]])
        dec = SimpleNamespace(U1=e1, U2=e1, p_h=1, sigma_inv=np.eye(1), H1=e1)
        step = SimpleNamespace(C=np.eye(2), R=np.eye(2))
        with pytest.raises(GainConstructionError,
                           match="reduced gain core is singular for this step"):
            compute_gain_L(np.eye(2), step, dec, e1, np.zeros((2, 1)),
                           GammaPolicy.DAROUACH, r_hat=np.eye(2))

    def test_inadmissible_pseudo_inverse_reduction(self):
        # r_star = diag(0, 1) has no range along U1 = e1
        e1 = np.array([[1.0], [0.0]])
        dec = SimpleNamespace(U1=e1, U2=np.array([[0.0], [1.0]]), p_h=1,
                              sigma_inv=np.eye(1), H1=e1)
        step = SimpleNamespace(C=np.eye(2), R=np.diag([0.0, 1.0]))
        with pytest.raises(GainConstructionError, match="U1' r_check U1 is singular"):
            compute_gain_L(np.zeros((2, 2)), step, dec, np.zeros((2, 1)),
                           np.zeros((2, 1)), GammaPolicy.PSEUDO_INVERSE)

    def test_singular_whitened_complement(self):
        # r_star = 0 leaves nothing to invert on the complement
        with pytest.raises(GainConstructionError,
                           match="reduced innovation covariance is singular"):
            _whitened_complement_reduction(np.eye(2), np.zeros((2, 2)), np.eye(2),
                                           np.zeros((2, 0)))
