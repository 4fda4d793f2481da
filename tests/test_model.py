import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lise.model
from conftest import config_scenario, online_plant, stable_matrix
from oracles import per_step_validate_oracle, vehicle_tracking_model
from lise.errors import InvalidInputError
from lise.model import ContinuousModel, SystemModel, SystemStep, c2d_zoh, validate


def _simple_step(**overrides):
    kw = dict(
        A=np.diag([0.5, 0.2]), B=np.zeros((2, 1)), C=np.eye(2), D=np.zeros((2, 1)),
        G=np.array([[1.0], [0.0]]), H=np.zeros((2, 1)),
        Q=0.1 * np.eye(2), R=0.2 * np.eye(2),
    )
    kw.update(overrides)
    return SystemStep(**kw)


class TestSystemStep:
    def test_shape_mismatch_raises(self):
        with pytest.raises(InvalidInputError):
            _simple_step(C=np.eye(3))
        with pytest.raises(InvalidInputError):
            _simple_step(H=np.zeros((2, 2)))
        with pytest.raises(InvalidInputError):
            _simple_step(A=np.zeros((2, 3)))

    def test_dims(self):
        s = _simple_step()
        assert (s.n, s.m, s.p, s.l) == (2, 1, 1, 2)

    def test_matrices_are_read_only(self):
        s = _simple_step()
        with pytest.raises(ValueError):
            s.A[0, 0] = 9.0


    def test_step_rebuilt_from_another_steps_matrices_shares_them(self):
        s = _simple_step()
        t = SystemStep(A=s.A, B=s.B, C=s.C, D=s.D, G=s.G, H=s.H, Q=s.Q, R=s.R)
        for name in "ABCDGHQR":
            assert getattr(t, name) is getattr(s, name)

    def test_writable_input_is_copied(self):
        a = np.diag([0.5, 0.2])
        s = _simple_step(A=a)
        a[0, 0] = 9.0
        assert s.A[0, 0] == 0.5 and s.A is not a

    def test_read_only_view_of_a_writable_array_is_copied(self):
        big = np.diag([0.5, 0.2, 0.1])
        view = big[:2, :2]
        view.setflags(write=False)
        s = _simple_step(A=view)
        big[0, 0] = 9.0
        assert s.A[0, 0] == 0.5 and s.A.base is None

    def test_other_dtypes_and_subclasses_are_converted(self):
        a = np.eye(2, dtype=np.float32)
        a.setflags(write=False)
        assert _simple_step(A=a).A.dtype == np.float64

        class Sub(np.ndarray):
            pass

        sub = np.eye(2).view(Sub).copy()
        sub.setflags(write=False)
        assert sub.base is None and type(_simple_step(A=sub).A) is np.ndarray


class TestProviderMemo:
    """A time-varying model asks its provider once per run of equal k."""

    def _model(self, calls, dims=(2, 1, 1, 2)):
        def provider(k):
            calls.append(k)
            return _simple_step(A=np.diag([0.5, 0.2]) * (1.0 + 0.01 * k))

        return SystemModel.time_varying(provider, dims=dims)

    def test_repeated_k_shares_one_step_object(self):
        calls = []
        model = self._model(calls)
        steps = [model.step(k) for k in (0, 0, 1, 1, 1, 2)]
        assert calls == [0, 1, 2]
        assert steps[0] is steps[1] and steps[2] is steps[3] is steps[4]

    def test_going_back_to_an_earlier_k_fetches_again(self):
        calls = []
        model = self._model(calls)
        first = model.step(3)
        model.step(4)
        again = model.step(3)
        assert calls == [3, 4, 3]
        assert again is not first and np.array_equal(again.A, first.A)

    def test_dims_mismatch_is_not_memoised(self):
        calls = []
        model = self._model(calls, dims=(2, 1, 1, 3))
        for _ in range(2):
            with pytest.raises(InvalidInputError, match="provider returned dims"):
                model.step(5)
        assert calls == [5, 5]

    def test_time_invariant_model_has_no_memo(self):
        step = _simple_step()
        model = SystemModel.time_invariant(step)
        assert model.step(0) is model.step(7) is step


class TestValidate:
    def test_fault_benchmark_is_valid(self, fault_models):
        model = fault_models[1]
        assert (model.n, model.m, model.p, model.l) == (5, 1, 3, 5)
        assert validate(model) == []

    def test_r_not_pd(self):
        model = SystemModel.time_invariant(_simple_step(R=np.zeros((2, 2))))
        fields = {v.field for v in validate(model)}
        assert "R" in fields

    @pytest.mark.parametrize("overrides, field, message", [
        (dict(A=np.array([[0.5, np.nan], [0.0, 0.2]])), "A", "A has non-finite entries"),
        (dict(G=np.ones((2, 3)), H=np.zeros((2, 3))), "dims", "need l >= p >= 0, got l=2, p=3"),
        (dict(Q=np.array([[0.1, 0.05], [0.0, 0.1]])), "Q", "Q not symmetric"),
        (dict(Q=np.diag([0.1, -0.1])), "Q", "Q not PSD (min eigenvalue -1.000e-01)"),
        (dict(R=np.array([[0.2, 0.1], [0.0, 0.2]])), "R", "R not symmetric"),
    ])
    def test_violation_names_its_field_and_step(self, overrides, field, message):
        model = SystemModel.time_invariant(_simple_step(**overrides))
        found = [(v.index, v.field, v.message) for v in validate(model)]
        assert (0, field, message) in found

    def test_no_output_is_a_dims_violation(self):
        # C of shape (0, 2) and an empty R: the dims check names it, and the
        # R check, with no eigenvalue to test, is skipped
        step = _simple_step(C=np.zeros((0, 2)), D=np.zeros((0, 1)), H=np.zeros((0, 1)),
                            R=np.zeros((0, 0)))
        found = [(v.index, v.field, v.message) for v in validate(SystemModel.time_invariant(step))]
        assert found == [(0, "dims", "need n >= l >= 1, got n=2, l=0"),
                         (0, "dims", "need l >= p >= 0, got l=0, p=1")]

    def test_zero_input_maps_violate_stacked_rank(self):
        model = SystemModel.time_invariant(_simple_step(G=np.zeros((2, 1))))
        msgs = [v for v in validate(model) if v.field == "G/H"]
        assert msgs and "rank" in msgs[0].message

    def test_dimension_ordering(self):
        # l > n violates the standing ordering
        step = SystemStep(
            A=np.eye(1), B=np.zeros((1, 0)), C=np.ones((2, 1)), D=np.zeros((2, 0)),
            G=np.zeros((1, 0)), H=np.zeros((2, 0)), Q=np.eye(1), R=np.eye(2),
        )
        model = SystemModel.time_invariant(step)
        assert any(v.field == "dims" for v in validate(model))

    def test_time_varying_provider_checked(self):
        base = _simple_step()
        bad = _simple_step(R=np.zeros((2, 2)))
        model = SystemModel.time_varying(lambda k: bad if k == 3 else base,
                                         dims=(2, 1, 1, 2), horizon_hint=5)
        viol = validate(model)
        assert any(v.index == 3 and v.field == "R" for v in viol)

    def test_model_needs_a_fixed_step_or_a_provider(self):
        with pytest.raises(InvalidInputError, match="exactly one of a fixed step and a provider"):
            SystemModel(2, 1, 1, 2)

    def test_model_takes_not_both_a_fixed_step_and_a_provider(self):
        step = _simple_step()
        with pytest.raises(InvalidInputError, match="exactly one of a fixed step and a provider"):
            SystemModel(2, 1, 1, 2, fixed=step, provider=lambda k: step)

    def test_fixed_step_dim_mismatch_raises(self):
        step = config_scenario("fault_h1").model.step(0)
        with pytest.raises(InvalidInputError,
                           match=r"fixed step has dims \(5, 1, 3, 5\), expected \(2, 1, 1, 2\)"):
            SystemModel(2, 1, 1, 2, fixed=step)

    def test_provider_dim_mismatch_raises(self):
        model = SystemModel.time_varying(lambda k: _simple_step(), dims=(3, 1, 1, 2))
        with pytest.raises(InvalidInputError):
            model.step(0)


def _fault_plant(horizon, **at):
    """fault_h1 as a time-varying model whose provider builds fresh arrays at
    every k; ``at[name](k)`` gives matrix ``name`` at k (default: fault_h1's)."""
    base = config_scenario("fault_h1").model.step(0)

    def provider(k):
        return SystemStep(**{name: np.array(at[name](k) if name in at else getattr(base, name))
                             for name in ("A", "B", "C", "D", "G", "H", "Q", "R")})

    return SystemModel.time_varying(provider, dims=(base.n, base.m, base.p, base.l),
                                    horizon_hint=horizon)


def _r_singular_from(k0):
    r = config_scenario("fault_h1").model.step(0).R
    singular = r.copy()
    singular[4, :] = singular[:, 4] = 0.0
    return lambda k: singular if k >= k0 else r


def _q_asymmetric_at(ks):
    q = config_scenario("fault_h1").model.step(0).Q
    skew = q.copy()
    skew[0, 1] += 1e-3
    return lambda k: skew if k in ks else q


def _input_maps(full_at, first_only_at):
    # rank([G; H]) is p = 3 at k in full_at, 1 at k in first_only_at (only
    # the first unknown input reaches the plant and the sensors) and 2 at
    # every other k (the third does not)
    step = config_scenario("fault_h1").model.step(0)
    g2, h2 = step.G.copy(), step.H.copy()
    g2[:, 2] = h2[:, 2] = 0.0
    g1, h1 = g2.copy(), h2.copy()
    g1[:, 1] = h1[:, 1] = 0.0

    def pick(full, two, one):
        return lambda k: full if k in full_at else one if k in first_only_at else two

    return {"G": pick(step.G, g2, g1), "H": pick(step.H, h2, h1)}


class TestValidateOnce:
    """validate checks Q, R and [G; H] again only where their bytes change,
    and reports exactly what checking every step reports."""

    @pytest.mark.parametrize("horizon, at", [
        (200, {"R": _r_singular_from(120)}),
        (20, {"Q": _q_asymmetric_at((5, 6))}),
        (15, _input_maps(full_at=(7,), first_only_at=())),
        (15, _input_maps(full_at=(), first_only_at=(0, 1, 2))),
        (12, {"Q": lambda k: np.diag([1.0, 1.0, 1.0, 1.0, -1.0 if k % 3 else 1.0]),
              "R": lambda k: np.zeros((5, 5)) if k in (4, 9) else np.eye(5)}),
    ], ids=["r-singular-from-120", "q-asymmetric-at-5-6", "rank-p-at-7-only",
            "rank-2-after-rank-1", "alternating"])
    def test_violations_equal_the_per_step_checks(self, horizon, at):
        model = _fault_plant(horizon, **at)
        got = validate(model)
        assert got == per_step_validate_oracle(model)

    def test_an_empty_range_checks_step_0(self):
        model = _fault_plant(12, Q=lambda k: -np.eye(5) if k == 0 else np.eye(5))
        got = validate(model, range(0))
        assert got == validate(model, [0])
        assert [(v.index, v.field) for v in got] == [(0, "Q")]

    def test_r_singular_from_120_is_reported_at_every_later_step(self):
        got = validate(_fault_plant(200, R=_r_singular_from(120)))
        assert [(v.index, v.field, v.message) for v in got] == [
            (k, "R", "R not PD") for k in range(120, 201)]

    def test_stacked_rank_is_the_best_over_the_steps(self):
        assert validate(_fault_plant(15, **_input_maps(full_at=(7,), first_only_at=()))) == []
        got = validate(_fault_plant(15, **_input_maps(full_at=(), first_only_at=(0, 1, 2))))
        assert [(v.index, v.field) for v in got] == [(None, "G/H")]
        assert got[0].message.startswith("max_k rank([G; H]) = 2 != p = 3")

    def test_each_distinct_check_runs_once_on_the_online_plant(self, monkeypatch):
        # the online plant's Q and R never change and its H switches every
        # 100 steps: one eigendecomposition each of Q and R (by the step
        # contexts, which judge them), and one rank of [G; H] per run of 100
        # equal steps (11 over k = 0..1000)
        model, _ = online_plant(1000)
        counts = {"_psd_eigh": 0, "rank": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(lise.decomposition, "_psd_eigh",
                            counting("_psd_eigh", lise.decomposition._psd_eigh))
        monkeypatch.setattr(lise.model, "rank", counting("rank", lise.model.rank))
        assert validate(model, range(1001)) == []
        assert counts == {"_psd_eigh": 2, "rank": 11}
        monkeypatch.undo()
        assert per_step_validate_oracle(model, range(1001)) == []


class TestC2d:
    def test_zero_generator(self):
        b = np.array([[0.5], [2.0]])
        cm = ContinuousModel(A=np.zeros((2, 2)), B=b, G=np.zeros((2, 0)),
                             C=np.eye(2), D=np.zeros((2, 1)), H=np.zeros((2, 0)),
                             Q=np.zeros((2, 2)), R=np.eye(2), dt=0.25)
        model = c2d_zoh(cm)
        step = model.step(0)
        assert np.allclose(step.A, np.eye(2))
        assert np.allclose(step.B, 0.25 * b)

    def test_vehicle_discretization_against_quadrature(self):
        # independent oracle: the damped-velocity column integrates in closed
        # form, int_0^dt exp(-0.1 s) ds = (1 - exp(-0.001)) / 0.1
        cm = vehicle_tracking_model()
        step = c2d_zoh(cm).step(0)
        coupling = (1.0 - math.exp(-0.001)) / 0.1
        assert step.A[0, 1] == pytest.approx(coupling, rel=1e-12)
        assert round(step.A[0, 1], 2) == 0.01
        assert step.A[1, 1] == pytest.approx(math.exp(-0.001), rel=1e-12)
        assert step.A[1, 1] > 0  # derived from the continuous model, always positive
        assert step.B[3, 0] == pytest.approx(coupling, rel=1e-12)
        assert step.G[1, 0] == pytest.approx(coupling, rel=1e-12)

    def test_vehicle_sampled_process_noise(self):
        step = c2d_zoh(vehicle_tracking_model()).step(0)
        printed = 1e-5 * np.array([
            [0.0000, 0.0008, 0.0, 0.0],
            [0.0008, 0.1598, 0.0, 0.0],
            [0.0, 0.0, 0.0000, 0.0004],
            [0.0, 0.0, 0.0004, 0.0899],
        ])
        assert np.allclose(step.Q, printed, atol=5e-5 * 1e-5)
        assert np.allclose(step.Q, step.Q.T)
        assert np.min(np.linalg.eigvalsh(step.Q)) >= -1e-18

    def test_r_passthrough_and_flag(self):
        cm = vehicle_tracking_model()
        assert np.array_equal(c2d_zoh(cm).step(0).R, cm.R)
        assert np.allclose(c2d_zoh(cm, scale_r_by_dt=True).step(0).R, cm.R / cm.dt)

    @pytest.mark.parametrize("field,bad,message", [
        ("A", np.zeros((2, 3)), r"A must be square, got \(2, 3\)"),
        ("B", np.zeros((3, 1)), "B must have 2 rows, got 3"),
        ("G", np.zeros((3, 1)), "G must have 2 rows, got 3"),
        ("C", np.zeros((2, 3)), "C must have 2 columns, got 3"),
        ("D", np.zeros((2, 2)), "D must have 1 columns, got 2"),
        ("H", np.zeros((2, 2)), "H must have 1 columns, got 2"),
        ("Q", np.zeros((2, 3)), "Q must have 2 columns, got 3"),
        ("R", np.zeros((3, 2)), "R must have 2 rows, got 3"),
        ("R", np.zeros(2), r"R must be 2-D, got shape \(2,\)"),
    ])
    def test_shapes_follow_the_step_rules(self, field, bad, message):
        mats = dict(A=np.zeros((2, 2)), B=np.zeros((2, 1)), G=np.zeros((2, 1)),
                    C=np.eye(2), D=np.zeros((2, 1)), H=np.zeros((2, 1)),
                    Q=np.eye(2), R=np.eye(2))
        mats[field] = bad
        with pytest.raises(InvalidInputError, match=message):
            ContinuousModel(**mats, dt=0.1)

    def test_invalid_dt(self):
        with pytest.raises(InvalidInputError):
            ContinuousModel(A=np.zeros((1, 1)), B=np.zeros((1, 0)), G=np.zeros((1, 0)),
                            C=np.eye(1), D=np.zeros((1, 0)), H=np.zeros((1, 0)),
                            Q=np.zeros((1, 1)), R=np.eye(1), dt=0.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31), st.floats(1e-6, 1e-3))
def test_c2d_small_dt_limits(seed, dt):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 2))
    cm = ContinuousModel(A=a, B=b, G=np.zeros((3, 0)), C=np.eye(3),
                         D=np.zeros((3, 2)), H=np.zeros((3, 0)),
                         Q=np.eye(3), R=np.eye(3), dt=dt)
    step = c2d_zoh(cm).step(0)
    assert np.allclose(step.A, np.eye(3) + a * dt, atol=10 * dt ** 2 * np.linalg.norm(a) ** 2 + 1e-12)
    assert np.allclose(step.B, b * dt, atol=10 * dt ** 2 * (1 + np.linalg.norm(a)) * np.linalg.norm(b) + 1e-12)
    assert np.min(np.linalg.eigvalsh(0.5 * (step.Q + step.Q.T))) >= -1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_stable_continuous_gives_stable_discrete(seed):
    rng = np.random.default_rng(seed)
    a = stable_matrix(rng, 4, radius=2.0) - 2.5 * np.eye(4)   # real parts < 0
    assert np.max(np.linalg.eigvals(a).real) < 0
    cm = ContinuousModel(A=a, B=np.zeros((4, 0)), G=np.zeros((4, 0)),
                         C=np.eye(4), D=np.zeros((4, 0)), H=np.zeros((4, 0)),
                         Q=np.eye(4), R=np.eye(4), dt=0.1)
    step = c2d_zoh(cm).step(0)
    assert np.max(np.abs(np.linalg.eigvals(step.A))) < 1.0
