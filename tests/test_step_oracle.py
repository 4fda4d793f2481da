"""The ULISE, PLISE and CYWZ steps against a from-scratch copy of their
arithmetic (``oracles.step_oracle``), bit for bit.

The step functions take their data-independent constants (decompositions,
``C2 G2`` and its pseudoinverse, the decoupled dynamics) from caches shared
across steps; every output, every field of the next state and the
decomposition of its step's context must still be what computing each step
from scratch gives.
"""

import dataclasses
import math
import re
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import config_scenario, random_system
from oracles import kalman_step_oracle, step_oracle
from lise.decomposition import _step_context
from lise.errors import LiseError
from lise.filters import (
    GammaPolicy,
    cywz_step,
    kalman_init,
    kalman_step,
    plise_init,
    plise_step,
    ulise_init,
    ulise_step,
)
from lise.model import SystemModel, SystemStep
from lise.simulate import simulate_truth

CONFIGS = ("fault_h1", "fault_h2", "fault_h3", "fault_h4", "fault_h5", "fault_h6",
           "vehicle_tracking")
STEPS = {"ULISE": (ulise_init, ulise_step), "PLISE": (plise_init, plise_step),
         "CYWZ": (ulise_init, cywz_step)}


def _assert_bitwise(got, want, where):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), where
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), where
    else:
        assert type(got) is type(want) and got == want, where


def _run_against_oracle(variant, model, ys, us, x0, p0, gamma, n_steps):
    """Step ``variant`` over the data, checking each step against the oracle
    applied to the same previous state; returns the number of steps taken
    before both raised the same error (``n_steps`` when neither did)."""
    init, step_fn = STEPS[variant]
    state = init(model, x0, p0, ys[0], us[0])
    for k in range(1, n_steps + 1):
        args = (state, ys[k], us[k], us[k - 1], model)
        try:
            want_state, want = step_oracle(variant, *args, gamma)
        except LiseError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                step_fn(*args, gamma)
            return k - 1
        state, out = step_fn(*args, gamma)
        for name, value in want.items():
            _assert_bitwise(attrgetter(name)(out), value, (variant, k, name))
        want_dec = want_state.pop("dec")
        # the oracle returns every array the state holds
        assert ({f.name for f in dataclasses.fields(state)}
                == set(want_state) | {"k", "step"}), variant
        for name, value in want_state.items():
            _assert_bitwise(getattr(state, name), value, (variant, k, "state", name))
        assert state.k == k
        step = model.step(k)
        for name in "ABCDGHQR":
            _assert_bitwise(getattr(state.step, name), getattr(step, name), (variant, k, name))
        # the decomposition the next step runs on is that of the step's context
        dec = _step_context(state.step).dec
        assert {f.name for f in dataclasses.fields(dec)} == set(want_dec)
        for name, value in want_dec.items():
            _assert_bitwise(getattr(dec, name), value, (variant, k, "dec", name))
    return n_steps


@pytest.mark.parametrize("name", CONFIGS)
def test_steps_match_oracle_on_bundled_configs(name):
    sc = config_scenario(name, horizon=300)
    truth = simulate_truth(sc, 0)
    for variant in STEPS:
        assert _run_against_oracle(variant, sc.model, truth.y, truth.u, sc.x0_mean,
                                   sc.p0, sc.gamma, sc.horizon) == sc.horizon


def switching_model(rng, p, rank_a, rank_b):
    """A time-varying ``random_system`` whose provider builds a fresh step per
    k: A follows a sinusoid, and G, H and R switch every 3 steps between two
    draws whose feedthrough ranks are ``rank_a`` and ``rank_b``."""
    a = random_system(rng, n=4, l=3, p=p, p_h=rank_a).step(0)
    b = random_system(rng, n=4, l=3, p=p, p_h=rank_b).step(0)

    def provider(k):
        src = a if (k // 3) % 2 == 0 else b
        return SystemStep(A=(1.0 + 0.1 * math.sin(k)) * a.A, B=a.B, C=a.C, D=a.D,
                          G=src.G, H=src.H, Q=a.Q, R=src.R)

    return SystemModel.time_varying(provider, dims=(4, 1, p, 3))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
       st.sampled_from(GammaPolicy))
# here T2 is a (2, 3) view of the SVD factor, neither C- nor F-contiguous:
# ``T2.dot(y)`` in place of the data product ``T2 @ y`` copies it and takes
# the other gemv kernel, and CYWZ's xhat at k = 9 then differs in the last bit
@example(seed=0, p=1, rank_a=0, rank_b=1, gamma=GammaPolicy.DAROUACH)
def test_steps_match_oracle_on_rank_switching_models(seed, p, rank_a, rank_b, gamma):
    rng = np.random.default_rng(seed)
    model = switching_model(rng, p, min(rank_a, p), min(rank_b, p))
    ys = rng.standard_normal((31, 3))
    us = rng.standard_normal((31, 1))
    for variant in STEPS:
        _run_against_oracle(variant, model, ys, us, np.zeros(4), np.eye(4), gamma, 30)


@pytest.mark.parametrize("p_h", [0, 1, 2])
def test_steps_match_oracle_on_reversed_and_broadcast_vectors(p_h):
    # x0_mean, y and u as views with negative or zero strides: ``dot`` copies
    # such a vector and calls BLAS where the oracle's ``@`` runs numpy's own
    # loop, and the two differ in the last bits on most such products
    rng = np.random.default_rng(0)
    model = random_system(rng, n=4, l=3, p=2, p_h=p_h, m=2)
    ys = rng.standard_normal((31, 3))[:, ::-1]
    us = np.broadcast_to(rng.standard_normal((31, 1)), (31, 2))
    x0 = rng.standard_normal(4)[::-1]
    for variant in STEPS:
        assert _run_against_oracle(variant, model, ys, us, x0, np.eye(4),
                                   GammaPolicy.DAROUACH, 30) == 30


def test_kalman_step_matches_oracle_on_reversed_and_broadcast_vectors():
    rng = np.random.default_rng(3)
    model = random_system(rng, n=4, l=3, p=0, m=2)
    ys = rng.standard_normal((31, 3))[:, ::-1]
    us = np.broadcast_to(rng.standard_normal((31, 1)), (31, 2))
    state = kalman_init(model, rng.standard_normal(4)[::-1], np.eye(4))
    for k in range(1, 31):
        want = kalman_step_oracle(state, ys[k], us[k], us[k - 1], model)
        state, out = kalman_step(state, ys[k], us[k], us[k - 1], model)
        for name, value in want.items():
            _assert_bitwise(attrgetter(name)(out), value, (k, name))
