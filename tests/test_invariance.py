"""Metamorphic properties of the filters on random certified systems.

A state similarity, an output transform and a scaling of the noise change
the model but not what the filter estimates, so each run of a transformed
model must reproduce the untransformed run mapped through the transform, to
rounding.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_system
from lise.filters import (
    cywz_init,
    cywz_step,
    plise_init,
    plise_step,
    ulise_init,
    ulise_step,
)
from lise.model import SystemModel, SystemStep
from lise.structural import plise_stability_check, ulise_convergence_check

FILTERS = {"ULISE": (ulise_init, ulise_step), "CYWZ": (cywz_init, cywz_step),
           "PLISE": (plise_init, plise_step)}
STEPS = 60
# relative bound, max |difference| over max |value|: 60 certified draws
# (seeds 1000-1119) reached at most 1.0e-10
BOUND = 1e-8
# draws that pass both certificates, on which PLISE breaks down: it raises
# NumericalError at k = 5, 32 and 17 on the first three, and its tr px grows
# to about 6e10 by k = 60 on the last
PLISE_BREAKDOWN_SEEDS = [1025, 1085, 1107, 1069]


def _draw(seed):
    """A ``random_system`` with n 2-4 and p >= 1, and the generator after it."""
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 5)
    l = rng.integers(1, n + 1)
    p = rng.integers(1, l + 1)
    p_h = rng.integers(0, p + 1)
    return rng, random_system(rng, n=n, l=l, p=p, p_h=p_h)


def _certified(step):
    return ulise_convergence_check(step).ok and plise_stability_check(step).ok


def _run(name, step, x0, p0, ys, us):
    """``xhat``, ``dhat_prev`` and ``px`` of every step of filter ``name`` on
    the time-invariant model of ``step``."""
    init, advance = FILTERS[name]
    model = SystemModel.time_invariant(step)
    state = init(model, x0, p0, ys[0], us[0])
    outs = []
    for k in range(1, len(ys)):
        state, out = advance(state, ys[k], us[k], us[k - 1], model)
        outs.append((out.xhat, out.dhat_prev, out.px))
    return [np.array(series) for series in zip(*outs)]


def _scaled_orthogonal(rng, k):
    """An orthogonal factor times a diagonal with entries in [0.5, 2]."""
    return np.linalg.qr(rng.standard_normal((k, k)))[0] * rng.uniform(0.5, 2.0, k)


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def _check_invariances(name, seed):
    """A state similarity ``x -> T x`` maps ``xhat`` by T and ``px`` to
    ``T px T'`` and leaves ``dhat`` alone; ``y -> S y``, with C, D, H and R
    transformed to match, leaves ``xhat``, ``dhat`` and ``px`` alone; scaling
    Q, R and P0 by c scales ``px`` by c and leaves the estimates alone."""
    rng, model = _draw(seed)
    s = model.step(0)
    ys = rng.standard_normal((STEPS + 1, s.l))
    us = rng.standard_normal((STEPS + 1, s.m))
    x0, p0 = rng.standard_normal(s.n), np.eye(s.n)
    t, sy = _scaled_orthogonal(rng, s.n), _scaled_orthogonal(rng, s.l)
    ti = np.linalg.inv(t)
    c = 10.0 ** rng.uniform(-3.0, 3.0)
    x, d, px = _run(name, s, x0, p0, ys, us)
    cases = {
        "state similarity": (
            SystemStep(A=t @ s.A @ ti, B=t @ s.B, C=s.C @ ti, D=s.D, G=t @ s.G, H=s.H,
                       Q=t @ s.Q @ t.T, R=s.R),
            t @ x0, t @ p0 @ t.T, ys, (x @ t.T, d, t @ px @ t.T)),
        "output transform": (
            SystemStep(A=s.A, B=s.B, C=sy @ s.C, D=sy @ s.D, G=s.G, H=sy @ s.H, Q=s.Q,
                       R=sy @ s.R @ sy.T),
            x0, p0, ys @ sy.T, (x, d, px)),
        "noise scaling": (
            SystemStep(A=s.A, B=s.B, C=s.C, D=s.D, G=s.G, H=s.H, Q=c * s.Q, R=c * s.R),
            x0, c * p0, ys, (x, d, c * px)),
    }
    for case, (step, x0_case, p0_case, ys_case, want) in cases.items():
        got = _run(name, step, x0_case, p0_case, ys_case, us)
        for what, g, w in zip(("xhat", "dhat", "px"), got, want):
            assert _rel(g, w) < BOUND, (case, what)


# derandomized: the float recursion drifts on a few certified draws
# (test_invariance_on_a_float_unstable_draw), so a random search would fail
# now and then on a known defect instead of on a new one
@pytest.mark.parametrize("name", ["ULISE", "CYWZ"])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 31))
def test_estimates_are_invariant_under_similarity_output_and_noise_transforms(name, seed):
    """The three invariances of :func:`_check_invariances` on a draw that
    passes both certificates.

    PLISE is left out: on some certified draws it breaks down while ULISE
    and CYWZ converge (``test_filter_stays_bounded_on_a_certified_draw``),
    and there the properties fail with a relative error of about 1.
    """
    _, model = _draw(seed)
    assume(_certified(model.step(0)))
    _check_invariances(name, seed)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the float covariance recursion drifts from the exact one on "
                          "these draws (CHANGES.md FOUND)")
@pytest.mark.parametrize("name,seed", [("ULISE", 461), ("ULISE", 640), ("ULISE", 748),
                                       ("CYWZ", 640)])
def test_invariance_on_a_float_unstable_draw(name, seed):
    # of the 456 certified draws of seeds 0-999, the only ones over the bound
    _, model = _draw(seed)
    if not _certified(model.step(0)):
        pytest.fail("draw is not certified")
    _check_invariances(name, seed)


@pytest.mark.parametrize("seed", PLISE_BREAKDOWN_SEEDS)
@pytest.mark.parametrize("name", [
    "ULISE", "CYWZ",
    pytest.param("PLISE", marks=pytest.mark.xfail(
        strict=True, reason="PLISE breaks down on some certified draws "
                            "(CHANGES.md FOUND, ROADMAP item 11)")),
])
def test_filter_stays_bounded_on_a_certified_draw(name, seed):
    # 300 steps of zero data from P0 = I
    _, model = _draw(seed)
    s = model.step(0)
    assert _certified(s)
    px = _run(name, s, np.zeros(s.n), np.eye(s.n), np.zeros((301, s.l)), np.zeros((301, s.m)))[2]
    assert np.trace(px, axis1=1, axis2=2).max() < 1e6
