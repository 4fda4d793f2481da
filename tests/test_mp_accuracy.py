"""Float64 accuracy of the filters' covariance and gains against a 50-digit
reference recursion (``oracles.mp_px_recursion``).

The bound does not rest on bit identity: a reformulation that changes the
last bits of ``px`` passes as long as it stays this close to the 50-digit
values, and one that loses accuracy fails.  Measured on the bundled fault
variants over the first 60 steps, ULISE and CYWZ stay within 5e-15 and PLISE
within 4.7e-15 (fault_h1 2.9e-15, fault_h3 4.7e-15, fault_h4 1.8e-15); CYWZ
on the pseudo-inverse reduction reads 5.5e-14 on fault_h2.  ULISE's ``px``
on the vehicle reads 2.7e-15.

The gains are checked under the same bound: the input gain as the map
``V2 M2 T2`` from the measurement to the input estimate (the SVD bases of
H are not unique), and the state gain ``L``.  Nine of the thirty cases
exceed it today (``_OVER_BOUND``); they are strict expected failures, so a
change that brings one within the bound must drop its mark.
"""

import functools

import mpmath
import numpy as np
import pytest

from conftest import config_scenario
from oracles import mp_array, mp_px_recursion
from lise.decomposition import decompose_cached
from lise.filters import cywz_step, plise_init, plise_step, ulise_init, ulise_step

N_STEPS = 60
# largest relative Frobenius error over the steps, per config, filter and
# quantity
MAX_REL_ERROR = 1e-14

_FILTERS = {"ULISE": (ulise_init, ulise_step), "CYWZ": (ulise_init, cywz_step),
            "PLISE": (plise_init, plise_step)}


def _rel_error(got, ref):
    """Relative Frobenius error of the ``mpf`` array ``got``; 0 when the
    reference is empty or zero (no dynamics-only input)."""
    denom = np.sum(ref * ref)
    if ref.size == 0 or denom == 0:
        return 0.0
    diff = got - ref
    return float(mpmath.sqrt(np.sum(diff * diff) / denom))


@functools.cache
def _worst_errors(config, name):
    """The worst relative error over the steps of ``px``, ``M2`` (as
    ``V2 M2 T2``) and ``L``, the reference computed once per case."""
    sc = config_scenario(config)
    model = sc.model
    want = mp_px_recursion(name, model.step(0), sc.p0, N_STEPS)
    init, step_fn = _FILTERS[name]
    # the covariances and gains do not depend on the data
    zl, zm = np.zeros(model.l), np.zeros(model.m)
    state = init(model, sc.x0_mean, sc.p0, zl, zm)
    worst = dict.fromkeys(("px", "M2", "L"), 0.0)
    with mpmath.workdps(50):
        dec = decompose_cached(state.step)
        v2, t2 = mp_array(dec.V2), mp_array(dec.T2)
        for k in range(N_STEPS):
            state, out = step_fn(state, zl, zm, zm, model, sc.gamma)
            got = (mp_array(out.px), v2 @ mp_array(out.gains.m2) @ t2, mp_array(out.gains.gain_l))
            for key, g, ref in zip(worst, got, (w[k] for w in want)):
                worst[key] = max(worst[key], _rel_error(g, ref))
    return worst


@pytest.mark.parametrize("config", [f"fault_h{i}" for i in range(1, 7)])
@pytest.mark.parametrize("name, step_fn", [("ULISE", ulise_step), ("CYWZ", cywz_step)])
def test_px_matches_50_digit_recursion(config, name, step_fn):
    worst = _worst_errors(config, name)["px"]
    assert worst <= MAX_REL_ERROR, (config, name, worst)


# PLISE's pseudo-inverse reduction is the costly part of its reference (an
# mpmath SVD per step), so it runs on the variants whose PLISE pass never
# repeats a gain (fault_h3, fault_h4) and on fault_h1
_PLISE_CONFIGS = ["fault_h1", "fault_h3", "fault_h4"]


@pytest.mark.parametrize("config", _PLISE_CONFIGS)
def test_plise_px_matches_50_digit_recursion(config):
    worst = _worst_errors(config, "PLISE")["px"]
    assert worst <= MAX_REL_ERROR, (config, worst)


def test_ulise_px_matches_50_digit_recursion_on_the_vehicle():
    worst = _worst_errors("vehicle_tracking", "ULISE")["px"]
    assert worst <= MAX_REL_ERROR, worst


# the worst errors measured when these checks were added (60 steps)
_OVER_BOUND = {
    ("fault_h4", "ULISE", "M2"): 1.1e-14,
    ("fault_h1", "PLISE", "M2"): 1.1e-14,
    ("fault_h4", "PLISE", "M2"): 2.2e-14,
    ("fault_h4", "ULISE", "L"): 3.2e-14,
    ("fault_h2", "CYWZ", "L"): 1.1e-14,
    ("fault_h6", "CYWZ", "L"): 2.1e-14,
    ("fault_h1", "PLISE", "L"): 1.4e-13,
    ("fault_h3", "PLISE", "L"): 3.9e-13,
    ("fault_h4", "PLISE", "L"): 3.9e-11,
}


def _gain_cases():
    cases = [(f"fault_h{i}", name) for name in ("ULISE", "CYWZ") for i in range(1, 7)]
    cases += [(config, "PLISE") for config in _PLISE_CONFIGS]
    for config, name in cases:
        for quantity in ("M2", "L"):
            worst = _OVER_BOUND.get((config, name, quantity))
            marks = () if worst is None else pytest.mark.xfail(
                strict=True, reason=f"float {quantity} error {worst:.1e} exceeds the bound")
            yield pytest.param(config, name, quantity, marks=marks)


@pytest.mark.parametrize("config, name, quantity", _gain_cases())
def test_gains_match_50_digit_recursion(config, name, quantity):
    worst = _worst_errors(config, name)[quantity]
    assert worst <= MAX_REL_ERROR, (config, name, quantity, worst)
