"""Float64 accuracy of the filters' covariance against a 50-digit reference
recursion (``oracles.mp_px_recursion``).

The bound does not rest on bit identity: a reformulation that changes the
last bits of ``px`` passes as long as it stays this close to the 50-digit
values, and one that loses accuracy fails.  Measured on the bundled fault
variants over the first 60 steps, ULISE and CYWZ stay within 5e-15 and PLISE
within 4.7e-15 (fault_h1 2.9e-15, fault_h3 4.7e-15, fault_h4 1.8e-15); CYWZ
on the pseudo-inverse reduction reads 5.5e-14 on fault_h2.
"""

import mpmath
import numpy as np
import pytest

from conftest import config_scenario
from oracles import mp_array, mp_px_recursion
from lise.filters import cywz_step, plise_init, plise_step, ulise_init, ulise_step

N_STEPS = 60
# largest relative Frobenius error of px over the steps, per config and filter
MAX_REL_ERROR = 1e-14


def _worst_px_error(config, name, init, step_fn):
    sc = config_scenario(config)
    model = sc.model
    want = mp_px_recursion(name, model.step(0), sc.p0, N_STEPS)
    # the covariances do not depend on the data
    zl, zm = np.zeros(model.l), np.zeros(model.m)
    state = init(model, sc.x0_mean, sc.p0, zl, zm)
    worst = 0.0
    with mpmath.workdps(50):
        for k in range(1, N_STEPS + 1):
            state, out = step_fn(state, zl, zm, zm, model, sc.gamma)
            ref = want[k - 1]
            diff = mp_array(out.px) - ref
            err = mpmath.sqrt(np.sum(diff * diff) / np.sum(ref * ref))
            worst = max(worst, float(err))
    return worst


@pytest.mark.parametrize("config", [f"fault_h{i}" for i in range(1, 7)])
@pytest.mark.parametrize("name, step_fn", [("ULISE", ulise_step), ("CYWZ", cywz_step)])
def test_px_matches_50_digit_recursion(config, name, step_fn):
    worst = _worst_px_error(config, name, ulise_init, step_fn)
    assert worst <= MAX_REL_ERROR, (config, name, worst)


# PLISE's pseudo-inverse reduction is the costly part of its reference (an
# mpmath SVD per step), so it runs on the variants whose PLISE pass never
# repeats a gain (fault_h3, fault_h4) and on fault_h1
@pytest.mark.parametrize("config", ["fault_h1", "fault_h3", "fault_h4"])
def test_plise_px_matches_50_digit_recursion(config):
    worst = _worst_px_error(config, "PLISE", plise_init, plise_step)
    assert worst <= MAX_REL_ERROR, (config, worst)
