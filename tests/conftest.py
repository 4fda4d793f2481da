import dataclasses
import functools
from pathlib import Path

import numpy as np
import pytest

from lise.config import load_config
from lise.linalg import rank
from lise.model import SystemModel, SystemStep, validate

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Keep hypothesis from recording the failing draw of an xfail-marked
    property as a discovery.

    Hypothesis keeps a failing property's draws on its pytest item, and at
    the end of the session writes them to ``.hypothesis/patches/`` as new
    ``@example`` lines, importing libcst to do so.  On an xfail-marked
    property the failing draw is the known defect the mark pins, so it is
    dropped; the property still runs every draw and still xfails.
    """
    yield
    if item.get_closest_marker("xfail") is not None:
        vars(item).pop("_hypothesis_failing_examples", None)


def bits(value):
    """``value`` with every array, also inside tuples, lists and dicts, as
    its shape, dtype and bytes, so that ``==`` compares bit for bit."""
    if isinstance(value, (tuple, list)):
        return tuple(bits(v) for v in value)
    if isinstance(value, dict):
        return {key: bits(v) for key, v in value.items()}
    if isinstance(value, np.ndarray):
        return value.shape, value.dtype.str, value.tobytes()
    return value


@functools.cache
def _bundled_scenario(name):
    return load_config(CONFIGS / f"{name}.yaml").scenario


def config_scenario(name, **changes):
    """The scenario of the bundled config ``configs/<name>.yaml`` with the
    given fields replaced; each file is parsed once per session, so the
    scenarios share their model and arrays: do not write into them."""
    return dataclasses.replace(_bundled_scenario(name), **changes)


def random_psd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T) / n


def random_pd(rng, n, scale=1.0):
    return random_psd(rng, n, scale) + 0.2 * scale * np.eye(n)


def stable_matrix(rng, n, radius=0.9):
    a = rng.standard_normal((n, n))
    eig = np.max(np.abs(np.linalg.eigvals(a)))
    return a * (radius / eig) if eig > 0 else a


def random_system(rng, n=4, l=3, p=1, p_h=0, m=1, radius=0.9):
    """Random valid, estimable system with the requested feedthrough rank.

    Retries until both the standing model assumptions and the input-estimation
    rank condition rank(C2 G2) = p - p_h hold (they do almost surely, but the
    suite must be deterministic).
    """
    from lise.decomposition import decompose

    assert n >= l >= 1 and l >= p >= 0 and 0 <= p_h <= p
    for _ in range(50):
        a = stable_matrix(rng, n, radius)
        b = rng.standard_normal((n, m))
        c = rng.standard_normal((l, n))
        d = rng.standard_normal((l, m))
        g = rng.standard_normal((n, p))
        if p_h == 0:
            h = np.zeros((l, p))
        else:
            h = rng.standard_normal((l, p_h)) @ np.vstack(
                [np.eye(p_h), np.zeros((p - p_h, p_h))]).T
            h = h @ np.linalg.qr(rng.standard_normal((p, p)))[0]
        q = random_psd(rng, n, 0.3)
        r = random_pd(rng, l, 0.5)
        step = SystemStep(A=a, B=b, C=c, D=d, G=g, H=h, Q=q, R=r)
        model = SystemModel.time_invariant(step)
        if validate(model):
            continue
        dec = decompose(step)
        if dec.p_h != p_h:
            continue
        if rank(dec.C2 @ dec.G2) != p - p_h:
            continue
        return model
    raise AssertionError("failed to draw a valid random system")


@pytest.fixture(scope="session")
def fault_models():
    return {i: config_scenario(f"fault_h{i}").model for i in range(1, 7)}


def online_plant(horizon=1000):
    """A copy of the time-varying fault plant of ``perfbench``'s online
    workload: a fresh step per k from the provider, A of ``fault_h1`` scaled
    by a sinusoid, and H switching between variants 1 (rank 2) and 2
    (rank 3) every 100 steps.  Returns the model and the ``fault_h1``
    scenario around it."""
    import math

    s1 = config_scenario("fault_h1").model.step(0)
    h2 = config_scenario("fault_h2").model.step(0).H

    def provider(k):
        scale = 1.0 + 0.2 * math.sin(2.0 * math.pi * k / 500.0 + 1.0)
        return SystemStep(A=scale * s1.A, B=s1.B, C=s1.C, D=s1.D, G=s1.G,
                          H=s1.H if (k // 100) % 2 == 0 else h2, Q=s1.Q, R=s1.R)

    model = SystemModel.time_varying(provider, dims=(s1.n, s1.m, s1.p, s1.l),
                                     horizon_hint=horizon)
    return model, config_scenario("fault_h1", model=model, horizon=horizon,
                                  structural_checks=False)
