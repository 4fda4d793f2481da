import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_pd, random_system
from lise.decomposition import (
    decompose,
    decompose_cached,
    decoupled_dynamics,
    transform_measurement,
)
from lise.errors import InvalidInputError, NotPositiveDefiniteError
from lise.linalg import rank
from lise.model import SystemStep


def _step_with(h, r=None, g=None, n=5, m=1):
    l, p = h.shape
    rng = np.random.default_rng(0)
    return SystemStep(
        A=np.diag(np.linspace(0.2, 0.8, n)),
        B=np.zeros((n, m)),
        C=np.eye(l, n),
        D=np.zeros((l, m)),
        G=rng.standard_normal((n, p)) if g is None else g,
        H=h,
        Q=0.01 * np.eye(n),
        R=np.eye(l) if r is None else r,
    )


def _assert_invariants(step, dec, tol=1e-10):
    l, p = step.H.shape
    u = np.hstack([dec.U1, dec.U2])
    v = np.hstack([dec.V1, dec.V2])
    assert np.allclose(u @ u.T, np.eye(l), atol=tol)
    assert np.allclose(v @ v.T, np.eye(p), atol=tol)
    assert np.allclose(dec.U1 @ dec.Sigma @ dec.V1.T, step.H, atol=tol)
    assert np.allclose(dec.H1, dec.U1 @ dec.Sigma, atol=tol)
    # channel decorrelation
    assert np.linalg.norm(dec.T1 @ step.R @ dec.T2.T) < 1e-10
    # both transformed noise covariances PD, full transform nonsingular
    if dec.p_h:
        assert np.min(np.linalg.eigvalsh(dec.R1)) > 0
    if dec.p_h < l:
        assert np.min(np.linalg.eigvalsh(dec.R2)) > 0
    t = np.vstack([dec.T1, dec.T2])
    assert rank(t) == l


class TestDecompose:
    def test_no_feedthrough(self):
        step = _step_with(np.zeros((5, 3)), g=np.eye(5, 3))
        dec = decompose(step)
        assert dec.p_h == 0
        assert dec.Sigma.shape == (0, 0)
        assert dec.U1.shape == (5, 0)
        assert dec.T1.shape == (0, 5)
        assert np.array_equal(dec.U2, np.eye(5))   # deterministic choice
        _assert_invariants(step, dec)
        y = np.arange(5.0)
        z1, z2 = transform_measurement(dec, y)
        assert z1.size == 0
        assert np.allclose(z2, y)                  # orthogonal T2 with R = I
        assert np.isclose(np.linalg.norm(z2), np.linalg.norm(y))

    def test_rank2_benchmark_feedthrough(self, fault_models):
        step = fault_models[1].step(0)
        dec = decompose(step)
        assert dec.p_h == 2
        assert dec.G2.shape == (5, 1)
        assert rank(dec.C2 @ dec.G2) == 1
        _assert_invariants(step, dec)

    def test_full_rank_feedthrough(self, fault_models):
        step = fault_models[2].step(0)
        dec = decompose(step)
        assert dec.p_h == 3
        assert dec.V2.shape == (3, 0)
        assert dec.G2.shape == (5, 0)
        _assert_invariants(step, dec)

    def test_r_not_pd_raises(self):
        step = _step_with(np.zeros((3, 1)), r=np.diag([1.0, 0.0, 1.0]), n=3)
        with pytest.raises(NotPositiveDefiniteError):
            decompose(step)

    def test_sign_convention_deterministic(self, fault_models):
        step = fault_models[1].step(0)
        dec = decompose(step)
        for j in range(dec.p_h):
            col = dec.U1[:, j]
            assert col[np.flatnonzero(np.abs(col) > 1e-12)[0]] > 0

    def test_cache_returns_same_object(self, fault_models):
        step = fault_models[3].step(0)
        a = decompose_cached(step)
        b = decompose_cached(step)
        assert a is b


class TestTransformMeasurement:
    def test_zero(self, fault_models):
        dec = decompose(fault_models[1].step(0))
        z1, z2 = transform_measurement(dec, np.zeros(5))
        assert np.allclose(z1, 0) and np.allclose(z2, 0)

    def test_feedthrough_direction(self, fault_models):
        # e3 lies along the first feedthrough direction of variant 1 and is
        # orthogonal to the feedthrough-free channel
        dec = decompose(fault_models[1].step(0))
        z1, z2 = transform_measurement(dec, np.eye(5)[2])
        assert np.allclose(z1, [1.0, 0.0], atol=1e-12)
        assert np.allclose(z2, 0.0, atol=1e-12)

    def test_dim_mismatch(self, fault_models):
        dec = decompose(fault_models[1].step(0))
        with pytest.raises(InvalidInputError):
            transform_measurement(dec, np.zeros(4))


def test_decoupled_dynamics_no_feedthrough():
    step = _step_with(np.zeros((5, 2)), g=np.eye(5, 2))
    dec = decompose(step)
    ahat, qhat = decoupled_dynamics(step, dec)
    assert np.array_equal(ahat, step.A)
    assert np.array_equal(qhat, step.Q)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(1, 4), st.integers(0, 4))
def test_random_feedthrough_invariants(seed, p, rank_h):
    rng = np.random.default_rng(seed)
    l = 5
    rank_h = min(rank_h, p)
    h = (rng.standard_normal((l, rank_h)) @ rng.standard_normal((rank_h, p))
         if rank_h else np.zeros((l, p)))
    step = _step_with(h, r=random_pd(rng, l))
    dec = decompose(step)
    assert dec.p_h == rank_h
    _assert_invariants(step, dec)
    # orthogonal resolution of the unknown input
    d = rng.standard_normal(p)
    assert np.allclose(dec.V1 @ (dec.V1.T @ d) + dec.V2 @ (dec.V2.T @ d), d, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(0, 3), st.integers(0, 3))
def test_rank_from_own_svd_matches_linalg_rank(seed, p, rank_h):
    # decompose decides p_h from the singular values of its full SVD; the
    # rank rule must agree with linalg.rank's separate SVD
    rank_h = min(rank_h, p)
    model = random_system(np.random.default_rng(seed), n=4, l=3, p=p, p_h=rank_h)
    step = model.step(0)
    assert decompose(step).p_h == rank(step.H) == rank_h
