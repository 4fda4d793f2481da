import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import config_scenario
from oracles import vehicle_tracking_model
from lise.errors import InvalidInputError, NotPositiveDefiniteError
from lise.linalg import DEFAULT_TOL, Tolerance, expm, pinv, psd_sqrt, rank

H1 = np.array([[0, 0, 1], [0, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=float)
H2 = np.array([[0, 0, 1], [0, 0, 0], [0, 1, 0], [0, 0, 0], [1, 0, 0]], dtype=float)


def test_tolerance_invariants():
    with pytest.raises(InvalidInputError):
        Tolerance(rank_rel=0.0)
    with pytest.raises(InvalidInputError):
        Tolerance(rank_rel=1.5)
    with pytest.raises(InvalidInputError):
        Tolerance(zero_abs=-1e-3)


class TestRank:
    def test_empty(self):
        assert rank(np.zeros((0, 0))) == 0
        assert rank(np.zeros((3, 0))) == 0

    def test_full_rank_feedthrough(self):
        assert rank(H2) == 3

    def test_rank_one_outer_product(self):
        assert rank(np.array([[1.0, 1.0], [1.0, 1.0]])) == 1

    def test_two_unit_column_feedthrough(self):
        # Gram oracle: the eigenvalues of H'H are {0, 1, 1}, so two singular
        # values are nonzero
        gram_eigs = np.linalg.eigvalsh(H1.T @ H1)
        assert np.allclose(gram_eigs, [0.0, 1.0, 1.0])
        assert rank(H1) == np.count_nonzero(gram_eigs > 0.5) == 2


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(1, 6), st.integers(1, 6), st.integers(0, 6))
def test_pinv_is_bitwise_numpy_pinv(seed, rows, cols, rk):
    # rank-deficient products (the zero matrix at rank 0) included
    rng = np.random.default_rng(seed)
    rk = min(rk, rows, cols)
    a = rng.standard_normal((rows, rk)) @ rng.standard_normal((rk, cols))
    for tol in (DEFAULT_TOL, Tolerance(rank_rel=1e-3)):
        got = pinv(a, tol)
        want = np.linalg.pinv(a, rcond=tol.rank_rel)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestPinv:
    def test_identity(self):
        assert np.allclose(pinv(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_empty(self):
        assert pinv(np.zeros((0, 4))).shape == (4, 0)

    def test_left_inverse_of_tall_full_rank(self):
        # the C2 G2 product of the rank-2 feedthrough benchmark has full
        # column rank, so pinv is an exact left inverse
        from lise.decomposition import decompose

        dec = decompose(config_scenario("fault_h1").model.step(0))
        c2g2 = dec.C2 @ dec.G2
        assert c2g2.shape[1] == 1
        assert np.allclose(pinv(c2g2) @ c2g2, np.eye(1), atol=1e-12)


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        f = psd_sqrt(np.diag([4.0, 9.0]))
        assert np.allclose(f @ f.T, np.diag([4.0, 9.0]))

    def test_benchmark_process_noise(self):
        q = config_scenario("fault_h1").model.step(0).Q
        f = psd_sqrt(q)
        assert np.linalg.norm(f @ f.T - q) < 1e-12

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            psd_sqrt(np.diag([1.0, -1.0]))

    def test_small_negative_clamped(self):
        f = psd_sqrt(np.diag([1.0, -1e-12]))
        assert np.allclose(f @ f.T, np.diag([1.0, 0.0]), atol=1e-11)


class TestExpm:
    def test_zero(self):
        assert np.allclose(expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        a = np.diag([0.3, -1.2])
        assert np.allclose(expm(a), np.diag(np.exp([0.3, -1.2])), rtol=1e-13)

    def test_decoupled_damping_mode(self):
        # 0.01-second sample of the tracking model's velocity damping: the
        # (2,2) entry is a pure scalar exponential
        cm = vehicle_tracking_model()
        ad = expm(cm.A * cm.dt)
        assert ad[1, 1] == pytest.approx(math.exp(-0.001), rel=1e-12)

    def test_non_square_raises(self):
        with pytest.raises(InvalidInputError):
            expm(np.zeros((2, 3)))


@st.composite
def seeded_shape(draw, max_dim=6):
    return (draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim)),
            draw(st.integers(0, 2 ** 31)))


@settings(max_examples=40, deadline=None)
@given(seeded_shape(), st.floats(0.1, 100.0))
def test_rank_scale_and_transpose_invariant(args, scale):
    p, q, seed = args
    m = np.random.default_rng(seed).standard_normal((p, q))
    r = rank(m)
    assert rank(m.T) == r
    assert rank(scale * m) == r


@settings(max_examples=40, deadline=None)
@given(seeded_shape())
def test_pinv_involution(args):
    p, q, seed = args
    m = np.random.default_rng(seed).standard_normal((p, q))
    assert np.allclose(pinv(pinv(m)), m, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(seeded_shape())
def test_pinv_penrose_identities(args):
    p, q, seed = args
    m = np.random.default_rng(seed).standard_normal((p, q))
    mp = pinv(m)
    assert np.allclose(m @ mp @ m, m, atol=1e-10)
    assert np.allclose(mp @ m @ mp, mp, atol=1e-10)
    assert np.allclose((m @ mp).T, m @ mp, atol=1e-10)
    assert np.allclose((mp @ m).T, mp @ m, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 31))
def test_expm_inverse(n, seed):
    m = np.random.default_rng(seed).standard_normal((n, n))
    m *= 2.0 / max(np.linalg.norm(m), 1.0)
    assert np.allclose(expm(m) @ expm(-m), np.eye(n), atol=1e-12)
