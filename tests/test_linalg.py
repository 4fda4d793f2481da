import math
import os
import threading
import time
import warnings

import numpy as np
import pytest

import lise.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import config_scenario
from oracles import (check_p0_oracle, psd_sqrt_oracle, q_fault_oracle,
                     vehicle_tracking_model)
from lise.errors import InvalidInputError, NotPositiveDefiniteError
from lise.linalg import (
    DEFAULT_TOL,
    Tolerance,
    _cpu_count,
    _finite,
    _in_blocks,
    _norm,
    _psd_eigh,
    _sv_rank,
    eigh,
    expm,
    inv,
    pinv,
    psd_sqrt,
    rank,
    svd,
    symmetrize,
)
from lise.decomposition import _noise_factor
from lise.filters import _check_p0

H1 = np.array([[0, 0, 1], [0, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=float)
H2 = np.array([[0, 0, 1], [0, 0, 0], [0, 1, 0], [0, 0, 0], [1, 0, 0]], dtype=float)


def test_tolerance_invariants():
    with pytest.raises(InvalidInputError):
        Tolerance(rank_rel=0.0)
    with pytest.raises(InvalidInputError):
        Tolerance(rank_rel=1.5)
    with pytest.raises(InvalidInputError):
        Tolerance(zero_abs=-1e-3)


@pytest.mark.parametrize("field,value", [
    ("zero_abs", math.nan), ("zero_abs", math.inf), ("unit_circle_eps", math.nan),
    ("unit_circle_eps", math.inf), ("zero_abs", 0.0), ("unit_circle_eps", -1e-6),
])
def test_tolerance_must_be_finite_and_positive(field, value):
    # a NaN zero_abs would turn every symmetry and PSD test off: psd_sqrt
    # of diag(1, -5) would return diag(1, 0)
    with pytest.raises(InvalidInputError,
                       match=f"^{field} must be finite and positive, got {value!r}$"):
        Tolerance(**{field: value})


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

    def test_zero_matrix(self):
        assert rank(np.zeros((3, 2))) == 0

    def test_cut_off_is_relative_to_the_largest_singular_value(self):
        # the one rule every rank decision of the package uses
        assert _sv_rank(np.array([]), 0.1) == 0
        assert _sv_rank(np.array([0.0, 0.0]), 0.1) == 0
        assert _sv_rank(np.array([4.0, 0.4, 0.3]), 0.1) == 1
        assert _sv_rank(np.array([4.0, 0.41, 0.3]), 0.1) == 2
        assert rank(np.diag([1.0, 1e-10, 1e-12])) == 2


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


def _bitwise(got, want):
    assert type(got) is type(want) is np.ndarray
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _outcome(fn, a):
    """``fn(a)`` as a tuple of arrays, or the type and text of what it raised."""
    try:
        out = fn(a)
    except Exception as exc:  # noqa: BLE001 - compared between two callables
        return type(exc), str(exc)
    return tuple(out) if isinstance(out, tuple) else (out,)


# each direct kernel and the public numpy call it must reproduce bit for bit
_KERNELS = {
    "inv": (inv, np.linalg.inv),
    "svd_full": (svd, np.linalg.svd),
    "svd_reduced": (lambda a: svd(a, full_matrices=False),
                    lambda a: np.linalg.svd(a, full_matrices=False)),
    "eigh": (eigh, np.linalg.eigh),
}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(0, 6), st.integers(0, 6), st.integers(0, 6),
       st.booleans(), st.sampled_from(sorted(_KERNELS)))
def test_direct_kernels_are_bitwise_numpy(seed, rows, cols, rk, symmetric, kernel):
    # rank-deficient (the zero matrix at rank 0), non-symmetric and symmetric
    # inputs; a numpy that renames or changes a gufunc fails here
    rng = np.random.default_rng(seed)
    if kernel != "svd_full" and kernel != "svd_reduced":
        cols = rows
    rk = min(rk, rows, cols)
    a = rng.standard_normal((rows, rk)) @ rng.standard_normal((rk, cols))
    if symmetric and rows == cols:
        a = a + a.T
    got, want = (_outcome(fn, a) for fn in _KERNELS[kernel])
    if isinstance(want[0], type):
        assert got == want
    else:
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _bitwise(g, w)


@pytest.mark.parametrize("kernel", sorted(_KERNELS))
@pytest.mark.parametrize("case", ["singular", "nan", "inf", "zero"])
def test_direct_kernels_fail_as_numpy_does_and_warn_nothing(kernel, case):
    a = {"singular": np.array([[1.0, 2.0], [2.0, 4.0]]), "nan": np.full((3, 3), np.nan),
         "inf": np.array([[np.inf, 0.0], [0.0, 1.0]]), "zero": np.zeros((3, 3))}[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = (_outcome(fn, a) for fn in _KERNELS[kernel])
    if isinstance(want[0], type):
        assert got == want
    else:
        for g, w in zip(got, want):
            _bitwise(g, w)


def test_direct_kernels_raise_numpy_linalg_errors():
    with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
        inv(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
        svd(np.full((3, 2), np.nan))
    with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
        eigh(np.full((3, 3), np.nan))


@pytest.mark.parametrize("a", [np.zeros(0), np.arange(5.0), np.arange(12.0).reshape(3, 4),
                               np.arange(12.0).reshape(3, 4).T, np.full(3, 1e200)])
def test_norm_is_bitwise_numpy_norm(a):
    with np.errstate(over="ignore"):
        assert _norm(a) == float(np.linalg.norm(a))


def test_finite():
    assert _finite(np.zeros((0, 3)))
    assert _finite(np.eye(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # squares or sums that overflow are not non-finite entries, and
        # testing them warns nothing
        assert _finite(np.array([[1e300, -1e300]]))
        assert _finite(np.array([[1e308, 1e308], [1e308, 1e308]]))
        assert not _finite(np.array([[1.0, np.nan]]))
        assert not _finite(np.array([1.0, -np.inf]))
        assert not _finite(np.array([np.inf, -np.inf]))
        assert not _finite(np.array([1e308, 1e308, np.nan]))
    # a transposed (non-contiguous) view is tested entry by entry too
    assert not _finite(np.array([[1.0, 2.0], [np.nan, 3.0]]).T)


def _entries(smallest, largest):
    """Exact zeros of both signs and magnitudes in [smallest, largest]."""
    magnitudes = st.floats(smallest, largest)
    return st.one_of(st.sampled_from([0.0, -0.0]), magnitudes, magnitudes.map(lambda x: -x))


_LAYOUTS = ("C", "F", "T")


def _operand(draw, entries, shape, layout):
    """A float64 array of ``shape``: C-ordered, F-ordered, or the transpose
    of a C-ordered array (``T``; F-contiguous, like ``x.T`` in the filters)."""
    if layout == "T":
        return draw(arrays(np.float64, shape[::-1], elements=entries)).T
    a = draw(arrays(np.float64, shape, elements=entries))
    return np.asfortranarray(a) if layout == "F" else a


def _vector(draw, entries, size):
    """A float64 vector of ``size``, contiguous or strided (a column of a
    C array, such as a caller's measurement vector may be)."""
    stride = draw(st.integers(1, 3))
    return draw(arrays(np.float64, size * stride, elements=entries))[::stride]


def _bits(x, signed_zeros):
    x = np.asarray(x)
    return (x if signed_zeros else x + 0.0).tobytes()


def _check_dot_against_matmul(data, entries, m, k, p, layout_a, layout_b, same):
    """``same(a, b, a.dot(b), a @ b)`` for a matrix product, both
    matrix-vector orders, a vector dot product and both syrk orders."""
    draw = data.draw
    a = _operand(draw, entries, (m, k), layout_a)
    b = _operand(draw, entries, (k, p), layout_b)
    pairs = [(a, b), (a, _vector(draw, entries, k)), (_vector(draw, entries, m), a),
             (_vector(draw, entries, k), _vector(draw, entries, k)), (a, a.T), (a.T, a)]
    for x, y in pairs:
        got, want = x.dot(y), x @ y
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert same(x, y, got, want), (x, y)


_DIMS = (st.integers(0, 8), st.integers(0, 8), st.integers(0, 8),
         st.sampled_from(_LAYOUTS), st.sampled_from(_LAYOUTS))


@settings(max_examples=200, deadline=None)
@given(st.data(), *_DIMS)
def test_dot_is_bitwise_matmul_on_contiguous_operands(data, m, k, p, layout_a, layout_b):
    # the filter steps form their products with ndarray.dot on C- or
    # F-contiguous matrices and on vectors: the BLAS call of ``@`` without
    # the matmul gufunc's dispatch.  A numpy or BLAS that breaks that (with
    # 1-row and 1-column matrices, vectors, transposed C arrays and the
    # syrk of ``a a^T`` on one buffer among the cases) fails here.  No
    # product of these entries overflows or underflows.  Two one-element
    # operands dot multiplies directly, where matmul adds their product to
    # +0.0, so there a zero product may differ in its sign alone.
    def same(a, b, got, want):
        signed = not (np.size(a) == 1 and np.size(b) == 1)
        return _bits(got, signed) == _bits(want, signed)

    _check_dot_against_matmul(data, _entries(1e-3, 1e3), m, k, p, layout_a, layout_b, same)


@settings(max_examples=100, deadline=None)
@given(st.data(), *_DIMS)
def test_dot_matches_matmul_up_to_the_sign_of_zero(data, m, k, p, layout_a, layout_b):
    # with products that underflow, the two still agree bit for bit up to
    # the sign of a zero: where matmul skips BLAS (a product over a single
    # term) it adds the product to +0.0, while dot's BLAS call or direct
    # multiply rounds an underflowing negative product to -0.0
    def same(a, b, got, want):
        return _bits(got, False) == _bits(want, False)

    _check_dot_against_matmul(data, _entries(1e-300, 1e150), m, k, p, layout_a, layout_b,
                              same)


# zeros of both signs, subnormals, entries whose sums overflow, and any
# other finite float
_SYMMETRIZE_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -2.2e-308, 1e-310,
                     1.7976931348623157e308, -1.7976931348623157e308, 1e308]),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(0, 6), st.sampled_from(_LAYOUTS))
def test_symmetrize_is_bitwise_the_average_with_the_transpose(data, n, layout):
    # symmetrize adds m to a C-ordered copy of m.T; addition commutes
    # exactly, so every entry and the layout are those of (m + m.T) * 0.5
    m = _operand(data.draw, _SYMMETRIZE_ENTRIES, (n, n), layout)
    with np.errstate(over="ignore"):
        got, want = symmetrize(m), (m + m.T) * 0.5
    assert got.strides == want.strides
    assert got.tobytes() == want.tobytes()


class TestPinv:
    def test_identity(self):
        assert np.allclose(pinv(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_empty(self):
        assert pinv(np.zeros((0, 4))).shape == (4, 0)

    @pytest.mark.parametrize("fn", [pinv, rank])
    def test_rejects_a_matrix_that_is_not_2d_or_not_finite(self, fn):
        with pytest.raises(InvalidInputError, match=r"must be 2-D, got shape \(3,\)"):
            fn(np.ones(3))
        with pytest.raises(InvalidInputError, match="contains non-finite entries"):
            fn(np.array([[1.0, np.nan]]))

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

    def test_non_square_raises(self):
        with pytest.raises(InvalidInputError, match=r"square matrix, got \(2, 3\)"):
            psd_sqrt(np.zeros((2, 3)))

    def test_small_negative_clamped(self):
        f = psd_sqrt(np.diag([1.0, -1e-12]))
        assert np.allclose(f @ f.T, np.diag([1.0, 0.0]), atol=1e-11)

    def test_negative_eigenvalue_is_judged_at_the_matrix_scale(self):
        # the threshold next to 1e4 is zero_abs * max|a| = 1e-6: -0.9e-6 is
        # clamped, -1.1e-6 is not
        f = psd_sqrt(np.diag([1e4, -0.9e-6]))
        assert np.array_equal(f, np.diag([100.0, 0.0]))
        with pytest.raises(NotPositiveDefiniteError, match=r"^matrix not PSD \(min eigenvalue"):
            psd_sqrt(np.diag([1e4, -1.1e-6]))

    def test_scale_of_the_summed_terms_widens_the_threshold(self):
        a = np.diag([1.0, -1e-7])
        with pytest.raises(NotPositiveDefiniteError):
            psd_sqrt(a)
        assert np.array_equal(psd_sqrt(a, scale=1e4), np.diag([1.0, 0.0]))


@st.composite
def _rule_cases(draw):
    """A square matrix (n = 0..5, entries of magnitude 1e-12 to 1e12) that
    is symmetric PSD, asymmetric by a drawn amount, or indefinite by a drawn
    shift, and a drawn ``scale`` (0 or 1e-12 to 1e12)."""
    n = draw(st.integers(0, 5))
    b = draw(arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)))
    a = b.dot(b.T) * 10.0 ** draw(st.integers(-12, 12))
    kind = draw(st.sampled_from(["symmetric", "asymmetric", "indefinite"]))
    if kind == "asymmetric" and n >= 2:
        i, j = draw(st.permutations(range(n)))[:2]
        a[i, j] += draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-14.0, 12.0))
    elif kind == "indefinite" and n:
        a -= 10.0 ** draw(st.floats(-14.0, 12.0)) * np.eye(n)
    scale = draw(st.one_of(st.just(0.0), st.floats(1e-12, 1e12)))
    return a, scale


def _verdict(fn):
    """The class of what ``fn()`` raises (``None`` if it returns) and its
    return value."""
    try:
        return None, fn()
    except (InvalidInputError, NotPositiveDefiniteError) as exc:
        return type(exc), None


class TestPsdRule:
    """The one symmetric-PSD rule gives the verdict that each of the tests
    it replaced gave on its own (``tests/oracles.py``), and ``psd_sqrt``
    the same factor, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(_rule_cases())
    def test_rule_agrees_with_each_test_it_replaced(self, case):
        a, scale = case
        n = a.shape[0]
        # psd_sqrt at the drawn scale: the same verdict, the same factor
        got, f = _verdict(lambda: psd_sqrt(a, DEFAULT_TOL, scale))
        want, f_want = _verdict(lambda: psd_sqrt_oracle(a, DEFAULT_TOL, scale))
        assert got is want
        if n:
            assert _verdict(lambda: _psd_eigh(a, DEFAULT_TOL, "matrix", scale))[0] is want
        if want is None:
            assert f.shape == f_want.shape and f.tobytes() == f_want.tobytes()
        # the step contexts' Q check (what validate reports and the filters
        # raise) and the filters' P0 check, at the matrix's scale
        try:
            fault = None
            _noise_factor(a, DEFAULT_TOL, "Q")
        except (InvalidInputError, NotPositiveDefiniteError) as exc:
            fault = str(exc)
        assert fault == q_fault_oracle(a)
        if n:  # the original P0 test failed on an empty P0 (max of nothing)
            rule, _ = _verdict(lambda: _psd_eigh(a, DEFAULT_TOL, "P0"))
            want, p0_want = _verdict(lambda: check_p0_oracle(a, n))
            got, p0 = _verdict(lambda: _check_p0(a, n, DEFAULT_TOL))
            assert got is rule and (want is None) == (rule is None)
            if rule is None:
                assert p0.tobytes() == p0_want.tobytes()


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

    def test_empty(self):
        a = np.zeros((0, 0))
        e = expm(a)
        assert e.shape == (0, 0) and e is not a


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


class TestInBlocks:
    """``_in_blocks``: contiguous blocks, one per CPU, none below the
    minimum, the first on the calling thread."""

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize("count, min_block", [(0, 1), (1, 1), (5, 1), (5, 2),
                                                  (17, 3), (17, 10), (100, 7)])
    def test_blocks_cover_the_range_once(self, monkeypatch, cpus, count, min_block):
        monkeypatch.setattr(lise.linalg, "_cpu_count", lambda: cpus)
        calls = []
        _in_blocks(lambda lo, hi: calls.append((lo, hi, threading.get_ident())),
                   count, min_block)
        calls.sort()
        blocks = max(1, min(cpus, count // min_block))
        assert len(calls) == blocks
        assert [c[0] for c in calls] == [0] + [c[1] for c in calls[:-1]]
        assert calls[-1][1] == count
        if blocks > 1:
            assert min(hi - lo for lo, hi, _ in calls) >= min_block
        idents = [c[2] for c in calls]
        assert idents[0] == threading.get_ident()
        assert threading.get_ident() not in idents[1:]

    def test_one_block_runs_inline(self, monkeypatch):
        monkeypatch.setattr(lise.linalg, "_cpu_count", lambda: 4)
        monkeypatch.setattr(threading.Thread, "start", None)   # any start fails
        calls = []
        _in_blocks(lambda lo, hi: calls.append((lo, hi)), 7, 4)
        assert calls == [(0, 7)]

    def test_the_first_error_in_block_order_is_raised_after_every_block(self, monkeypatch):
        # blocks 1 and 2 fail, block 2 first; block 3 is still running then
        monkeypatch.setattr(lise.linalg, "_cpu_count", lambda: 4)
        done = []

        def work(lo, hi):
            if lo == 1:
                time.sleep(0.05)
                raise ValueError("block 1 failed")
            if lo == 2:
                raise KeyError("block 2 failed")
            if lo == 3:
                time.sleep(0.1)
            done.append(lo)

        before = threading.active_count()
        with pytest.raises(ValueError, match="^block 1 failed$"):
            _in_blocks(work, 4, 1)
        assert sorted(done) == [0, 3]
        assert threading.active_count() == before

    def test_the_callers_error_waits_for_the_other_blocks(self, monkeypatch):
        monkeypatch.setattr(lise.linalg, "_cpu_count", lambda: 2)
        done = []

        def work(lo, hi):
            if lo == 0:
                raise ValueError("block 0 failed")
            time.sleep(0.05)
            done.append(lo)

        with pytest.raises(ValueError, match="^block 0 failed$"):
            _in_blocks(work, 2, 1)
        assert done == [1]

    def test_cpu_count_is_the_affinity_or_the_machine_count(self, monkeypatch):
        assert _cpu_count() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _cpu_count() == (os.cpu_count() or 1)
