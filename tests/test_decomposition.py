import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import online_plant, random_pd, random_system
from oracles import decompose_oracle
import lise.decomposition
from lise.decomposition import (
    _CACHE,
    OutputDecomposition,
    _step_context,
    decompose,
    decompose_cached,
    decoupled_dynamics,
)
from lise.errors import InvalidInputError, NotPositiveDefiniteError
from lise.filters import ulise_init
from lise.linalg import DEFAULT_TOL, Tolerance, rank
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
        z1, z2 = dec.T1 @ y, dec.T2 @ y
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
        # decompose judges nothing; the step's context, through which
        # decompose_cached and the filters decompose, rejects R
        step = _step_with(np.zeros((3, 1)), r=np.diag([1.0, 0.0, 1.0]), n=3)
        with pytest.raises(NotPositiveDefiniteError, match="^measurement covariance R is not PD$"):
            decompose_cached(step)

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
    """The output transform: ``z1 = T1 y`` and ``z2 = T2 y``."""

    def test_zero(self, fault_models):
        dec = decompose(fault_models[1].step(0))
        y = np.zeros(5)
        z1, z2 = dec.T1 @ y, dec.T2 @ y
        assert np.allclose(z1, 0) and np.allclose(z2, 0)

    def test_feedthrough_direction(self, fault_models):
        # e3 lies along the first feedthrough direction of variant 1 and is
        # orthogonal to the feedthrough-free channel
        dec = decompose(fault_models[1].step(0))
        y = np.eye(5)[2]
        z1, z2 = dec.T1 @ y, dec.T2 @ y
        assert np.allclose(z1, [1.0, 0.0], atol=1e-12)
        assert np.allclose(z2, 0.0, atol=1e-12)

    def test_dim_mismatch(self, fault_models):
        # the filters transform the time-0 measurement after checking its shape
        with pytest.raises(InvalidInputError, match=r"y0 at k=0 must have shape \(5,\)"):
            ulise_init(fault_models[1], np.zeros(5), np.eye(5), np.zeros(4), np.zeros(1))


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


def _assert_matches_oracle(step, tol=DEFAULT_TOL, dec=None):
    """Every field of ``dec`` (by default ``decompose(step, tol)``) is
    bitwise the oracle's."""
    dec = decompose(step, tol) if dec is None else dec
    want = decompose_oracle(step, tol)
    assert {f.name for f in dataclasses.fields(OutputDecomposition)} == set(want)
    for name, value in want.items():
        got = getattr(dec, name)
        if isinstance(value, np.ndarray):
            assert got.shape == value.shape and got.tobytes() == value.tobytes(), name
        else:
            assert type(got) is type(value) and got == value, name
    return dec


def _chain(steps, tol=DEFAULT_TOL):
    """The contexts of ``steps`` fetched in turn, each with the step before
    it as ``prev``, as a filter fetches them."""
    prev, ctxs = None, []
    for step in steps:
        ctxs.append(_step_context(step, tol, prev))
        prev = step
    return ctxs


def _variant(base, **changes):
    return SystemStep(**{**{name: getattr(base, name) for name in "ABCDGHQR"}, **changes})


class TestFactorCache:
    """Decompositions are built afresh by ``decompose`` and shared only along
    a chain of steps (``_step_context`` with ``prev``)."""

    def test_matches_oracle_on_every_step_of_the_online_plant(self):
        # the time-varying fault plant of the online benchmark: A scaled by a
        # sinusoid, H switching between variants 1 (rank 2) and 2 (rank 3)
        # every 100 steps, a fresh step object per k
        model, _ = online_plant(1000)
        steps = [model.step(k) for k in range(1001)]
        decs = [ctx.dec for ctx in _chain(steps)]
        for step, dec in zip(steps, decs):
            _assert_matches_oracle(step, dec=dec)
        assert {dec.p_h for dec in decs} == {2, 3}
        # one decomposition per run of equal H: k = 0-99, ..., 900-999, 1000
        assert len({id(dec) for dec in decs}) == 11
        assert all((decs[k] is decs[k - 1]) == (k % 100 != 0) for k in range(1, 1001))

    def test_tolerance_is_part_of_the_key(self):
        # singular values 1 and 1e-9: rank 2 under the default tolerance,
        # rank 1 under a looser one
        step = _step_with(np.diag([1.0, 1e-9, 0.0])[:, :2])
        loose = Tolerance(rank_rel=1e-8)
        ranks = [_assert_matches_oracle(step, tol).p_h
                 for tol in (DEFAULT_TOL, loose, DEFAULT_TOL, loose)]
        assert ranks == [2, 1, 2, 1]
        # a step context per tolerance, and a chain shares within one only
        ctxs = _chain([step, _variant(step, A=0.5 * step.A)], loose)
        assert [ctx.dec.p_h for ctx in ctxs] == [1, 1]
        assert ctxs[1].dec is ctxs[0].dec is not _step_context(step).dec

    def test_cached_arrays_are_read_only(self, fault_models):
        dec = decompose(fault_models[1].step(0))
        arrays = [f.name for f in dataclasses.fields(OutputDecomposition)
                  if isinstance(getattr(dec, f.name), np.ndarray)]
        # every field but p_h and m1_sigma_residual, the projections included
        assert len(arrays) == len(dataclasses.fields(OutputDecomposition)) - 2
        for name in arrays:
            with pytest.raises(ValueError):
                getattr(dec, name)[...] = 0.0

    def test_failures_are_not_cached(self, monkeypatch):
        # R is judged again on every request, and never decomposed
        step = _step_with(np.zeros((3, 1)), r=np.diag([1.0, 0.0, 1.0]), n=3)
        judged, built = [], []
        real_rule, real = lise.decomposition._psd_eigh, lise.decomposition.decompose
        monkeypatch.setattr(lise.decomposition, "_psd_eigh",
                            lambda a, tol, what: judged.append(what) or real_rule(a, tol, what))
        monkeypatch.setattr(lise.decomposition, "decompose",
                            lambda step, tol: built.append(step) or real(step, tol))
        for _ in range(3):
            with pytest.raises(NotPositiveDefiniteError):
                decompose_cached(step)
        assert judged == ["Q", "R"] * 3 and built == []
        assert step not in _CACHE

    def test_step_identity_cache_skips_the_factor_cache(self, fault_models, monkeypatch):
        step = fault_models[4].step(0)
        dec = decompose_cached(step)
        monkeypatch.setattr(lise.decomposition, "decompose", None)
        assert decompose_cached(step) is dec
        assert _step_context(step, DEFAULT_TOL, step).dec is dec

    def test_equal_h_and_r_with_different_c_d_or_g_get_distinct_decompositions(
            self, fault_models):
        base = fault_models[1].step(0)
        rng = np.random.default_rng(5)
        changes = [{},
                   {"C": base.C + 0.1 * rng.standard_normal(base.C.shape)},
                   {"D": base.D + 1.0},
                   {"G": base.G + 0.1 * rng.standard_normal(base.G.shape)}]
        first = _variant(base)
        decs = [_assert_matches_oracle(step, dec=_chain([first, step])[1].dec)
                for step in [first] + [_variant(base, **c) for c in changes[1:]]]
        assert len({id(dec) for dec in decs}) == 4
        # equal H, R, C, D and G in a fresh step object (A and Q changed)
        # take the decomposition of the step before it
        assert _chain([first, _variant(base, A=0.5 * base.A, Q=2.0 * base.Q)])[1].dec is decs[0]
        # decompose itself builds afresh: equal bits, another object
        again = _assert_matches_oracle(first)
        assert again is not decs[0] and again is not decompose(first)

    def test_size_is_bounded(self):
        # no module-level cache keeps a decomposition: 100 distinct ones
        # leave nothing behind once dropped
        rng = np.random.default_rng(3)
        steps = [_step_with(rng.standard_normal((5, 3))) for _ in range(200)]
        for step in steps[:100]:
            decompose_cached(step)
        del step
        tracemalloc.start()
        try:
            refs = []
            for step in steps[100:]:
                refs.append(weakref.ref(decompose_cached(step)))
            del step
            gc.collect()
            live, _ = tracemalloc.get_traced_memory()
            del steps
            gc.collect()
            later, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 100 step contexts of about 6 KiB each while their steps live
        assert live > 100 * 4 * 1024, live
        assert sum(ref() is not None for ref in refs) == 0
        # what is left is the list of 100 weak references
        assert later < 16 * 1024, later


class TestStepContext:
    """The per-step-object entry of decompose_cached."""

    def test_holds_the_decoupled_dynamics_and_blockmap(self, fault_models):
        for model in fault_models.values():
            step = SystemStep(**{name: getattr(model.step(0), name) for name in "ABCDGHQR"})
            dec = decompose_cached(step)
            ctx = _step_context(step)
            assert ctx.dec is dec
            ahat, qhat = decoupled_dynamics(step, dec)
            assert ctx.ahat.tobytes() == ahat.tobytes()
            assert ctx.qhat.tobytes() == qhat.tobytes()
            assert ctx.blockmap is ctx.blockmap
            want = np.hstack([step.A, dec.G1, dec.G2])
            assert ctx.blockmap.tobytes() == want.tobytes()
            for arr in (ctx.ahat, ctx.qhat, ctx.blockmap):
                with pytest.raises(ValueError):
                    arr[...] = 0.0

    def test_one_entry_per_step_object_and_tolerance(self, fault_models):
        step = fault_models[1].step(0)
        loose = Tolerance(rank_rel=1e-8)
        assert _step_context(step) is _step_context(step)
        assert _step_context(step, loose) is not _step_context(step)
        assert set(_CACHE[step]) >= {DEFAULT_TOL, loose}

    def test_the_step_is_not_kept_alive(self, fault_models):
        base = fault_models[1].step(0)
        step = SystemStep(**{name: getattr(base, name) for name in "ABCDGHQR"})
        _step_context(step).blockmap
        ref = weakref.ref(step)
        del step
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("matrix", list("ABCDGHQR"))
    def test_nonfinite_matrix_raises_on_every_call(self, fault_models, matrix):
        base = fault_models[1].step(0)
        mats = {name: getattr(base, name) for name in "ABCDGHQR"}
        bad = np.array(mats[matrix])
        bad[0, 0] = np.inf
        step = SystemStep(**{**mats, matrix: bad})
        for _ in range(2):
            with pytest.raises(InvalidInputError, match=f"^{matrix} has non-finite entries$"):
                decompose_cached(step)
        assert step not in _CACHE


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_cached_decompose_matches_oracle_on_rank_switching_models(seed, p, rank_a, rank_b):
    rng = np.random.default_rng(seed)
    a = random_system(rng, n=4, l=3, p=p, p_h=min(rank_a, p)).step(0)
    b = random_system(rng, n=4, l=3, p=p, p_h=min(rank_b, p)).step(0)
    # fresh step objects that alternate between the two (H, R) pairs
    for k in range(6):
        src = a if k % 2 == 0 else b
        step = SystemStep(A=(1.0 + 0.1 * k) * a.A, B=a.B, C=a.C, D=a.D, G=a.G,
                          H=src.H, Q=a.Q, R=src.R)
        assert _assert_matches_oracle(step).p_h == min(rank_a if k % 2 == 0 else rank_b, p)
