"""Per-step output decomposition around the feedthrough matrix.

The feedthrough H is split by SVD into a full-rank part and nothing: with
``H = U1 @ Sigma @ V1.T``, the unknown input resolves into ``d1 = V1.T d``
(visible directly in the measurement) and ``d2 = V2.T d`` (acting only
through the dynamics).  A nonsingular output transform ``T = [T1; T2]`` then
yields ``z1 = T1 y`` carrying full-rank feedthrough ``Sigma`` and ``z2 = T2 y``
carrying none, with decorrelated noise between the two channels
(``T1 R T2.T = 0``).  Everything downstream (filters and structural tests)
consumes these factors.

Empty blocks are first-class: with ``rank(H) = 0`` all the ``*1`` factors are
0-width and the algebra flows through unchanged.

A step's context (:class:`StepContext`) is the one owner of the step's
admissibility: building it (:func:`_judged`) judges whether the eight
matrices are finite, whether Q is symmetric PSD (the rule of
:func:`lise.linalg._psd_eigh`) and whether R is symmetric, positive definite
and well conditioned (:func:`_noise_factor`), and the context keeps the
symmetric factors of Q and R that those rules' eigendecompositions give.
The verdict is data, a list of faults: the filters, the structural tests and
:func:`decompose_cached` raise the first, :func:`lise.model.validate`
reports every one, and :func:`lise.simulate.simulate_truth` raises the first
and draws its noise through the factors.  :func:`decompose` judges nothing;
it is given only steps that their verdict admitted.

A decomposition depends on H, R, C, D and G only, never on A, B or Q.
:func:`decompose` builds one afresh on every call, and no module-level cache
keeps one: the only maps here are weak, keyed by a step object or a
decomposition, so a decomposition lives exactly as long as a step context
or a gain record uses it (a filter state holds no decomposition: it keeps
its step, and with it the step's context).  It is shared in two ways.
:func:`decompose_cached` keeps one entry per step object, so a
time-invariant model decomposes once.  The entry is the step's context: the
noise factors, the decomposition, and the step's constants that also depend
on A or Q, namely :func:`decoupled_dynamics` and
PLISE's block map ``[A, G1, G2]``, each built on first use, so the filters
and the structural tests form each once per step object and the truth and
:func:`~lise.model.validate`, which do not read them, never.  And a
step's context may be built with the previous step of the caller's chain
(the filter state's step, the previous step of an observability window, of
the truth or of :func:`~lise.model.validate`'s range), if that step was
admitted: a matrix of the step that is that of the previous one (the same
array, or equal shape and bytes) is not judged again, its factor is shared,
and a step whose C, D, G, H and R are those of the previous one takes its
decomposition.  So each of Q and R is factored once per change along the
chain, and a time-varying model whose steps repeat those matrices (fresh
step objects every k, with only A, B or Q changing) decomposes once per run
of equal such matrices.  Every array of a context is read-only, and only an
admitted step's context is kept: a faulty step is judged again, and raises
again, on every request.

Besides the SVD factors and projections, a decomposition holds the
data-independent products that the filters and :func:`decoupled_dynamics`
would otherwise rebuild every step: ``G1 Sigma^-1 C1``,
``(G1 Sigma^-1 R1) (G1 Sigma^-1)^T`` and ``Sigma^-1 C1``.  Each is the
leftmost factor of every product it enters, so using it changes no bit.

The constants of an ordered pair of decompositions, those of steps k-1 and
k, live here too: ``C2[k] G2[k-1]``, its numerical rank and its
pseudoinverse (:class:`_PairContext`).  The paper's estimability condition
``rank(C2[k] G2[k-1]) = p - rank(H[k-1])`` is a property of the pair, read
by the filters at every step and by the structural certificates on the
self pair of a time-invariant step.  :func:`_pair_context` finds a pair's
context through a weak map keyed by the later decomposition and then by the
earlier one, so a context lives exactly as long as both decompositions.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NotPositiveDefiniteError
from .linalg import (DEFAULT_TOL, _eigh_sqrt, _finite, _psd_eigh, _sv_rank, pinv, rank, svd,
                     symmetrize)
from .model import _MATRICES, SystemStep

__all__ = [
    "OutputDecomposition",
    "StepContext",
    "decompose",
    "decompose_cached",
    "decoupled_dynamics",
]

@dataclass(frozen=True, eq=False)
class OutputDecomposition:
    """SVD factors and transformed system matrices of one time step.

    Every field depends on H, R, C, D and G only; the arrays are read-only,
    and consecutive steps of a chain with equal such matrices share one
    object (:func:`_step_context`).
    """

    p_h: int
    U1: np.ndarray      # l x p_h
    U2: np.ndarray      # l x (l - p_h)
    V1: np.ndarray      # p x p_h
    V2: np.ndarray      # p x (p - p_h)
    Sigma: np.ndarray   # p_h x p_h, diagonal positive
    T1: np.ndarray      # p_h x l
    T2: np.ndarray      # (l - p_h) x l
    C1: np.ndarray
    C2: np.ndarray
    D1: np.ndarray
    D2: np.ndarray
    G1: np.ndarray
    G2: np.ndarray
    H1: np.ndarray      # l x p_h, equals U1 @ Sigma
    R1: np.ndarray      # p_h x p_h, PD
    R2: np.ndarray      # (l - p_h) x (l - p_h), PD
    V: np.ndarray       # p x p, [V1, V2]
    sigma_inv: np.ndarray  # p_h x p_h, the feedthrough-input gain M1
    # unbiasedness residual ||M1 Sigma - I|| of M1 = sigma_inv: zero by
    # construction, but measured anyway
    m1_sigma_residual: float
    gsi_c1: np.ndarray      # n x n, (G1 Sigma^-1) C1, removed from A
    gsi_r1_gsi: np.ndarray  # n x n, (G1 Sigma^-1 R1) (G1 Sigma^-1)^T, added to Q
    si_c1: np.ndarray       # p_h x n, Sigma^-1 C1


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only."""
    a.setflags(write=False)
    return a


def decompose(step: SystemStep) -> OutputDecomposition:
    """Build the output decomposition for one system step, afresh on every
    call; every array is read-only.

    It is built from C-contiguous copies of H, R, C, D and G, so that steps
    with equal such matrices get bitwise-equal decompositions whatever the
    memory order of the arrays they were made from (BLAS may round a product
    on an F-ordered operand differently).  It judges nothing: R must be
    symmetric positive definite as the step's context judges it
    (:class:`StepContext`), which :func:`decompose_cached` and the filters
    check before they decompose.  Sign convention: the first nonzero entry
    of each U1 column is positive, so repeated decompositions of the same
    data are reproducible.
    """
    h, r, c, d, g = map(np.ascontiguousarray, (step.H, step.R, step.C, step.D, step.G))
    l, p = h.shape
    u, s, vt = svd(h)
    p_h = _sv_rank(s, DEFAULT_TOL.rank_rel)
    u1, u2 = u[:, :p_h].copy(), u[:, p_h:]
    v = vt.T
    v1, v2 = v[:, :p_h].copy(), v[:, p_h:]
    for j in range(p_h):
        nz = np.flatnonzero(np.abs(u1[:, j]) > 1e-12)
        if nz.size and u1[nz[0], j] < 0:
            u1[:, j] = -u1[:, j]
            v1[:, j] = -v1[:, j]
    if p_h == 0:
        # any orthogonal factor is allowed here; identity is the cheap
        # deterministic choice
        u2 = np.eye(l)
        v2 = np.eye(p)
        u1 = np.zeros((l, 0))
        v1 = np.zeros((p, 0))
    sigma = np.diag(s[:p_h])

    t2 = u2.T
    r2 = symmetrize(u2.T @ r @ u2)
    if p_h > 0:
        t1 = u1.T - u1.T @ r @ u2 @ np.linalg.solve(r2, u2.T)
        sigma_inv = np.diag(1.0 / np.diag(sigma))
    else:
        t1 = np.zeros((0, l))
        sigma_inv = np.zeros((0, 0))
    r1 = symmetrize(t1 @ r @ t1.T)
    c1, g1 = t1 @ c, g @ v1
    gsi = g1 @ sigma_inv
    arrays = dict(
        U1=u1, U2=u2, V1=v1, V2=v2, Sigma=sigma, T1=t1, T2=t2,
        C1=c1, C2=t2 @ c, D1=t1 @ d, D2=t2 @ d, G1=g1, G2=g @ v2,
        H1=u1 @ sigma, R1=r1, R2=r2, V=np.hstack([v1, v2]), sigma_inv=sigma_inv,
        gsi_c1=gsi @ c1, gsi_r1_gsi=gsi @ r1 @ gsi.T, si_c1=sigma_inv @ c1,
    )
    for a in arrays.values():
        a.setflags(write=False)
    return OutputDecomposition(
        p_h=p_h,
        m1_sigma_residual=float(np.linalg.norm(sigma_inv @ sigma - np.eye(p_h))),
        **arrays,
    )


class _NonFiniteMatrix(InvalidInputError):
    """A model step has a matrix with non-finite entries; ``matrix`` names it."""

    def __init__(self, matrix: str):
        self.matrix = matrix
        super().__init__(f"{matrix} has non-finite entries")


def _noise_factor(a: np.ndarray, name: str) -> np.ndarray:
    """The symmetric factor of the noise covariance ``a`` (``name`` "Q" or
    "R"), :func:`~lise.linalg.psd_sqrt`'s bitwise, once ``a`` passes its
    rule: the symmetric-PSD rule of :func:`~lise.linalg._psd_eigh` and, for
    R, the package's one test of positive definiteness: the smallest
    eigenvalue of that rule's eigendecomposition is positive and at least
    ``rank_rel`` times the largest, as the filters invert blocks of R.

    Raises what the rule raises, except that an R that is not PSD, or not
    PD, raises :class:`NotPositiveDefiniteError` ("measurement covariance R
    is not PD").  An empty R (no output) has no eigenvalue to test.
    """
    try:
        w, v = _psd_eigh(a, name)
        pd = name == "Q" or not w.size or 0.0 < w[0] >= DEFAULT_TOL.rank_rel * w[-1]
    except NotPositiveDefiniteError:
        if name == "Q":
            raise
        pd = False
    if not pd:
        raise NotPositiveDefiniteError("measurement covariance R is not PD")
    return _read_only(_eigh_sqrt(w, v))


class StepContext:
    """The constants of one admitted model step object that its users read
    every time the step is used: ``factors``, which maps "Q" and "R" to the
    symmetric factors their rules gave (:func:`_noise_factor`), the
    decomposition ``dec`` and, built on first use, the
    :func:`decoupled_dynamics` pair ``(ahat, qhat)`` and PLISE's ``blockmap
    = [A, G1, G2]``, so that the truth and :func:`lise.model.validate`,
    which read only the verdict and the factors, never form them.  Every
    array is read-only.

    A context holds arrays of its step, never the step itself, so the weak
    per-step map of :func:`decompose_cached` lets the step go: its ``A`` and
    ``Q``, all that :func:`decoupled_dynamics` reads of a step.
    """

    def __init__(self, step: SystemStep, dec: OutputDecomposition, factors: dict):
        self.dec, self.factors = dec, factors
        self.A, self.Q = step.A, step.Q

    @functools.cached_property
    def _dynamics(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(map(_read_only, decoupled_dynamics(self, self.dec)))

    ahat = property(lambda self: self._dynamics[0])
    qhat = property(lambda self: self._dynamics[1])

    @functools.cached_property
    def blockmap(self) -> np.ndarray:
        return _read_only(np.hstack([self.A, self.dec.G1, self.dec.G2]))


_CACHE: "weakref.WeakKeyDictionary[SystemStep, StepContext]" = weakref.WeakKeyDictionary()


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ``a`` and ``b`` are the same array or equal in shape and bytes."""
    return a is b or (a.shape == b.shape and a.tobytes() == b.tobytes())


def _judged(step: SystemStep, prev: SystemStep | None = None) -> tuple[list, StepContext | None]:
    """The verdict on a step object and, if it admits the step, the step's
    :class:`StepContext`, built on the first request and kept; a faulty step
    is judged afresh on every request.

    The verdict is a list of ``(matrix, error)`` pairs, empty for an
    admitted step, in the order :func:`lise.model.validate` reports them: a
    :class:`_NonFiniteMatrix` for each matrix with a non-finite entry, then
    what the rules of Q and R raise (:func:`_noise_factor`); a non-finite Q
    or R is not put to its rule.

    ``prev`` is the step before ``step`` on the caller's chain of steps.  If
    ``prev``'s context is kept, so ``prev`` was admitted, each matrix of
    ``step`` that is that of ``prev`` (:func:`_same`) is taken as judged: it
    is finite, a Q or R shares ``prev``'s factor, and a step
    whose C, D, G, H and R are those of ``prev`` shares its decomposition.
    Every other matrix is judged here, and an admitted step that shares no
    decomposition is decomposed afresh (:func:`decompose`).
    """
    ctx = _CACHE.get(step)
    if ctx is not None:
        return [], ctx
    ctx_prev = None if prev is None else _CACHE.get(prev)
    same = set() if ctx_prev is None else {
        name for name in "CDGHQR" if _same(getattr(step, name), getattr(prev, name))}
    faults = [(name, _NonFiniteMatrix(name)) for name in _MATRICES
              if name not in same and not _finite(getattr(step, name))]
    factors = {name: ctx_prev.factors[name] for name in "QR" if name in same}
    for name in "QR":
        try:
            if name not in same and all(bad != name for bad, _ in faults):
                factors[name] = _noise_factor(getattr(step, name), name)
        except (InvalidInputError, NotPositiveDefiniteError) as exc:
            faults.append((name, exc))
    if faults:
        return faults, None
    dec = ctx_prev.dec if same.issuperset("CDGHR") else decompose(step)
    ctx = _CACHE[step] = StepContext(step, dec, factors)
    return faults, ctx


def _step_context(step: SystemStep, prev: SystemStep | None = None) -> StepContext:
    """The :class:`StepContext` of an admitted step object (:func:`_judged`,
    with ``prev`` the step before ``step`` on the caller's chain).

    A faulty step raises its first fault: :class:`_NonFiniteMatrix` (an
    :class:`~lise.errors.InvalidInputError`) for a matrix with a non-finite
    entry, or what the rules of Q and R raise (:func:`_noise_factor`).
    """
    faults, ctx = _judged(step, prev)
    if faults:
        raise faults[0][1]
    return ctx


def decompose_cached(step: SystemStep) -> OutputDecomposition:
    """Like :func:`decompose`, but reuses the result for a given step object.

    Time-invariant models hand out the same step object every call, and
    :meth:`SystemModel.step <lise.model.SystemModel.step>` hands out one step
    object for repeated requests of the same k, so the decomposition is built
    once per step object and repeated calls are bit-identical.  The
    decomposition is that of the step's :class:`StepContext`, built here on
    the first request: a step with a non-finite matrix raises
    :class:`~lise.errors.InvalidInputError` naming the matrix, and a Q or R
    that fails its rule raises what :func:`_noise_factor` raises, on every
    call.
    A new step object (a time-varying model's provider may build one per k)
    is decomposed afresh; the filters, which know the previous step, share
    its decomposition instead when they can (see the module docstring).
    """
    return _step_context(step).dec


class _PairContext:
    """The constants of step k that depend only on the output decompositions
    of steps k-1 and k: ``c2g2 = C2[k] G2[k-1]``, its numerical ``rank`` and,
    built on first use, its pseudoinverse ``c2g2_pinv`` (the OLS input gain).
    The pair satisfies the estimability condition when ``rank`` equals the
    width of G2[k-1], ``p - rank(H[k-1])``.  The arrays are read-only.

    A context holds no decomposition, so the weak maps of
    :func:`_pair_context` let both of its decompositions go.
    """

    def __init__(self, dec_prev: OutputDecomposition, dec: OutputDecomposition):
        self.c2g2 = _read_only(dec.C2.dot(dec_prev.G2))
        self.rank = rank(self.c2g2)

    @functools.cached_property
    def c2g2_pinv(self) -> np.ndarray:
        return _read_only(pinv(self.c2g2))


# pair contexts by the decomposition of step k, then weakly by that of step
# k-1 (a WeakKeyDictionary)
_PAIRS: "weakref.WeakKeyDictionary[OutputDecomposition, weakref.WeakKeyDictionary]" = (
    weakref.WeakKeyDictionary())


def _pair_context(dec_prev, dec) -> _PairContext:
    """The :class:`_PairContext` of the decompositions of steps k-1 and k,
    built on the pair's first request.

    Decompositions compare by identity, so steps that share their
    decompositions (every step of a time-invariant model, and a run of steps
    of a time-varying one that repeat H, R, C, D and G) share one context,
    and it is dropped with the first of its two decompositions.
    """
    by_prev = _PAIRS.get(dec)
    if by_prev is None:
        by_prev = _PAIRS[dec] = weakref.WeakKeyDictionary()
    ctx = by_prev.get(dec_prev)
    if ctx is None:
        ctx = by_prev[dec_prev] = _PairContext(dec_prev, dec)
    return ctx


def decoupled_dynamics(step: SystemStep, dec: OutputDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Dynamics and process noise after absorbing the feedthrough input channel.

    Returns the pair ``(A - G1 Sigma^-1 C1, G1 Sigma^-1 R1 Sigma^-1 G1.T + Q)``
    that propagates the filtered covariance one step; with no feedthrough
    (``p_h = 0``) that is the step's own read-only ``A`` and ``Q``.
    """
    if dec.p_h == 0:
        return step.A, step.Q
    return step.A - dec.gsi_c1, symmetrize(dec.gsi_r1_gsi + step.Q)
