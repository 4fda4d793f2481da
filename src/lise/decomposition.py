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

The expensive part of a decomposition (the definiteness check of R, the SVD
of H, T1/T2 and R1/R2) depends on H, R and the tolerance only, and is cached
in two layers.  :func:`decompose_cached` keeps one decomposition per step
object, so a time-invariant model decomposes once and pays no hashing after.
Below it, :func:`decompose` takes the factorisation from a bounded LRU of
``_FACTOR_CACHE_SIZE`` entries keyed by the tolerance and the exact bytes of
H and R, so a time-varying model whose steps repeat the same H and R (fresh
step objects every k) factors each distinct pair once and only projects C, D
and G per step.  Cached arrays are read-only, and a failure is never cached.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NotPositiveDefiniteError
from .linalg import DEFAULT_TOL, Tolerance, symmetrize
from .model import SystemStep

__all__ = [
    "OutputDecomposition",
    "decompose",
    "decompose_cached",
    "transform_measurement",
    "decoupled_dynamics",
]

# distinct (tolerance, H, R) factorisations kept by decompose.  An entry
# with its key takes 3.8 KiB at the fault configs' 5 x 3 H (0.24 MiB for a
# full cache) and 290 KiB at a 100 x 20 H; it grows with l^2.  The bundled
# workloads use at most 7 entries; 64 lets a schedule that cycles through up
# to 64 pairs hit.  A model whose pairs never repeat pays the key, the LRU
# bookkeeping and an eviction on each miss: about 9 us against the ~150 us
# factorisation at l = 5.
_FACTOR_CACHE_SIZE = 64


@dataclass(frozen=True, eq=False)
class OutputDecomposition:
    """SVD factors and transformed system matrices of one time step.

    Every field but the projections C1, C2, D1, D2, G1 and G2 depends on H, R
    and the tolerance only; those arrays are shared with the factor cache
    and are read-only.
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


def _factor_output(h: np.ndarray, r: np.ndarray, tol: Tolerance) -> dict:
    """The part of the decomposition that depends on H, R and ``tol`` only,
    as the keyword arguments of :class:`OutputDecomposition`; every array
    is read-only.

    Raises :class:`NotPositiveDefiniteError` when R is not positive definite.
    Sign convention: the first nonzero entry of each U1 column is positive,
    so repeated factorisations of the same data are reproducible.
    """
    l, p = h.shape
    try:
        np.linalg.cholesky(symmetrize(r))
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError("measurement covariance R is not PD") from None

    u, s, vt = np.linalg.svd(h)
    # the rank rule of linalg.rank, applied to the singular values at hand
    p_h = int(np.count_nonzero(s > tol.rank_rel * s[0])) if s.size and s[0] else 0
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
    factor = dict(
        U1=u1, U2=u2, V1=v1, V2=v2, Sigma=sigma, T1=t1, T2=t2,
        H1=u1 @ sigma, R1=symmetrize(t1 @ r @ t1.T), R2=r2,
        V=np.hstack([v1, v2]), sigma_inv=sigma_inv,
    )
    for a in factor.values():
        a.setflags(write=False)
    factor.update(
        p_h=p_h,
        m1_sigma_residual=float(np.linalg.norm(sigma_inv @ sigma - np.eye(p_h))),
    )
    return factor


@functools.lru_cache(maxsize=_FACTOR_CACHE_SIZE)
def _cached_factor(tol: Tolerance, shape: tuple, h_bytes: bytes, r_bytes: bytes) -> dict:
    """:func:`_factor_output` of the H and R with these bytes, through the LRU."""
    l = shape[0]
    return _factor_output(np.frombuffer(h_bytes).reshape(shape),
                          np.frombuffer(r_bytes).reshape(l, l), tol)


def decompose(step: SystemStep, tol: Tolerance = DEFAULT_TOL) -> OutputDecomposition:
    """Build the output decomposition for one system step.

    The factorisation of (H, R) comes from a bounded LRU keyed by ``tol``
    and the exact bytes of H and R, and is computed on a miss; C, D and G
    are projected on every call.  The arrays shared with the cache are
    read-only.

    Raises :class:`NotPositiveDefiniteError` when R is not positive definite
    (on every call: failures are not cached).  Sign convention: the first
    nonzero entry of each U1 column is positive, so repeated decompositions
    of the same data are reproducible.
    """
    h = step.H
    f = _cached_factor(tol, h.shape, h.tobytes(), step.R.tobytes())
    t1, t2 = f["T1"], f["T2"]
    return OutputDecomposition(
        C1=t1 @ step.C, C2=t2 @ step.C,
        D1=t1 @ step.D, D2=t2 @ step.D,
        G1=step.G @ f["V1"], G2=step.G @ f["V2"],
        **f,
    )


_CACHE: "weakref.WeakKeyDictionary[SystemStep, dict[Tolerance, OutputDecomposition]]" = (
    weakref.WeakKeyDictionary()
)


def decompose_cached(step: SystemStep, tol: Tolerance = DEFAULT_TOL) -> OutputDecomposition:
    """Like :func:`decompose`, but reuses the result for a given step object.

    Time-invariant models hand out the same step object every call, so the
    decomposition is built once, repeated calls are bit-identical, and no
    call after the first hashes H and R.  A new step object (a time-varying
    model's provider may build one per k) goes to :func:`decompose`, whose
    LRU still shares the factorisation of an (H, R) pair seen before.
    """
    per_step = _CACHE.get(step)
    if per_step is None:
        per_step = {}
        _CACHE[step] = per_step
    dec = per_step.get(tol)
    if dec is None:
        dec = decompose(step, tol)
        per_step[tol] = dec
    return dec


def transform_measurement(dec: OutputDecomposition, y) -> tuple[np.ndarray, np.ndarray]:
    """Split a raw measurement into the feedthrough channel z1 and the rest z2."""
    yv = np.asarray(y, dtype=float)
    if yv.shape != (dec.T2.shape[1],):
        raise InvalidInputError(
            f"measurement must have shape ({dec.T2.shape[1]},), got {yv.shape}"
        )
    return dec.T1 @ yv, dec.T2 @ yv


def decoupled_dynamics(step: SystemStep, dec: OutputDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Dynamics and process noise after absorbing the feedthrough input channel.

    Returns the pair ``(A - G1 Sigma^-1 C1, G1 Sigma^-1 R1 Sigma^-1 G1.T + Q)``
    that propagates the filtered covariance one step.
    """
    if dec.p_h == 0:
        return step.A.copy(), step.Q.copy()
    gsi = dec.G1 @ dec.sigma_inv
    ahat = step.A - gsi @ dec.C1
    qhat = gsi @ dec.R1 @ gsi.T + step.Q
    return ahat, symmetrize(qhat)
