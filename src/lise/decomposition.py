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
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True, eq=False)
class OutputDecomposition:
    """SVD factors and transformed system matrices of one time step."""

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

    @cached_property
    def V(self) -> np.ndarray:
        return np.hstack([self.V1, self.V2])

    @cached_property
    def sigma_inv(self) -> np.ndarray:
        if self.p_h == 0:
            return np.zeros((0, 0))
        return np.diag(1.0 / np.diag(self.Sigma))

    @cached_property
    def m1_sigma_residual(self) -> float:
        """Unbiasedness residual ``||M1 Sigma - I||`` of the feedthrough-input
        gain ``M1 = sigma_inv``: zero by construction, but measured anyway."""
        return float(np.linalg.norm(self.sigma_inv @ self.Sigma - np.eye(self.p_h)))


def decompose(step: SystemStep, tol: Tolerance = DEFAULT_TOL) -> OutputDecomposition:
    """Build the output decomposition for one system step.

    Raises :class:`NotPositiveDefiniteError` when R is not positive definite.
    Sign convention: the first nonzero entry of each U1 column is positive,
    so repeated decompositions of the same data are reproducible.
    """
    l, p = step.H.shape
    n, m = step.n, step.m
    try:
        np.linalg.cholesky(symmetrize(step.R))
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError("measurement covariance R is not PD") from None

    u, s, vt = np.linalg.svd(step.H)
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
    r2 = symmetrize(u2.T @ step.R @ u2)
    if p_h > 0:
        t1 = u1.T - u1.T @ step.R @ u2 @ np.linalg.solve(r2, u2.T)
    else:
        t1 = np.zeros((0, l))
    r1 = symmetrize(t1 @ step.R @ t1.T)
    return OutputDecomposition(
        p_h=p_h, U1=u1, U2=u2, V1=v1, V2=v2, Sigma=sigma, T1=t1, T2=t2,
        C1=t1 @ step.C, C2=t2 @ step.C,
        D1=t1 @ step.D, D2=t2 @ step.D,
        G1=step.G @ v1, G2=step.G @ v2,
        H1=u1 @ sigma, R1=r1, R2=r2,
    )


_CACHE: "weakref.WeakKeyDictionary[SystemStep, dict[Tolerance, OutputDecomposition]]" = (
    weakref.WeakKeyDictionary()
)


def decompose_cached(step: SystemStep, tol: Tolerance = DEFAULT_TOL) -> OutputDecomposition:
    """Like :func:`decompose`, but reuses the result for a given step object.

    Time-invariant models hand out the same step object every call, so the
    decomposition is computed once and repeated calls are bit-identical.
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
