"""Tolerance-disciplined numerical primitives.

Every rank rule, pseudo-inverse and symmetric-PSD test in the package is
written in this module, so that a single :class:`Tolerance` governs how
floating-point fuzz is resolved.  All public functions are pure.

The package's one test of a symmetric PSD matrix ``a`` (Q, R, P0, and the
input of :func:`psd_sqrt`) is :func:`_psd_eigh`, the only reader of
``Tolerance.zero_abs``.  Its threshold is ``zero_abs * max(1, max|a|,
scale)``, ``scale`` being that of the terms ``a`` was summed from: ``a`` is
symmetric when ``max|a - a^T|`` is at most the threshold, and PSD when the
smallest eigenvalue of its symmetric part is at least minus the threshold.
An ``a`` with an entry beyond half the largest float fails it: its
symmetric part overflows, and the eigenvalues of a non-finite matrix would
pass any comparison unnoticed.
Other definiteness decisions are made where their matrix is, each for its
own reason:

* a model step's context (:class:`lise.decomposition.StepContext`) decides
  whether R is positive definite, which the rule (PSD) does not decide: the
  eigenvalues of the rule's own eigendecomposition must have ``w[0] > 0``
  and ``w[0] >= rank_rel * w[-1]``, since an R that is PD only to roundoff
  cannot be inverted.  :func:`lise.model.validate`, the filters and the
  truth read that one verdict;
* ``lise.filters._spd_factor`` reads LAPACK's ``potrf`` ``info``, as the
  factor it needs comes from that same call;
* ``lise.filters._whitened_complement_reduction`` needs ``w[0] > 0`` for
  the inverse square root it forms from the same eigendecomposition;
* the pencil ranks and the certificates' unit-circle rank tests of
  :mod:`lise.structural` compare singular values and moduli, not
  eigenvalues of a covariance, and use ``rank_rel`` and
  ``unit_circle_eps``.

:func:`inv`, :func:`svd` and :func:`eigh` call numpy's own LAPACK gufuncs
(``numpy.linalg._umath_linalg``) under numpy's own error callbacks, skipping
the argument checks and dtype dispatch of the ``np.linalg`` wrappers, whose
cost is a large part of a call on the 5 x 5 matrices of a filter step.  On a
square (for ``svd``, any) 2-D float64 matrix each returns the bits of its
``np.linalg`` namesake and raises numpy's :class:`numpy.linalg.LinAlgError`
with numpy's message where the wrapper does; the filters' hot paths use them.

:func:`_in_blocks` is the one place the package runs work on more than one
CPU: it splits a batch of independent items into contiguous blocks, one per
CPU the process may run on, for work that releases the GIL (LAPACK, BLAS and
numpy's random fills).  Each item keeps its own LAPACK or BLAS call, so the
results do not depend on the number of blocks.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.linalg import _umath_linalg
from numpy.linalg._linalg import (
    _raise_linalgerror_eigenvalues_nonconvergence,
    _raise_linalgerror_singular,
    _raise_linalgerror_svd_nonconvergence,
)

from .errors import InvalidInputError, NotPositiveDefiniteError

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "rank",
    "inv",
    "svd",
    "eigh",
    "pinv",
    "psd_sqrt",
    "expm",
    "symmetrize",
]


@dataclass(frozen=True)
class Tolerance:
    """Thresholds for floating-point comparisons.

    rank_rel
        Relative singular-value cutoff: values below ``rank_rel * smax`` do
        not count toward rank.  The default is a generous multiple of
        ``max_dim * machine_eps`` for the matrix sizes handled here (tens of
        rows), leaving several orders of magnitude between roundoff and the
        smallest structurally nonzero singular values.
    zero_abs
        Threshold of the symmetric-PSD rule (:func:`_psd_eigh`), relative to
        ``max(1, max|a|, scale)``: the symmetry test and the clamping of
        small negative eigenvalues.
    unit_circle_eps
        Half-width of the band around ``|z| = 1`` used when classifying
        (generalized) eigenvalues against the unit circle.
    """

    rank_rel: float = 1e-11
    zero_abs: float = 1e-10
    unit_circle_eps: float = 1e-6

    def __post_init__(self):
        if not (0.0 < self.rank_rel < 1.0):
            raise InvalidInputError("rank_rel must lie in (0, 1)")
        for name in ("zero_abs", "unit_circle_eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise InvalidInputError(f"{name} must be finite and positive, got {value!r}")


DEFAULT_TOL = Tolerance()


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got shape {a.shape}")
    if not _finite(a):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of the array ``a`` is finite.

    The entries are summed as Python floats, whose arithmetic never warns
    or raises; only when the sum is not finite (a NaN, an infinity, or
    finite entries whose sum overflows) is every entry tested, so an
    overflow never reads as non-finite.
    """
    r = a.ravel().tolist()
    return math.isfinite(sum(r)) or all(map(math.isfinite, r))


def _norm(a: np.ndarray) -> float:
    """``float(np.linalg.norm(a))`` (the 2-norm of a vector, the Frobenius
    norm of a matrix), by the same operations without the wrapper."""
    r = a.ravel(order="K")
    return math.sqrt(r.dot(r))


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _block(work, start: int, stop: int, errors: list, i: int, errstate: dict) -> None:
    """Block ``i`` of :func:`_in_blocks` on a thread of its own, under the
    calling thread's floating-point error state ``errstate``: its exception
    is kept in ``errors[i]``, to be raised on the calling thread."""
    try:
        with np.errstate(**errstate):
            work(start, stop)
    except BaseException as exc:  # re-raised by _in_blocks
        errors[i] = exc


def _in_blocks(work, count: int, min_block: int) -> None:
    """Call ``work(start, stop)`` on contiguous blocks that cover
    ``range(count)``, one block per CPU the process may run on, none smaller
    than ``min_block`` items.

    The calling thread runs the first block, and a thread started for the
    call runs each other block; all are joined before the call returns.  A
    single block runs inline and starts no thread.  The first exception in
    block order is raised once every block has ended.  ``work`` gains from
    the extra threads only where it releases the GIL; it should allocate no
    large array (glibc keeps an arena per thread), but write into arrays that
    the caller allocated, and call no public function of the package:
    perfbench's tracer wraps those and keeps a single stack of open spans.
    numpy's floating-point error state is the thread's own, so each started
    thread sets the caller's (``np.geterr()``) once for its block.
    """
    blocks = max(1, min(_cpu_count(), count // max(min_block, 1)))
    if blocks == 1:
        work(0, count)
        return
    bounds = [count * i // blocks for i in range(blocks + 1)]
    errors = [None] * blocks
    errstate = np.geterr()
    threads = []
    try:
        for i in range(1, blocks):
            threads.append(threading.Thread(
                target=_block, args=(work, bounds[i], bounds[i + 1], errors, i, errstate)))
            threads[-1].start()
        work(bounds[0], bounds[1])
    finally:
        for t in threads:
            if t.ident is not None:
                t.join()
    for exc in errors:
        if exc is not None:
            raise exc


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Average a square matrix with its transpose (roundoff-drift control).

    ``(m^T + m) / 2`` on a C-ordered copy of ``m^T``, so that the sum runs on
    operands of one layout; addition commutes exactly, so the bits are those
    of ``(m + m^T) / 2``.
    """
    s = m.T.copy()
    s += m
    s *= 0.5
    return s


def _sv_rank(s: np.ndarray, rel: float) -> int:
    """The numerical rank given the singular values ``s`` in descending
    order: the count above ``rel * s[0]``, zero for an empty or zero matrix.

    Callers keep their own SVD: a full and a values-only SVD of the same
    matrix may differ in the last bits.
    """
    return int(np.count_nonzero(s > rel * s[0])) if s.size and s[0] else 0


def rank(m, tol: Tolerance = DEFAULT_TOL) -> int:
    """Numerical rank: singular values above ``rank_rel * smax``.

    Empty and zero matrices have rank 0.
    """
    return _sv_rank(np.linalg.svd(_as_matrix(m), compute_uv=False), tol.rank_rel)


# the floating-point error state np.linalg sets around each gufunc: an invalid
# value (LAPACK's failure signal) calls numpy's raiser, the rest is ignored
def _lapack_errstate(call):
    return np.errstate(call=call, invalid="call", over="ignore", divide="ignore",
                       under="ignore")


@_lapack_errstate(_raise_linalgerror_singular)
def inv(a: np.ndarray) -> np.ndarray:
    """``np.linalg.inv(a)`` of a square float64 matrix, bitwise, by numpy's
    own gufunc; a singular ``a`` raises numpy's ``LinAlgError``."""
    return _umath_linalg.inv(a, signature="d->d")


@_lapack_errstate(_raise_linalgerror_svd_nonconvergence)
def svd(a: np.ndarray, full_matrices: bool = True):
    """``np.linalg.svd(a, full_matrices)`` of a float64 matrix as a plain
    ``(u, s, vh)`` tuple, bitwise, by numpy's own gufunc."""
    gufunc = _umath_linalg.svd_f if full_matrices else _umath_linalg.svd_s
    return gufunc(a, signature="d->ddd")


@_lapack_errstate(_raise_linalgerror_eigenvalues_nonconvergence)
def eigh(a: np.ndarray):
    """``np.linalg.eigh(a)`` (lower triangle) of a square float64 matrix as a
    plain ``(w, v)`` tuple, bitwise, by numpy's own gufunc."""
    return _umath_linalg.eigh_lo(a, signature="d->dd")


def pinv(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse; an empty matrix maps to its empty transpose.

    Singular values at or below ``rank_rel * smax`` count as zero.  The steps
    are those of ``np.linalg.pinv(a, rcond=tol.rank_rel)``, with the SVD of
    :func:`svd` and the final product by ``ndarray.dot`` (on these C- or
    F-contiguous factors the gemm of numpy's ``matmul``), so the result is
    bitwise the same, without the wrappers' per-call cost.
    """
    a = _as_matrix(m)
    if a.size == 0:
        return np.zeros((a.shape[1], a.shape[0]))
    u, s, vt = svd(a, full_matrices=False)
    large = s > tol.rank_rel * s.max()
    s = np.divide(1, s, where=large, out=s)
    s[~large] = 0
    return vt.T.dot((u * s).T)


def _psd_eigh(a: np.ndarray, tol: Tolerance, what: str, scale: float = 0.0):
    """The eigendecomposition ``(w, v)`` of the symmetric part of the square
    matrix ``a``, once ``a`` passes the symmetric-PSD rule (module docstring).

    Raises :class:`InvalidInputError` (``"<what> not symmetric"``, or
    ``"<what> has entries too large: ..."`` when its symmetric part would
    overflow) or :class:`NotPositiveDefiniteError` (``"<what> not PSD (min
    eigenvalue ...)"``) naming the matrix ``what``.
    """
    amax = float(np.max(np.abs(a), initial=0.0))
    if amax > np.finfo(float).max / 2:
        raise InvalidInputError(f"{what} has entries too large: its symmetric part overflows")
    zero = tol.zero_abs * max(1.0, amax, scale)
    if np.max(np.abs(a - a.T.copy()), initial=0.0) > zero:
        raise InvalidInputError(f"{what} not symmetric")
    w, v = eigh(symmetrize(a))
    if w.size and w[0] < -zero:
        raise NotPositiveDefiniteError(f"{what} not PSD (min eigenvalue {w[0]:.3e})")
    return w, v


def psd_sqrt(s, tol: Tolerance = DEFAULT_TOL, scale: float = 0.0) -> np.ndarray:
    """Symmetric factor ``f`` of a PSD matrix with ``f @ f.T == s``.

    The matrix must pass the symmetric-PSD rule of :func:`_psd_eigh` at
    ``scale`` (roundoff grows with the scale of the matrix, or with
    ``scale``, that of the terms it was summed from); the eigenvalues it
    lets through below zero are clamped to zero.
    """
    a = _as_matrix(s, "psd matrix")
    if a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"psd_sqrt needs a square matrix, got {a.shape}")
    return _eigh_sqrt(*_psd_eigh(a, tol, "matrix", scale))


def _eigh_sqrt(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The symmetric factor of :func:`psd_sqrt` from the eigendecomposition
    ``(w, v)`` that :func:`_psd_eigh` returned, its eigenvalues below zero
    clamped to zero."""
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def expm(m) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring via scipy)."""
    a = _as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"expm needs a square matrix, got {a.shape}")
    if a.size == 0:
        return a.copy()
    return scipy.linalg.expm(a)
