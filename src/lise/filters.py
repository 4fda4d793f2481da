"""Recursive minimum-variance unbiased filters for joint state and
unknown-input estimation.

Every filter step is one skeleton, written once in :func:`_step`: fetch the
model step, check the data, run the gain half (:func:`_lise_gains`), run the
one estimate update (:func:`_estimate_update`) and build the new state and
the :class:`StepOutput`.  The gain half reads the covariance state and the
step contexts, never the estimates or the data.  The paper's filter is that
one gain half; its variants differ only in how the covariance is
propagated:

* :func:`ulise_step` estimates the feedthrough input component from the
  measurement-updated state (globally optimal over linear estimators);
* :func:`plise_step` estimates it from the propagated state, so its state
  also carries that estimate's covariance and its cross covariance with the
  state, and its time update propagates the joint covariance of the state
  and both input components;
* :func:`cywz_step`, the ordinary-least-squares variant, uses the
  pseudo-inverse input gain ``pinv(C2 G2)`` instead of the
  generalized-least-squares gain in the state and covariance updates, while
  the reported input estimates stay BLUE.

The public step functions check the state's class and call the skeleton;
the gain half reads the variant from the state's ``d1_from_propagated`` and
from the skeleton's ``ols_state_gain``, which only :func:`cywz_step` sets.

An input component of width 0 forms nothing.  Which work a step skips is
decided from the widths of the blocks alone: ``p_h = rank(H[k-1])``, the
width of the feedthrough component ``d1``, and ``q = p - p_h``, that of the
dynamics-only component ``d2``.  With ``q = 0`` the gain half runs no solve
for the input gain (it still factors the innovation covariance of the
feedthrough-free output, which tests it positive definite), no product with
``G2 M2``, and the time update of the updated variants is ``p_tilde``
itself; with ``p_h = 0`` no covariance of ``d1`` is formed; and the
estimate update forms ``G1 d1hat``, ``G2 d2hat`` and ``V2 d2hat`` only for a
component that is present.  A skipped product is an empty array or a zero
term of a sum, so no value changes.  The Kalman filter is the p = 0 case of
this one recursion: with no unknown input, :func:`ulise_step` is the
predict, gain and Joseph update, and the ``KALMAN`` filter name of
:mod:`lise.simulate` runs it.

Each step consumes the current measurement ``y_k`` together with the known
inputs ``u_k`` and ``u_{k-1}`` and produces the filtered state, the one-step
delayed estimate of the unknown input ``d_{k-1}``, and their covariances.
Unbiasedness of every gain is tracked per step in :attr:`StepOutput.unbiasedness`.

Gains and covariances do not depend on the data, and much of each gain step
depends only on the output decompositions of steps ``k - 1`` and ``k``.  The
decomposition of step ``k`` is that of step ``k - 1`` when their H, R, C, D
and G are equal (step ``k``'s context is fetched with ``state.step`` as the
previous step of the chain; see :mod:`lise.decomposition`), and
``C2[k] G2[k-1]`` with its rank and its pseudoinverse is built once per pair
of decompositions and kept as long as both
(:func:`lise.decomposition._pair_context`); every step reads the rank and
raises :class:`~lise.errors.EstimabilityError` for a deficient pair.
A cached product always enters its products as the leftmost factor, so every
result is bitwise what building it afresh gives.

Every filter state carries the model step of its own time ``k`` (the
required ``step`` field), and a step function takes step ``k - 1`` from the
state, not from ``model``: it asks ``model`` for step ``k`` only, once.  A
state built by hand rather than by the ``*_init``/``*_step`` functions needs
nothing else besides its estimates and covariance state: ``step`` must be
``model.step(state.k)``, and the step derives everything it reads of that
step from it.  A time-varying model hands out one step object for repeated
requests of the same ``k``, so filters stepped side by side share it, and
with it its context.

A state holds only what the recursion carries from one step to the next:
the estimates, the covariances that are not functions of the others, and
the step.  Each step derives the rest at its start from the step context of
``state.step`` (:class:`~lise.decomposition.StepContext`, formed once per
step object): the output decomposition of step ``k - 1``, its
feedthrough-decoupled dynamics ``(Ahat, Qhat)`` (and, for PLISE, its block
map ``[A, G1, G2]``), and, for the updated variants, the feedthrough-input
covariance ``pd1`` from ``state.px`` (:func:`_pd1`).
Fetching a step's context rejects a step with a non-finite matrix, an
asymmetric Q or R, a Q that is not PSD or an R that is not positive
definite to within ``rank_rel``, naming the matrix and ``k``: the context's
verdict, the one :func:`lise.model.validate` reports.  Each state class declares its
covariance state once, in ``cov_fields``: ``px``, and for PLISE also
``pd1`` and ``pxd1``.  These are the fields the gain half reads (with the
step contexts) and returns for the new state, and their bytes key the state
in :func:`_gain_key`.

The estimate half of a step (:func:`_estimate_update`) reads the model
steps, decompositions and gains of steps ``k - 1`` and ``k`` from one
:class:`_StepGains` record, the one form in which they travel (the step's
:class:`StepOutput` keeps it as ``gains``), and takes the
products that involve the data only (:func:`_data_products`) as an argument,
so that a caller serving many steps with known gains (:mod:`lise.simulate`'s
gain cycle) can form the data products for all of them at once; a caller
replaying many records stacks their gains into one record.

The small inverses, SVDs and eigendecompositions call numpy's LAPACK gufuncs
directly (:func:`lise.linalg.inv`, :func:`~lise.linalg.svd`,
:func:`~lise.linalg.eigh`), bitwise what ``np.linalg`` gives, and the
finiteness checks sum the entries as Python floats, which never warns,
testing every entry only when the sum is not finite.  Every inverse goes
through :func:`_inv`, which turns a singular matrix into the error that
names it, and both reductions of the state gain form its feedthrough
projection in :func:`_feedthrough_projection`.

The matrix products of the gain half and of the estimate recursion on
1-D vectors use ``ndarray.dot``: on C- or F-contiguous operands it makes the
same BLAS call as ``@`` (gemm, gemv, syrk or ddot) without the matmul
gufunc's per-call dispatch, which is most of the cost of a product of 5 x 5
matrices.  The values are the same; only the sign
of a zero may differ, where ``@`` skips BLAS for a product over a single
term (an inner dimension of 1) and adds that term to +0.0, so a term that is
-0.0 (an underflow, or a zero times a negative number) comes out +0.0 from
``@`` and may stay -0.0 from ``dot``.  No output of the bundled
configurations or of the tests changes.  ``@`` (``np.matmul``) stays for
stacked and broadcast products (:func:`_estimate_update` on the stacked
records of :mod:`lise.simulate`), for the products on a caller's vectors
(``dot`` would copy a reversed or broadcast vector and hand it to BLAS,
where ``@`` runs its own loop; :func:`_product` picks the product of the
estimate recursion from its vectors), and wherever an operand is a view that
is neither C- nor F-contiguous: the decomposition's ``U2`` and ``T2 = U2.T``
(column blocks of the SVD factor of H, when ``0 < rank(H) < l``) and the
column block of the projection SVD in :func:`_whitened_complement_reduction`.
``dot`` would copy such a view and could take another BLAS kernel (a gemv on
the copy of ``T2`` rounds differently).  So :func:`_data_products`, which
forms ``T2 y`` and the products on the caller's ``y`` and ``u``, never uses
``dot``: a step passes ``np.matmul``, and the served gain cycle the stacked
gemv of :mod:`lise.simulate`, bitwise equal to it.

Every elementwise pass (``+``, ``-``, ``*``, ``/``) of a gain step runs on
operands of one layout: a transposed view such as ``m.T`` (F-ordered when
``m`` is C-ordered) enters a sum as a C-ordered copy, ``m.T.copy()``, as in
:func:`lise.linalg.symmetrize`, and :func:`_sym_block` writes the mirrored
blocks into one matrix.  numpy runs a pass over operands of two layouts on
its strided loop, at more than twice the cost of a same-layout pass on 5 x 5
matrices.  The copy changes no value and no order of operations, so every
bit stays; ``tests/test_source_rules.py`` keeps the rule for this module and
:mod:`lise.linalg`.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .decomposition import (
    OutputDecomposition,
    _NonFiniteMatrix,
    _pair_context,
    _step_context,
    decompose_cached,
)
from .errors import (
    EstimabilityError,
    GainConstructionError,
    InvalidInputError,
    NotPositiveDefiniteError,
    NumericalError,
)
from .linalg import (
    _finite,
    _norm,
    _psd_eigh,
    eigh,
    inv,
    pinv,
    svd,
    symmetrize,
)
from .model import SystemModel, SystemStep

__all__ = [
    "GammaPolicy",
    "UliseState",
    "PliseState",
    "StepOutput",
    "ulise_init",
    "ulise_step",
    "plise_init",
    "plise_step",
    "cywz_init",
    "cywz_step",
    "compute_gain_L",
]


class GammaPolicy(enum.Enum):
    """How the rank-deficient innovation covariance is reduced for the state gain.

    DAROUACH
        Project with the orthogonal complement of the whitened input
        directions (default; admits a closed form that skips the projection
        SVD when the state path uses the GLS input gain).
    PSEUDO_INVERSE
        Use the Moore-Penrose pseudoinverse of the innovation covariance.

    Both choices are optimal; they may produce different gain matrices but
    identical estimates and covariances.
    """

    DAROUACH = "darouach"
    PSEUDO_INVERSE = "pseudo_inverse"


@dataclass
class UliseState:
    """Filter state carried between steps: of the updated-estimate variant
    and of the OLS variant (with p = 0, and an empty ``d1hat``, that of the
    Kalman filter).

    ``xhat``/``px`` are the filtered state at time ``k`` and its covariance,
    and ``d1hat`` the estimate of the feedthrough input component at ``k``.
    ``step`` (required) is the model step at time ``k``; the next step
    reads its step ``k - 1`` from here, not from the model, and fetches only
    its own model step.  The covariance of ``d1hat`` is ``_pd1(px, dec)``,
    ``dec`` being the decomposition of ``step``'s context, and the next step
    derives it, and the decoupled dynamics of ``step``, at its start.

    ``cov_fields`` names the covariance state: the fields that the next
    step's gain half reads besides ``step``, and that it returns for the new
    state.  The gain half never reads the estimates.
    """

    k: int
    xhat: np.ndarray
    px: np.ndarray
    d1hat: np.ndarray
    step: SystemStep

    cov_fields: ClassVar[tuple[str, ...]] = ("px",)
    # the step forms the new d1hat from the updated state
    d1_from_propagated: ClassVar[bool] = False


@dataclass
class PliseState:
    """Filter state of the propagated-estimate variant.

    Here ``d1hat`` is estimated from the propagated state, so its covariance
    ``pd1`` is not a function of ``px`` and is carried, with the
    state/feedthrough-input cross covariance ``pxd1``, in the covariance
    state ``cov_fields``; the other fields are as in :class:`UliseState`.
    """

    k: int
    xhat: np.ndarray
    px: np.ndarray
    d1hat: np.ndarray
    pd1: np.ndarray
    pxd1: np.ndarray
    step: SystemStep

    cov_fields: ClassVar[tuple[str, ...]] = ("px", "pd1", "pxd1")
    # the step forms the new d1hat from the propagated state
    d1_from_propagated: ClassVar[bool] = True


@dataclass
class StepOutput:
    """Everything one filter step reports.

    The unknown-input estimate is one step delayed: the step consuming
    ``y_k`` finalizes ``dhat_prev`` as the estimate of ``d_{k-1}`` with
    covariance ``pd_prev``.  ``gains`` is the step's gain record, the one
    its estimate update ran on: the step's gains ``gains.gain_l``,
    ``gains.m2`` and ``gains.m2_state`` are read there.
    """

    k: int
    xhat: np.ndarray
    xhat_star: np.ndarray
    px: np.ndarray
    px_star: np.ndarray
    dhat_prev: np.ndarray
    pd_prev: np.ndarray
    unbiasedness: dict[str, float]
    gains: _StepGains


def _nonfinite_error(name: str, k: int) -> InvalidInputError:
    return InvalidInputError(f"{name} at k={k} has non-finite entries")


def _check_vector(v, size: int, name: str, k: int) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (size,):
        raise InvalidInputError(f"{name} at k={k} must have shape ({size},), got {a.shape}")
    if not _finite(a):
        raise _nonfinite_error(name, k)
    return a


def _checked_context(fetch, step: SystemStep, k: int, *prev: SystemStep):
    """``fetch(step, *prev)`` for model step ``k``, ``fetch`` being
    :func:`~lise.decomposition.decompose_cached` or ``_step_context`` (with
    ``prev``, step ``k - 1``).  A step with a non-finite matrix, an
    asymmetric Q or R, a Q that is not PSD or an R that is not PD raises the
    error naming the matrix and ``k``."""
    try:
        return fetch(step, *prev)
    except _NonFiniteMatrix as exc:
        raise _nonfinite_error(exc.matrix, k) from None
    except (InvalidInputError, NotPositiveDefiniteError) as exc:
        raise type(exc)(f"{exc} at k={k}") from None


def _check_p0(p0, n: int) -> np.ndarray:
    a = np.asarray(p0, dtype=float)
    if a.shape != (n, n):
        raise InvalidInputError(f"P0 must be {n} x {n}, got {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError("P0 at k=0 has non-finite entries")
    _psd_eigh(a, "P0")
    return symmetrize(a)


def _spd_factor(mat: np.ndarray, what: str) -> np.ndarray:
    """Cholesky factor of a matrix that the model assumptions make PD; no
    regularization.

    Calls LAPACK ``potrf`` the way ``scipy.linalg.cho_factor`` does (upper
    factor, other triangle left as is), so the factor is bitwise the same,
    without that wrapper's per-call cost.  Its checks stay: non-finite
    entries and a failed factorization raise :class:`NumericalError` naming
    ``what``.
    """
    if not _finite(mat):
        raise NumericalError(f"{what} has non-finite entries")
    c, info = dpotrf(mat, lower=0, clean=0)
    if info != 0:
        raise NumericalError(f"{what} is singular or indefinite")
    return c


def _factor_solve(c: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Solve with the :func:`_spd_factor` factor ``c`` of ``what``, as
    ``scipy.linalg.cho_solve`` does (LAPACK ``potrs``)."""
    if not _finite(rhs):
        raise NumericalError(f"right-hand side for the {what} has non-finite entries")
    if rhs.size == 0:
        return np.zeros(rhs.shape)
    x, info = dpotrs(c, rhs, lower=0)
    if info != 0:
        raise NumericalError(f"solve with the {what} failed (potrs info {info})")
    return x


def _sym_block(upper) -> np.ndarray:
    """The symmetric block matrix whose upper block triangle is ``upper``.

    ``upper[i]`` holds the blocks of block row ``i`` from the diagonal on,
    and each block below the diagonal is the transpose of its mirror image.
    A block given as ``None`` (of a component of width 0, never formed) is
    left out; a diagonal block that is ``None`` has width 0.  The values
    are those of ``np.block``, each block written into one preallocated
    matrix, without ``np.block``'s per-call cost.
    """
    edges = [0, *itertools.accumulate(0 if row[0] is None else row[0].shape[0]
                                      for row in upper)]
    out = np.empty((edges[-1], edges[-1]))
    for i, row in enumerate(upper):
        for j, block in enumerate(row, i):
            if block is not None:
                out[edges[i]:edges[i + 1], edges[j]:edges[j + 1]] = block
                if j > i:
                    out[edges[j]:edges[j + 1], edges[i]:edges[i + 1]] = block.T
    return out


@functools.cache
def _eye(n: int) -> np.ndarray:
    """The n x n identity, built once per size and read-only."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _inv(a: np.ndarray, error, message: str) -> np.ndarray:
    """``inv(a)``; a singular ``a`` raises ``error(message)``, the caller's
    named error, in place of numpy's ``LinAlgError``."""
    try:
        return inv(a)
    except np.linalg.LinAlgError as exc:
        raise error(message) from exc


def _input_gain_gls(p_tilde, dec_k, c2g2):
    """BLUE gain for the dynamics-only input component, plus its covariance,
    given ``c2g2`` of the step's
    :class:`~lise.decomposition._PairContext`.

    With no such component (``c2g2`` has no column) the innovation covariance
    is still factored, which tests it positive definite, and the gain and
    covariance are empty.
    """
    what = "innovation covariance of the feedthrough-free output"
    r2_tilde = symmetrize(dec_k.C2.dot(p_tilde).dot(dec_k.C2.T) + dec_k.R2)
    r2_chol = _spd_factor(r2_tilde, what)
    if not c2g2.shape[1]:
        return np.zeros((0, r2_tilde.shape[0])), np.zeros((0, 0))
    x = _factor_solve(r2_chol, c2g2, what)
    pd2 = symmetrize(_inv(c2g2.T.dot(x), NumericalError,
                          "input-estimate information matrix is singular"))
    return pd2.dot(x.T), pd2


def compute_gain_L(px_star, step, dec, g2m2, g2_prev,
                   gamma: GammaPolicy = GammaPolicy.DAROUACH, *,
                   r_hat=None, closed_form: bool = True):
    """Optimal constrained state-update gain.

    ``g2m2`` is ``G2[k-1] @ M2``, the dynamics-only input map of the state
    path (``M2`` being the GLS input gain, or its OLS replacement), and
    ``g2_prev`` is ``G2[k-1]``.  The innovation covariance ``r_star`` is
    singular whenever the unknown input has a dynamics-only component, so the
    minimizer is parameterized by a reduction ``r_check`` chosen per
    ``gamma``.  Every admissible reduction yields the same estimates and
    covariances.  The returned gain satisfies ``L @ U1 = 0`` (the
    unbiasedness constraint) by construction.

    Under the default policy ``r_hat`` must be the covariance of the
    pre-update innovation; ``closed_form`` enables the reduction that bypasses
    the projection SVD (and never forms ``r_star``), which is exact only when
    ``r_star`` equals the ``r_hat`` quadratic respected by the GLS state path
    (the updated-variant and OLS-variant structure).

    Returns the gain ``L``.
    """
    c, r = step.C, step.R
    l = c.shape[0]
    # g2m2 is zero when step k-1 has no dynamics-only input: no term of it
    # is formed then
    q = g2_prev.shape[1]
    k_gain = px_star.dot(c.T) - (g2m2 @ dec.U2.T).dot(r) if q else px_star.dot(c.T)

    if gamma is GammaPolicy.DAROUACH and r_hat is None:
        raise InvalidInputError("DAROUACH policy needs the pre-update covariance r_hat")
    if gamma is GammaPolicy.DAROUACH and closed_form:
        what = "pre-update innovation covariance"
        r_hat_chol = _spd_factor(r_hat, what)
        # n_mat = I - C G2 M2 U2' is the identity when q = 0
        n_mat = _eye(l) - c.dot(g2m2) @ dec.U2.T if q else _eye(l)
        rh_inv_n = _factor_solve(r_hat_chol, n_mat, what)
        if dec.p_h == 0:
            return k_gain.dot(_factor_solve(r_hat_chol, _eye(l), what) if q else rh_inv_n)
        proj = _feedthrough_projection(dec, rh_inv_n,
                                       "reduced gain core is singular for this step")
        # proj.T r_hat^-1 == (r_hat^-1 proj).T since r_hat is symmetric
        return k_gain.dot(_factor_solve(r_hat_chol, proj, what).T)

    r_star = c.dot(px_star).dot(c.T) + r
    if q:
        cross = (c.dot(g2m2) @ dec.U2.T).dot(r)
        r_star = r_star - cross - cross.T.copy()
    r_star = symmetrize(r_star)
    if gamma is GammaPolicy.DAROUACH:
        r_check = _whitened_complement_reduction(r_hat, r_star, c, g2_prev)
    elif _finite(r_star):
        r_check = pinv(r_star)
    else:
        raise NumericalError("innovation covariance r_star has non-finite entries")
    if dec.p_h == 0:
        return k_gain.dot(r_check)
    proj = _feedthrough_projection(dec, r_check,
                                   "gain reduction is inadmissible: U1' r_check U1 is singular")
    return k_gain.dot(proj.T).dot(r_check)


def _feedthrough_projection(dec, m, singular: str) -> np.ndarray:
    """``I - H1 Sigma^-1 (U1' m U1)^-1 U1' m`` of the decomposition ``dec``
    for the reduction ``m`` of the innovation covariance, the factor of the
    state gain that makes ``L U1 = 0``; a singular ``U1' m U1`` raises
    :class:`GainConstructionError` with the message ``singular``."""
    core = _inv(dec.U1.T.dot(m).dot(dec.U1), GainConstructionError, singular)
    return _eye(m.shape[0]) - dec.H1.dot(dec.sigma_inv.dot(core).dot(dec.U1.T).dot(m))


def _whitened_complement_reduction(r_hat, r_star, c, g2_prev):
    """Explicit projection onto the complement of the whitened input
    directions (none when ``g2_prev`` has no column).

    ``r_hat`` with a non-finite entry (an overflow of the covariance
    recursion) raises :class:`NumericalError` before LAPACK sees it.
    """
    if not _finite(r_hat):
        raise NumericalError("pre-update innovation covariance has non-finite entries")
    w, v = eigh(symmetrize(r_hat))
    if w[0] <= 0:
        raise NumericalError("pre-update innovation covariance is not PD")
    rh_half_inv = (v * (w ** -0.5)).dot(v.T)
    q = g2_prev.shape[1]
    gam = rh_half_inv
    if q:
        u_t = svd(rh_half_inv.dot(c).dot(g2_prev))[0]
        gam = u_t[:, q:].T @ rh_half_inv
    core_inv = _inv(gam.dot(r_star).dot(gam.T), GainConstructionError,
                    "reduced innovation covariance is singular")
    return gam.T.dot(core_inv).dot(gam)


def _unbiasedness(dec_k, m2, m2_state, c2g2, gain_l) -> dict[str, float]:
    eye2 = _eye(c2g2.shape[1])
    dev2 = _norm(m2.dot(c2g2) - eye2) if c2g2.size else 0.0
    if m2_state is not m2 and c2g2.size:
        dev2 = max(dev2, _norm(m2_state.dot(c2g2) - eye2))
    return {
        "m1_sigma": dec_k.m1_sigma_residual,
        "m2_c2g2": dev2,
        "l_u1": _norm(gain_l.dot(dec_k.U1)) if dec_k.p_h else 0.0,
    }


def _product(*vectors):
    """The product of the estimate recursion's matrices with ``vectors``:
    ``np.ndarray.dot`` when every one is a C-contiguous 1-D vector, on which
    it makes the gemv of ``@`` without the matmul gufunc's dispatch, else
    ``np.matmul``.

    So column stacks and stacked matrices, and a caller's vector with a
    negative or zero stride (a reversed or broadcast ``x0_mean``), which
    ``dot`` would copy and hand to BLAS where ``@`` runs its own loop, keep
    ``@``.
    """
    for v in vectors:
        if v.ndim != 1 or not v.flags.c_contiguous:
            return np.matmul
    return np.ndarray.dot


def _feedthrough_input(dec, z1, x, d1u):
    """Estimate of the feedthrough input component, ``Sigma^-1 (z1 - C1 x - D1 u)``
    with ``z1 = T1 y`` and ``d1u = D1 u``, its products chosen by
    :func:`_product` from ``x``.

    ``z1``, ``x`` and ``d1u`` may also be column stacks.
    """
    mul = _product(x)
    return mul(dec.sigma_inv, z1 - mul(dec.C1, x) - d1u)


@dataclass
class _StepGains:
    """The data-independent arguments of one step's estimate update
    (:func:`_estimate_update`): the model steps and output decompositions of
    ``k - 1`` and ``k``, the input gain ``m2`` (and ``m2_state``, which is
    ``m2`` itself except for the OLS variant), the state gain ``gain_l`` and
    the ``d1_from_propagated`` of the filter's state class.

    The fields may also hold a stack of the records of many steps: the gains
    stacked along a leading axis, and the steps and decompositions shared or
    read as stacks (:mod:`lise.simulate`'s replay maps).
    """

    step_prev: SystemStep
    step: SystemStep
    dec_prev: OutputDecomposition
    dec: OutputDecomposition
    m2: np.ndarray
    m2_state: np.ndarray
    gain_l: np.ndarray
    from_propagated: bool


def _data_products(y, u, u_prev, g: _StepGains, mul=np.matmul):
    """The products of one step's estimate update that involve the data
    only: ``(B u_prev, T1 y, T2 y, D2 u, D u, D1 u)``, ``B`` of step k-1 and
    the rest of step k, read from the record ``g``.

    ``mul(mat, v)`` forms each product: ``np.matmul`` for the vectors (or
    column stacks) of one step, or a function that forms ``mat @ v`` for
    every vector of a stack at once, bitwise as ``mat @ v``.
    """
    return (mul(g.step_prev.B, u_prev), mul(g.dec.T1, y), mul(g.dec.T2, y),
            mul(g.dec.D2, u), mul(g.step.D, u), mul(g.dec.D1, u))


def _estimate_update(xhat, d1hat, y, products, g: _StepGains):
    """The data-dependent half of one filter step, given its gain record.

    Advances the filtered state ``xhat`` and feedthrough-input estimate
    ``d1hat`` of time ``k-1`` by the checked measurement ``y`` and the
    step's :func:`_data_products`, with the steps, decompositions and gains
    of the record ``g``.  ``g.from_propagated`` forms the new ``d1hat`` from
    the propagated state (PLISE) instead of the updated one.  Returns
    ``(xhat, d1hat, dhat_prev, xstar)`` at ``k``, ``dhat_prev = V1 d1hat +
    V2 d2hat`` being the estimate of ``d_{k-1}`` from the estimates of its
    feedthrough and dynamics-only components.

    :func:`_product` picks every product from ``xhat`` and ``d1hat``, the
    only vectors here that a caller may hold (every other one is formed by
    the step, and every matrix is C- or F-contiguous).  The data may also be
    column stacks (one column per data vector), and the gains of many
    records may be stacked along a leading axis to evaluate them all at
    once, all with ``np.matmul``.
    """
    mul = _product(xhat, d1hat)
    bu, z1, z2, d2u, du, d1u = products
    p1, q = d1hat.shape[0], g.m2.shape[-2]
    xpred = mul(g.step_prev.A, xhat) + bu
    if p1:
        xpred = xpred + mul(g.dec_prev.G1, d1hat)
    xstar, dhat_prev = xpred, mul(g.dec_prev.V1, d1hat)
    if q:
        resid2 = z2 - mul(g.dec.C2, xpred) - d2u
        d2hat = mul(g.m2, resid2)
        d2hat_state = d2hat if g.m2_state is g.m2 else mul(g.m2_state, resid2)
        xstar = xpred + mul(g.dec_prev.G2, d2hat_state)
        dhat_prev = dhat_prev + mul(g.dec_prev.V2, d2hat)
    xhat_k = xstar + mul(g.gain_l, y - mul(g.step.C, xstar) - du)
    base = xstar if g.from_propagated else xhat_k
    return xhat_k, _feedthrough_input(g.dec, z1, base, d1u), dhat_prev, xstar


def _gain_key(state: UliseState | PliseState) -> bytes:
    """The exact bytes of the covariance state of ``state``: its class's
    ``cov_fields``, joined in that order.

    The gain half (:func:`_lise_gains`: gains, covariances, next
    covariance state) is a deterministic function of these
    arrays and the contexts of the model steps (``state.step``'s among them).
    So on a time-invariant model two states with equal keys give
    bitwise-equal gain halves.
    """
    return b"".join(getattr(state, name).tobytes() for name in state.cov_fields)


def _pd1(p: np.ndarray, dec: OutputDecomposition) -> np.ndarray:
    """Covariance of the feedthrough input estimate ``Sigma^-1 (z1 - C1 x -
    D1 u)`` when the state estimate ``x`` has covariance ``p``:
    ``Sigma^-1 (C1 p C1^T + R1) Sigma^-1``."""
    return symmetrize(dec.sigma_inv.dot(dec.C1.dot(p).dot(dec.C1.T) + dec.R1)
                      .dot(dec.sigma_inv))


def ulise_init(model: SystemModel, x0_mean, p0, y0, u0) -> UliseState:
    """Initialize the updated-estimate filter from the time-0 measurement."""
    step0 = model.step(0)
    dec = _checked_context(decompose_cached, step0, 0)
    xhat = _check_vector(x0_mean, step0.n, "x0_mean", 0)
    p0m = _check_p0(p0, step0.n)
    y0v = _check_vector(y0, step0.l, "y0", 0)
    u0v = _check_vector(u0, step0.m, "u0", 0)
    d1hat = _feedthrough_input(dec, dec.T1 @ y0v, xhat, dec.D1 @ u0v)
    return UliseState(k=0, xhat=xhat, px=p0m, d1hat=d1hat, step=step0)


def plise_init(model: SystemModel, x0_mean, p0, y0, u0) -> PliseState:
    """Initialize the propagated-estimate filter (adds the cross covariance)."""
    base = ulise_init(model, x0_mean, p0, y0, u0)
    dec = _step_context(base.step).dec
    pxd1 = -base.px @ dec.C1.T @ dec.sigma_inv
    return PliseState(k=0, xhat=base.xhat, px=base.px, d1hat=base.d1hat,
                      pd1=_pd1(base.px, dec), pxd1=pxd1, step=base.step)


# the OLS variant shares the init (only the step gains differ)
cywz_init = ulise_init


def _step(state, y, u, u_prev, model: SystemModel, gamma: GammaPolicy,
          ols_state_gain: bool = False):
    """One step of any filter: the skeleton that every public step shares.

    Fetches model step ``k`` (the one model request of the step), its
    decomposition and the context of step ``k - 1``, checks the data, runs
    the gain half :func:`_lise_gains`, runs the one :func:`_estimate_update`
    on the gain record it returns, and builds the new state of the state's
    own class and the :class:`StepOutput`, which keeps the record.
    """
    k = state.k + 1
    step = model.step(k)
    ctx_prev = _checked_context(_step_context, state.step, k - 1)
    dec_k = _checked_context(_step_context, step, k, state.step).dec
    yv = _check_vector(y, step.l, "y", k)
    uv = _check_vector(u, step.m, "u", k)
    upv = _check_vector(u_prev, step.m, "u_prev", k)
    cov, px_star, pd_prev, g, unbiasedness = _lise_gains(state, ctx_prev, step, dec_k, gamma,
                                                         ols_state_gain)
    xhat, d1hat, dhat_prev, xstar = _estimate_update(
        state.xhat, state.d1hat, yv, _data_products(yv, uv, upv, g), g)
    out = StepOutput(k=k, xhat=xhat, xhat_star=xstar, px=cov["px"], px_star=px_star,
                     dhat_prev=dhat_prev, pd_prev=pd_prev, unbiasedness=unbiasedness, gains=g)
    return type(state)(k=k, xhat=xhat, d1hat=d1hat, step=step, **cov), out


def _lise_gains(state: UliseState | PliseState, ctx_prev, step: SystemStep,
                dec_k: OutputDecomposition, gamma: GammaPolicy, ols_state_gain: bool):
    """The gain half of the unified filter: of :func:`ulise_step`,
    :func:`cywz_step` and :func:`plise_step`.

    The variant comes from the state's class: ``d1_from_propagated`` selects
    PLISE's carried feedthrough-input covariances and its time update from
    the joint covariance of ``(x, d1, d2)``; ``ols_state_gain`` puts the
    pseudo-inverse input gain in the state and covariance path (CYWZ).
    Everything else is shared.

    Reads the covariance state (the state class's ``cov_fields``) and the
    step contexts, ``ctx_prev`` of ``state.step`` (whose decomposition is
    the one step ``k - 1`` ran on) and that of step ``k``, never the
    estimates or the data.  Returns ``(cov, px_star, pd_prev, gains,
    unbiasedness)``: ``cov`` is the new state's ``cov_fields`` by name and
    ``gains`` the step's :class:`_StepGains` record.
    """
    propagated = state.d1_from_propagated
    step_prev, dp = state.step, ctx_prev.dec
    n = step.n
    # the widths of the input components d1 and d2 at k-1: the products,
    # solves and blocks of a component of width 0 are not formed
    p1, q = dp.p_h, dp.G2.shape[1]

    # estimation of the dynamics-only input component d2 at k-1
    ahat, qhat = ctx_prev.ahat, ctx_prev.qhat
    p_tilde = symmetrize(ahat.dot(state.px).dot(ahat.T) + qhat)
    ctx = _pair_context(dp, dec_k)
    if ctx.rank < q:
        raise EstimabilityError(
            f"rank(C2 G2) = {ctx.rank} < {q}: unbiased estimation of the "
            "dynamics-only input component is impossible")
    m2, pd2 = _input_gain_gls(p_tilde, dec_k, ctx.c2g2)
    m2_state = ctx.c2g2_pinv if ols_state_gain else m2

    # covariance of d at k-1 from those of d1 and d2 and their cross
    # covariance; that of d1 is carried by PLISE and a function of px for
    # the updated variants
    pd1_prev = (state.pd1 if propagated else _pd1(state.px, dp)) if p1 else None
    w2 = dec_k.C2.T.dot(m2.T) if q else None
    pd12 = None
    if p1 and q:
        # -cov(d1, x) at k-1
        neg_pd1x = -state.pxd1.T if propagated else dp.si_c1.dot(state.px)
        pd12 = neg_pd1x.dot(step_prev.A.T).dot(w2) - pd1_prev.dot(dp.G1.T).dot(w2)
    pd_prev = (symmetrize(dp.V.dot(_sym_block([[pd1_prev, pd12], [pd2]])).dot(dp.V.T))
               if p1 or q else np.zeros((0, 0)))

    # time update
    g2m2 = dp.G2.dot(m2_state)
    if propagated:
        # from the joint covariance of (x, d1, d2) at k-1
        pxd2 = ((-state.px).dot(step_prev.A.T).dot(w2) - state.pxd1.dot(dp.G1.T).dot(w2)
                if q else None)
        bmap = ctx_prev.blockmap
        joint = _sym_block([[state.px, state.pxd1, pxd2], [state.pd1, pd12], [pd2]])
        px_star = bmap.dot(joint).dot(bmap.T) + step_prev.Q
        if q:
            qc = g2m2.dot(dec_k.C2).dot(step_prev.Q)
            px_star = px_star - qc - qc.T.copy()
        px_star = symmetrize(px_star)
        # PLISE always reduces the singular innovation covariance with its
        # pseudoinverse: its recursion weights the dynamics-only input
        # estimate with the updated-variant one-step covariance, which
        # inflates rank(r_star) past the fixed reduction dimension whenever
        # C2 G1 != 0, so only a rank-adaptive reduction reproduces the
        # published recursion.  Estimates are reduction-invariant anyway.
        gamma, r_hat = GammaPolicy.PSEUDO_INVERSE, None
    else:
        # with no dynamics-only input nothing is subtracted from p_tilde
        px_star = p_tilde
        if q:
            igmc = _eye(n) - g2m2.dot(dec_k.C2)
            px_star = symmetrize(g2m2.dot(dec_k.R2).dot(m2_state.T).dot(dp.G2.T)
                                 + igmc.dot(p_tilde).dot(igmc.T))
        # p_tilde is exactly the pre-update second moment for the updated
        # variants (the updated-state input estimate makes them coincide), so
        # the reduction may use the SVD-free closed form on the GLS path
        r_hat = symmetrize(step.C.dot(p_tilde).dot(step.C.T) + step.R)

    # measurement update, Joseph form
    gain_l = compute_gain_L(px_star, step, dec_k, g2m2, dp.G2, gamma,
                            r_hat=r_hat, closed_form=not ols_state_gain)
    ilc = _eye(n) - gain_l.dot(step.C)
    # (I - L C) P* and L R, shared by px and PLISE's pxd1
    ilc_p, lr = ilc.dot(px_star), gain_l.dot(step.R)
    px = ilc_p.dot(ilc.T)
    if q:
        noise_cross = ilc.dot((g2m2 @ dec_k.U2.T).dot(step.R)).dot(gain_l.T)
        px = noise_cross + noise_cross.T.copy() + px
    cov = {"px": symmetrize(px + lr.dot(gain_l.T))}
    if propagated:
        # d1 at k is estimated from the propagated state
        cov["pd1"] = _pd1(px_star, dec_k)
        pxd1 = -(ilc_p.dot(dec_k.C1.T).dot(dec_k.sigma_inv))
        if q:
            pxd1 = pxd1 - ((lr @ dec_k.T2.T).dot(m2.T).dot(dp.G2.T)
                           .dot(dec_k.C1.T).dot(dec_k.sigma_inv))
        cov["pxd1"] = pxd1
    g = _StepGains(step_prev, step, dp, dec_k, m2, m2_state, gain_l, propagated)
    return cov, px_star, pd_prev, g, _unbiasedness(dec_k, m2, m2_state, ctx.c2g2, gain_l)


def _check_state(state, cls, step_name: str) -> None:
    if not isinstance(state, cls):
        raise InvalidInputError(
            f"{step_name} needs a {cls.__name__}, got {type(state).__name__}")


def ulise_step(state: UliseState, y, u, u_prev, model: SystemModel,
               gamma: GammaPolicy = GammaPolicy.DAROUACH):
    """Advance the updated-estimate filter by one measurement.

    Requires ``rank(C2[k] G2[k-1]) = p - rank(H[k-1])``; otherwise an
    :class:`EstimabilityError` is raised naming the achieved rank.
    """
    _check_state(state, UliseState, "ulise_step")
    return _step(state, y, u, u_prev, model, gamma)


def cywz_step(state: UliseState, y, u, u_prev, model: SystemModel,
              gamma: GammaPolicy = GammaPolicy.DAROUACH):
    """Advance the OLS variant: pseudo-inverse input gain in the state and
    covariance path, BLUE gains in the reported input estimate."""
    _check_state(state, UliseState, "cywz_step")
    return _step(state, y, u, u_prev, model, gamma, ols_state_gain=True)


def plise_step(state: PliseState, y, u, u_prev, model: SystemModel,
               gamma: GammaPolicy = GammaPolicy.DAROUACH):
    """Advance the propagated-estimate filter by one measurement.

    The feedthrough input estimate is formed from the propagated state, and
    the propagated covariance is assembled from the full joint covariance of
    state and both input components.  This variant always reduces the
    singular innovation covariance with its pseudoinverse: its recursion
    weights the dynamics-only input estimate with the updated-variant
    one-step covariance, which inflates ``rank(r_star)`` past the fixed
    reduction dimension whenever ``C2 G1 != 0``, so only a rank-adaptive
    reduction reproduces the published recursion.  ``gamma`` is accepted for
    interface symmetry; estimates are reduction-invariant anyway.
    """
    _check_state(state, PliseState, "plise_step")
    return _step(state, y, u, u_prev, model, gamma)
