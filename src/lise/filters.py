"""Recursive minimum-variance unbiased filters for joint state and
unknown-input estimation.

Two optimal three-step variants are provided, differing in which state
estimate feeds the feedthrough-input estimate:

* :func:`ulise_step` estimates the feedthrough input component from the
  measurement-updated state (globally optimal over linear estimators),
* :func:`plise_step` estimates it from the propagated state.

:func:`cywz_step` is the ordinary-least-squares variant: the state and
covariance updates use the pseudo-inverse input gain ``pinv(C2 G2)`` instead
of the generalized-least-squares gain, while the reported input estimates
stay BLUE.  :func:`kalman_step` is the no-unknown-input special case; both
main filters collapse to it exactly when p = 0.

Each step consumes the current measurement ``y_k`` together with the known
inputs ``u_k`` and ``u_{k-1}`` and produces the filtered state, the one-step
delayed estimate of the unknown input ``d_{k-1}``, and their covariances.
Unbiasedness of every gain is tracked per step in :attr:`StepOutput.unbiasedness`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .decomposition import (
    OutputDecomposition,
    decompose_cached,
    decoupled_dynamics,
    transform_measurement,
)
from .errors import (
    EstimabilityError,
    GainConstructionError,
    InvalidInputError,
    NumericalError,
)
from .linalg import DEFAULT_TOL, Tolerance, pinv, symmetrize
from .model import SystemModel

__all__ = [
    "GammaPolicy",
    "UliseState",
    "PliseState",
    "KalmanState",
    "StepOutput",
    "ulise_init",
    "ulise_step",
    "plise_init",
    "plise_step",
    "cywz_init",
    "cywz_step",
    "kalman_init",
    "kalman_step",
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
    """Filter state carried between steps (updated-estimate variant).

    ``dec`` is the output decomposition at time ``k``; ``ahat``/``qhat`` are
    the feedthrough-decoupled dynamics cached for the next time update.
    """

    k: int
    xhat: np.ndarray
    px: np.ndarray
    d1hat: np.ndarray
    pd1: np.ndarray
    ahat: np.ndarray
    qhat: np.ndarray
    dec: OutputDecomposition


@dataclass
class PliseState:
    """Filter state of the propagated-estimate variant.

    Adds the state/feedthrough-input cross covariance ``pxd1`` and the latest
    propagated covariance ``px_star``.
    """

    k: int
    xhat: np.ndarray
    px: np.ndarray
    d1hat: np.ndarray
    pd1: np.ndarray
    pxd1: np.ndarray
    ahat: np.ndarray
    qhat: np.ndarray
    dec: OutputDecomposition
    px_star: np.ndarray


@dataclass
class KalmanState:
    k: int
    xhat: np.ndarray
    px: np.ndarray


@dataclass
class StepOutput:
    """Everything one filter step reports.

    The unknown-input estimate is one step delayed: the step consuming
    ``y_k`` finalizes ``dhat_prev`` as the estimate of ``d_{k-1}`` with
    covariance ``pd_prev``.  ``gain_m2_state`` differs from ``gain_m2`` only
    for the OLS variant.
    """

    k: int
    xhat: np.ndarray
    xhat_star: np.ndarray
    px: np.ndarray
    px_star: np.ndarray
    dhat_prev: np.ndarray
    pd_prev: np.ndarray
    gain_l: np.ndarray
    gain_m1: np.ndarray
    gain_m2: np.ndarray
    gain_m2_state: np.ndarray
    unbiasedness: dict[str, float]


def _check_vector(v, size: int, name: str, k: int) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (size,):
        raise InvalidInputError(f"{name} at k={k} must have shape ({size},), got {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{name} at k={k} has non-finite entries")
    return a


def _check_p0(p0, n: int, tol: Tolerance) -> np.ndarray:
    a = np.asarray(p0, dtype=float)
    if a.shape != (n, n):
        raise InvalidInputError(f"P0 must be {n} x {n}, got {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError("P0 at k=0 has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(a))))
    if np.max(np.abs(a - a.T)) > tol.zero_abs * scale:
        raise InvalidInputError("P0 must be symmetric")
    if a.size and np.linalg.eigvalsh(symmetrize(a))[0] < -tol.zero_abs * scale:
        raise InvalidInputError("P0 must be PSD")
    return symmetrize(a)


def _spd_solve(mat: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Solve with a matrix that the model assumptions make PD; no regularization."""
    if mat.shape[0] == 0:
        return np.zeros((0, rhs.shape[1]) if rhs.ndim == 2 else (0,))
    try:
        c, low = scipy.linalg.cho_factor(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what} is singular or indefinite") from exc
    return scipy.linalg.cho_solve((c, low), rhs)


def _input_gain_gls(p_tilde, dec_k, g2_prev, tol):
    """BLUE gain for the dynamics-only input component, plus its covariance."""
    r2_tilde = symmetrize(dec_k.C2 @ p_tilde @ dec_k.C2.T + dec_k.R2)
    c2g2 = dec_k.C2 @ g2_prev
    need = g2_prev.shape[1]
    if need:
        s = np.linalg.svd(c2g2, compute_uv=False)
        got = int(np.count_nonzero(s > tol.rank_rel * s[0])) if s.size and s[0] else 0
        if got < need:
            raise EstimabilityError(
                f"rank(C2 G2) = {got} < {need}: unbiased estimation of the "
                "dynamics-only input component is impossible"
            )
    x = _spd_solve(r2_tilde, c2g2, "innovation covariance of the feedthrough-free output")
    gram = c2g2.T @ x
    if need:
        try:
            pd2 = np.linalg.inv(gram)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("input-estimate information matrix is singular") from exc
        pd2 = symmetrize(pd2)
    else:
        pd2 = np.zeros((0, 0))
    m2 = pd2 @ x.T
    return m2, pd2, r2_tilde, c2g2


def compute_gain_L(px_star, step, dec, m2_state, g2_prev,
                   gamma: GammaPolicy = GammaPolicy.DAROUACH,
                   tol: Tolerance = DEFAULT_TOL, *,
                   r_hat=None, closed_form: bool = True):
    """Optimal constrained state-update gain.

    The innovation covariance ``r_star`` is singular whenever the unknown
    input has a dynamics-only component, so the minimizer is parameterized by
    a reduction ``r_check`` chosen per ``gamma``.  Every admissible reduction
    yields the same estimates and covariances.  The returned gain satisfies
    ``L @ U1 = 0`` (the unbiasedness constraint) by construction.

    Under the default policy ``r_hat`` must be the covariance of the
    pre-update innovation; ``closed_form`` enables the reduction that bypasses
    the projection SVD, which is exact only when ``r_star`` equals the
    ``r_hat`` quadratic respected by the GLS state path (the updated-variant
    and OLS-variant structure).

    Returns ``(L, m1_star, r_star)``.
    """
    c, r = step.C, step.R
    l = c.shape[0]
    g2m2 = g2_prev @ m2_state
    cross = c @ g2m2 @ dec.U2.T @ r
    r_star = symmetrize(c @ px_star @ c.T + r - cross - cross.T)
    k_gain = px_star @ c.T - g2m2 @ dec.U2.T @ r

    if gamma is GammaPolicy.DAROUACH:
        if r_hat is None:
            raise InvalidInputError("DAROUACH policy needs the pre-update covariance r_hat")
        if closed_form:
            n_mat = np.eye(l) - c @ g2m2 @ dec.U2.T
            rh_inv_n = _spd_solve(r_hat, n_mat, "pre-update innovation covariance")
            if dec.p_h > 0:
                try:
                    core = np.linalg.inv(dec.U1.T @ rh_inv_n @ dec.U1)
                except np.linalg.LinAlgError as exc:
                    raise GainConstructionError(
                        "reduced gain core is singular for this step"
                    ) from exc
                m1_star = dec.sigma_inv @ core @ dec.U1.T @ rh_inv_n
                proj = np.eye(l) - dec.H1 @ m1_star
                # proj.T r_hat^-1 == (r_hat^-1 proj).T since r_hat is symmetric
                gain = k_gain @ _spd_solve(r_hat, proj, "pre-update innovation covariance").T
            else:
                m1_star = np.zeros((0, l))
                gain = k_gain @ _spd_solve(r_hat, np.eye(l), "pre-update innovation covariance")
            return gain, m1_star, r_star
        r_check = _whitened_complement_reduction(r_hat, r_star, c, g2_prev)
    else:
        r_check = pinv(r_star, tol)

    if dec.p_h > 0:
        core = dec.U1.T @ r_check @ dec.U1
        try:
            core_inv = np.linalg.inv(core)
        except np.linalg.LinAlgError as exc:
            raise GainConstructionError(
                "gain reduction is inadmissible: U1' r_check U1 is singular"
            ) from exc
        m1_star = dec.sigma_inv @ core_inv @ dec.U1.T @ r_check
        gain = k_gain @ (np.eye(l) - dec.H1 @ m1_star).T @ r_check
    else:
        m1_star = np.zeros((0, l))
        gain = k_gain @ r_check
    return gain, m1_star, r_star


def _whitened_complement_reduction(r_hat, r_star, c, g2_prev):
    """Explicit projection onto the complement of the whitened input directions."""
    l = c.shape[0]
    w, v = np.linalg.eigh(symmetrize(r_hat))
    if w[0] <= 0:
        raise NumericalError("pre-update innovation covariance is not PD")
    rh_half_inv = (v * (w ** -0.5)) @ v.T
    q = g2_prev.shape[1]
    if q:
        u_t = np.linalg.svd(rh_half_inv @ c @ g2_prev)[0]
    else:
        u_t = np.eye(l)
    gam = u_t[:, q:].T @ rh_half_inv
    core = gam @ r_star @ gam.T
    try:
        core_inv = np.linalg.inv(core)
    except np.linalg.LinAlgError as exc:
        raise GainConstructionError("reduced innovation covariance is singular") from exc
    return gam.T @ core_inv @ gam


def _unbiasedness(dec_k, m2, m2_state, c2g2, gain_l) -> dict[str, float]:
    eye2 = np.eye(c2g2.shape[1])
    dev2 = float(np.linalg.norm(m2 @ c2g2 - eye2)) if c2g2.size else 0.0
    if m2_state is not m2 and c2g2.size:
        dev2 = max(dev2, float(np.linalg.norm(m2_state @ c2g2 - eye2)))
    # gain_m1 is sigma^-1 by construction; measure the realized product anyway
    dev1 = float(np.linalg.norm(dec_k.sigma_inv @ dec_k.Sigma - np.eye(dec_k.p_h)))
    return {
        "m1_sigma": dev1,
        "m2_c2g2": dev2,
        "l_u1": float(np.linalg.norm(gain_l @ dec_k.U1)) if dec_k.p_h else 0.0,
    }


def ulise_init(model: SystemModel, x0_mean, p0, y0, u0,
               tol: Tolerance = DEFAULT_TOL) -> UliseState:
    """Initialize the updated-estimate filter from the time-0 measurement."""
    step0 = model.step(0)
    dec = decompose_cached(step0, tol)
    xhat = _check_vector(x0_mean, step0.n, "x0_mean", 0)
    p0m = _check_p0(p0, step0.n, tol)
    y0v = _check_vector(y0, step0.l, "y0", 0)
    u0v = _check_vector(u0, step0.m, "u0", 0)
    z1, _ = transform_measurement(dec, y0v)
    d1hat = dec.sigma_inv @ (z1 - dec.C1 @ xhat - dec.D1 @ u0v)
    pd1 = dec.sigma_inv @ (dec.C1 @ p0m @ dec.C1.T + dec.R1) @ dec.sigma_inv
    ahat, qhat = decoupled_dynamics(step0, dec)
    return UliseState(k=0, xhat=xhat, px=p0m, d1hat=d1hat, pd1=symmetrize(pd1),
                      ahat=ahat, qhat=qhat, dec=dec)


def plise_init(model: SystemModel, x0_mean, p0, y0, u0,
               tol: Tolerance = DEFAULT_TOL) -> PliseState:
    """Initialize the propagated-estimate filter (adds the cross covariance)."""
    base = ulise_init(model, x0_mean, p0, y0, u0, tol)
    pxd1 = -base.px @ base.dec.C1.T @ base.dec.sigma_inv
    return PliseState(k=0, xhat=base.xhat, px=base.px, d1hat=base.d1hat,
                      pd1=base.pd1, pxd1=pxd1, ahat=base.ahat, qhat=base.qhat,
                      dec=base.dec, px_star=base.px.copy())


# the OLS variant shares the init (only the step gains differ)
cywz_init = ulise_init


def _updated_variant_step(state: UliseState, y, u, u_prev, model: SystemModel,
                          gamma: GammaPolicy, tol: Tolerance,
                          dec: OutputDecomposition | None, ols_state_gain: bool):
    k = state.k + 1
    step_prev = model.step(state.k)
    step = model.step(k)
    dec_k = dec if dec is not None else decompose_cached(step, tol)
    dp = state.dec
    yv = _check_vector(y, step.l, "y", k)
    uv = _check_vector(u, step.m, "u", k)
    upv = _check_vector(u_prev, step.m, "u_prev", k)
    n = step.n

    # estimation of the dynamics-only input component d2 at k-1
    p_tilde = symmetrize(state.ahat @ state.px @ state.ahat.T + state.qhat)
    m2, pd2, r2_tilde, c2g2 = _input_gain_gls(p_tilde, dec_k, dp.G2, tol)
    m2_state = pinv(c2g2, tol) if ols_state_gain else m2

    xpred = step_prev.A @ state.xhat + step_prev.B @ upv + dp.G1 @ state.d1hat
    z1, z2 = transform_measurement(dec_k, yv)
    resid2 = z2 - dec_k.C2 @ xpred - dec_k.D2 @ uv
    d2hat = m2 @ resid2
    dhat_prev = dp.V1 @ state.d1hat + dp.V2 @ d2hat
    w2 = dec_k.C2.T @ m2.T
    pd12 = (dp.sigma_inv @ dp.C1 @ state.px @ step_prev.A.T @ w2
            - state.pd1 @ dp.G1.T @ w2)
    pd_prev = dp.V @ np.block([[state.pd1, pd12], [pd12.T, pd2]]) @ dp.V.T

    # time update
    d2hat_state = m2_state @ resid2 if ols_state_gain else d2hat
    xstar = xpred + dp.G2 @ d2hat_state
    igmc = np.eye(n) - dp.G2 @ m2_state @ dec_k.C2
    px_star = symmetrize(dp.G2 @ m2_state @ dec_k.R2 @ m2_state.T @ dp.G2.T
                         + igmc @ p_tilde @ igmc.T)

    # measurement update; p_tilde is exactly the pre-update second moment for
    # this variant (the updated-state input estimate makes them coincide), so
    # the reduction may use the SVD-free closed form on the GLS path
    r_hat = symmetrize(step.C @ p_tilde @ step.C.T + step.R)
    gain_l, _, _ = compute_gain_L(px_star, step, dec_k, m2_state, dp.G2, gamma, tol,
                                  r_hat=r_hat, closed_form=not ols_state_gain)
    xhat = xstar + gain_l @ (yv - step.C @ xstar - step.D @ uv)
    ilc = np.eye(n) - gain_l @ step.C
    noise_cross = ilc @ (dp.G2 @ m2_state @ dec_k.U2.T @ step.R) @ gain_l.T
    px = symmetrize(noise_cross + noise_cross.T + ilc @ px_star @ ilc.T
                    + gain_l @ step.R @ gain_l.T)

    # estimation of the feedthrough input component d1 at k (from the
    # updated state)
    r1_tilde = dec_k.C1 @ px @ dec_k.C1.T + dec_k.R1
    pd1 = symmetrize(dec_k.sigma_inv @ r1_tilde @ dec_k.sigma_inv)
    d1hat = dec_k.sigma_inv @ (z1 - dec_k.C1 @ xhat - dec_k.D1 @ uv)
    ahat, qhat = decoupled_dynamics(step, dec_k)

    new_state = UliseState(k=k, xhat=xhat, px=px, d1hat=d1hat, pd1=pd1,
                           ahat=ahat, qhat=qhat, dec=dec_k)
    out = StepOutput(
        k=k, xhat=xhat, xhat_star=xstar, px=px, px_star=px_star,
        dhat_prev=dhat_prev, pd_prev=symmetrize(pd_prev),
        gain_l=gain_l, gain_m1=dec_k.sigma_inv, gain_m2=m2,
        gain_m2_state=m2_state,
        unbiasedness=_unbiasedness(dec_k, m2, m2_state, c2g2, gain_l),
    )
    return new_state, out


def ulise_step(state: UliseState, y, u, u_prev, model: SystemModel,
               gamma: GammaPolicy = GammaPolicy.DAROUACH,
               tol: Tolerance = DEFAULT_TOL,
               dec: OutputDecomposition | None = None):
    """Advance the updated-estimate filter by one measurement.

    Requires ``rank(C2[k] G2[k-1]) = p - rank(H[k-1])``; otherwise an
    :class:`EstimabilityError` is raised naming the achieved rank.
    """
    return _updated_variant_step(state, y, u, u_prev, model, gamma, tol, dec,
                                 ols_state_gain=False)


def cywz_step(state: UliseState, y, u, u_prev, model: SystemModel,
              gamma: GammaPolicy = GammaPolicy.DAROUACH,
              tol: Tolerance = DEFAULT_TOL,
              dec: OutputDecomposition | None = None):
    """Advance the OLS variant: pseudo-inverse input gain in the state and
    covariance path, BLUE gains in the reported input estimate."""
    return _updated_variant_step(state, y, u, u_prev, model, gamma, tol, dec,
                                 ols_state_gain=True)


def plise_step(state: PliseState, y, u, u_prev, model: SystemModel,
               gamma: GammaPolicy = GammaPolicy.DAROUACH,
               tol: Tolerance = DEFAULT_TOL,
               dec: OutputDecomposition | None = None):
    """Advance the propagated-estimate filter by one measurement.

    Order of operations differs from the updated variant: the feedthrough
    input estimate is formed from the propagated state before the measurement
    update, and the propagated covariance is assembled from the full joint
    covariance of state and both input components.
    """
    k = state.k + 1
    step_prev = model.step(state.k)
    step = model.step(k)
    dec_k = dec if dec is not None else decompose_cached(step, tol)
    dp = state.dec
    yv = _check_vector(y, step.l, "y", k)
    uv = _check_vector(u, step.m, "u", k)
    upv = _check_vector(u_prev, step.m, "u_prev", k)
    n = step.n

    p_tilde = symmetrize(state.ahat @ state.px @ state.ahat.T + state.qhat)
    m2, pd2, r2_tilde, c2g2 = _input_gain_gls(p_tilde, dec_k, dp.G2, tol)

    xpred = step_prev.A @ state.xhat + step_prev.B @ upv + dp.G1 @ state.d1hat
    z1, z2 = transform_measurement(dec_k, yv)
    d2hat = m2 @ (z2 - dec_k.C2 @ xpred - dec_k.D2 @ uv)
    w2 = dec_k.C2.T @ m2.T
    pxd2 = -state.px @ step_prev.A.T @ w2 - state.pxd1 @ dp.G1.T @ w2
    pd12 = -state.pxd1.T @ step_prev.A.T @ w2 - state.pd1 @ dp.G1.T @ w2
    dhat_prev = dp.V1 @ state.d1hat + dp.V2 @ d2hat
    pd_prev = dp.V @ np.block([[state.pd1, pd12], [pd12.T, pd2]]) @ dp.V.T

    # time update from the joint covariance of (x, d1, d2) at k-1
    xstar = xpred + dp.G2 @ d2hat
    blockmap = np.hstack([step_prev.A, dp.G1, dp.G2])
    joint = np.block([
        [state.px, state.pxd1, pxd2],
        [state.pxd1.T, state.pd1, pd12],
        [pxd2.T, pd12.T, pd2],
    ])
    qc = dp.G2 @ m2 @ dec_k.C2 @ step_prev.Q
    px_star = symmetrize(blockmap @ joint @ blockmap.T + step_prev.Q - qc - qc.T)

    # estimation of d1 at k from the propagated state
    r1_tilde = dec_k.C1 @ px_star @ dec_k.C1.T + dec_k.R1
    pd1 = symmetrize(dec_k.sigma_inv @ r1_tilde @ dec_k.sigma_inv)
    d1hat = dec_k.sigma_inv @ (z1 - dec_k.C1 @ xstar - dec_k.D1 @ uv)
    ahat, qhat = decoupled_dynamics(step, dec_k)

    # measurement update.  This variant always reduces the singular
    # innovation covariance with its pseudoinverse: its recursion weights the
    # dynamics-only input estimate with the updated-variant one-step
    # covariance, which inflates rank(r_star) past the fixed reduction
    # dimension whenever C2 G1 != 0, so only a rank-adaptive reduction
    # reproduces the published recursion.  The policy argument is accepted
    # for interface symmetry; estimates are reduction-invariant anyway.
    gain_l, _, _ = compute_gain_L(px_star, step, dec_k, m2, dp.G2,
                                  GammaPolicy.PSEUDO_INVERSE, tol)
    xhat = xstar + gain_l @ (yv - step.C @ xstar - step.D @ uv)
    ilc = np.eye(n) - gain_l @ step.C
    noise_cross = ilc @ (dp.G2 @ m2 @ dec_k.U2.T @ step.R) @ gain_l.T
    px = symmetrize(noise_cross + noise_cross.T + ilc @ px_star @ ilc.T
                    + gain_l @ step.R @ gain_l.T)
    pxd1_new = (-(ilc @ px_star @ dec_k.C1.T @ dec_k.sigma_inv)
                - gain_l @ step.R @ dec_k.T2.T @ m2.T @ dp.G2.T
                @ dec_k.C1.T @ dec_k.sigma_inv)

    new_state = PliseState(k=k, xhat=xhat, px=px, d1hat=d1hat, pd1=pd1,
                           pxd1=pxd1_new, ahat=ahat, qhat=qhat, dec=dec_k,
                           px_star=px_star)
    out = StepOutput(
        k=k, xhat=xhat, xhat_star=xstar, px=px, px_star=px_star,
        dhat_prev=dhat_prev, pd_prev=symmetrize(pd_prev),
        gain_l=gain_l, gain_m1=dec_k.sigma_inv, gain_m2=m2, gain_m2_state=m2,
        unbiasedness=_unbiasedness(dec_k, m2, m2, c2g2, gain_l),
    )
    return new_state, out


def kalman_init(model: SystemModel, x0_mean, p0,
                tol: Tolerance = DEFAULT_TOL) -> KalmanState:
    if model.p != 0:
        raise InvalidInputError("kalman filter applies only to models with p = 0")
    step0 = model.step(0)
    return KalmanState(k=0, xhat=_check_vector(x0_mean, step0.n, "x0_mean", 0),
                       px=_check_p0(p0, step0.n, tol))


def kalman_step(state: KalmanState, y, u, u_prev, model: SystemModel,
                tol: Tolerance = DEFAULT_TOL):
    """Standard predict/update with Joseph-form covariance (p = 0 collapse)."""
    if model.p != 0:
        raise InvalidInputError("kalman filter applies only to models with p = 0")
    k = state.k + 1
    step_prev = model.step(state.k)
    step = model.step(k)
    yv = _check_vector(y, step.l, "y", k)
    uv = _check_vector(u, step.m, "u", k)
    upv = _check_vector(u_prev, step.m, "u_prev", k)
    n = step.n

    xpred = step_prev.A @ state.xhat + step_prev.B @ upv
    p_pred = symmetrize(step_prev.A @ state.px @ step_prev.A.T + step_prev.Q)
    r_tilde = symmetrize(step.C @ p_pred @ step.C.T + step.R)
    gain_l = _spd_solve(r_tilde, step.C @ p_pred, "innovation covariance").T
    xhat = xpred + gain_l @ (yv - step.C @ xpred - step.D @ uv)
    ilc = np.eye(n) - gain_l @ step.C
    px = symmetrize(ilc @ p_pred @ ilc.T + gain_l @ step.R @ gain_l.T)

    new_state = KalmanState(k=k, xhat=xhat, px=px)
    empty = np.zeros(0)
    out = StepOutput(
        k=k, xhat=xhat, xhat_star=xpred, px=px, px_star=p_pred,
        dhat_prev=empty, pd_prev=np.zeros((0, 0)),
        gain_l=gain_l, gain_m1=np.zeros((0, 0)), gain_m2=np.zeros((0, step.l)),
        gain_m2_state=np.zeros((0, step.l)),
        unbiasedness={"m1_sigma": 0.0, "m2_c2g2": 0.0, "l_u1": 0.0},
    )
    return new_state, out
