"""Independent references used by the unit and acceptance tests.

The closed-form references are written straight from the special-case
equations (no feedthrough; full-column-rank feedthrough) without reusing the
filter implementation, so they can serve as oracles for it.  The others are
frozen copies of straightforward code (per-step output decomposition,
per-run truth, per-step model validation, the symmetric-PSD tests of Q, P0
and ``psd_sqrt`` as each was once written on its own, per-step filter pass
and its first repeated covariance state, batched replay, piecewise fault
signals, per-point unit-circle scan, per-value CSV writer) that the
library's faster or shared code must reproduce.
``mp_px_recursion`` is a 50-digit reference for the updated variants'
covariance, against which their float64 error is bounded.
``vehicle_tracking_model`` writes out the continuous-time matrices of
``configs/vehicle_tracking.yaml``, which only the tests read undiscretized.
"""

from types import SimpleNamespace

import mpmath
import numpy as np

from lise.decomposition import decompose, decompose_cached, decoupled_dynamics
from lise.errors import (
    EstimabilityError,
    GainConstructionError,
    InvalidInputError,
    LiseError,
    NotPositiveDefiniteError,
    NumericalError,
)
from lise.filters import (
    GammaPolicy,
    _factor_solve,
    _gain_key,
    _spd_factor,
    _StepGains,
    _sym_block,
)
from lise.linalg import DEFAULT_TOL, eigh, pinv, psd_sqrt, rank, symmetrize
from lise.model import ContinuousModel, Violation
from lise.signals import sample_signals
from lise.simulate import _INITS, _STEPS, _run_rng
from lise.structural import UnitCircleTest


def no_feedthrough_oracle(model, ys, us, x0, p0):
    """Joint state/input recursion for H = 0 (pseudo-inverse gain reduction).

    Yields per step: filtered state, its covariance, the delayed input
    estimate and its covariance.
    """
    step = model.step(0)
    a, b, c, d, g, q, r = step.A, step.B, step.C, step.D, step.G, step.Q, step.R
    n = step.n
    xh = np.asarray(x0, dtype=float).copy()
    px = np.asarray(p0, dtype=float).copy()
    outs = []
    for k in range(1, ys.shape[0]):
        p_pred = a @ px @ a.T + q
        r_tilde = c @ p_pred @ c.T + r
        ri = np.linalg.inv(r_tilde)
        pd = np.linalg.inv(g.T @ c.T @ ri @ c @ g)
        m = pd @ g.T @ c.T @ ri
        xpred = a @ xh + b @ us[k - 1]
        dhat = m @ (ys[k] - c @ xpred - d @ us[k])
        igmc = np.eye(n) - g @ m @ c
        p_star = igmc @ p_pred @ igmc.T + g @ m @ r @ m.T @ g.T
        xstar = xpred + g @ dhat
        r_star = symmetrize(c @ p_star @ c.T + r - c @ g @ m @ r - r @ m.T @ g.T @ c.T)
        s = -g @ m @ r + p_star @ c.T
        l_gain = s @ pinv(r_star)
        xh = xstar + l_gain @ (ys[k] - c @ xstar - d @ us[k])
        px = symmetrize(p_star + l_gain @ r_star @ l_gain.T
                        - l_gain @ s.T - s @ l_gain.T)
        outs.append((xh.copy(), px.copy(), dhat.copy(), pd.copy()))
    return outs


def full_rank_gain_oracle(step, px_star):
    """State-update gain for full-column-rank feedthrough.

    Annihilates the feedthrough directions through the weighted projector
    built from the (here nonsingular) innovation covariance.
    """
    r_tilde = step.C @ px_star @ step.C.T + step.R
    ri = np.linalg.inv(r_tilde)
    h = step.H
    inner = np.eye(step.l) - h @ np.linalg.inv(h.T @ ri @ h) @ h.T @ ri
    return px_star @ step.C.T @ ri @ inner


def decompose_oracle(step):
    """The output decomposition of one step, computed from scratch.

    A frozen copy of ``decomposition.decompose`` from before the (H, R)
    factorisation was cached, with the decomposition's derived values
    (``V``, ``sigma_inv``, ``m1_sigma_residual``) computed as it computed
    them, and the per-step constants ``gsi_c1``, ``gsi_r1_gsi`` and
    ``si_c1`` computed as ``decoupled_dynamics`` and the ULISE step computed
    them before they were kept in the decomposition; returns every field by
    name.  The cached decomposition must reproduce it bit for bit.
    """
    l, p = step.H.shape
    try:
        np.linalg.cholesky(symmetrize(step.R))
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError("measurement covariance R is not PD") from None

    u, s, vt = np.linalg.svd(step.H)
    p_h = int(np.count_nonzero(s > DEFAULT_TOL.rank_rel * s[0])) if s.size and s[0] else 0
    u1, u2 = u[:, :p_h].copy(), u[:, p_h:]
    v = vt.T
    v1, v2 = v[:, :p_h].copy(), v[:, p_h:]
    for j in range(p_h):
        nz = np.flatnonzero(np.abs(u1[:, j]) > 1e-12)
        if nz.size and u1[nz[0], j] < 0:
            u1[:, j] = -u1[:, j]
            v1[:, j] = -v1[:, j]
    if p_h == 0:
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
    sigma_inv = np.zeros((0, 0)) if p_h == 0 else np.diag(1.0 / np.diag(sigma))
    c1, g1 = t1 @ step.C, step.G @ v1
    gsi = g1 @ sigma_inv
    return dict(
        p_h=p_h, U1=u1, U2=u2, V1=v1, V2=v2, Sigma=sigma, T1=t1, T2=t2,
        C1=c1, C2=t2 @ step.C,
        D1=t1 @ step.D, D2=t2 @ step.D,
        G1=g1, G2=step.G @ v2,
        H1=u1 @ sigma, R1=r1, R2=r2,
        V=np.hstack([v1, v2]), sigma_inv=sigma_inv,
        m1_sigma_residual=float(np.linalg.norm(sigma_inv @ sigma - np.eye(p_h))),
        gsi_c1=gsi @ c1, gsi_r1_gsi=gsi @ r1 @ gsi.T, si_c1=sigma_inv @ c1,
    )


def _sym(m):
    """``linalg.symmetrize`` as it was written when the step oracle was frozen."""
    return 0.5 * (m + m.T)


def _oracle_gain_l(px_star, step, dec, m2_state, g2_prev, gamma, r_hat, closed_form):
    """The state-update gain as ``filters.compute_gain_L`` formed it, with the
    unused ``m1_star`` and ``r_star`` of the closed form dropped."""
    c, r = step.C, step.R
    l = c.shape[0]
    g2m2 = g2_prev @ m2_state
    cross = c @ g2m2 @ dec["U2"].T @ r
    r_star = _sym(c @ px_star @ c.T + r - cross - cross.T)
    k_gain = px_star @ c.T - g2m2 @ dec["U2"].T @ r
    u1, h1, si = dec["U1"], dec["H1"], dec["sigma_inv"]
    if gamma is GammaPolicy.DAROUACH and closed_form:
        what = "pre-update innovation covariance"
        chol = _spd_factor(r_hat, what)
        n_mat = np.eye(l) - c @ g2m2 @ dec["U2"].T
        rh_inv_n = _factor_solve(chol, n_mat, what)
        if dec["p_h"] == 0:
            return k_gain @ _factor_solve(chol, np.eye(l), what)
        try:
            core = np.linalg.inv(u1.T @ rh_inv_n @ u1)
        except np.linalg.LinAlgError as exc:
            raise GainConstructionError("reduced gain core is singular for this step") from exc
        m1_star = si @ core @ u1.T @ rh_inv_n
        proj = np.eye(l) - h1 @ m1_star
        return k_gain @ _factor_solve(chol, proj, what).T
    if gamma is GammaPolicy.DAROUACH:
        w, v = np.linalg.eigh(_sym(r_hat))
        if w[0] <= 0:
            raise NumericalError("pre-update innovation covariance is not PD")
        rh_half_inv = (v * (w ** -0.5)) @ v.T
        q = g2_prev.shape[1]
        u_t = np.linalg.svd(rh_half_inv @ c @ g2_prev)[0] if q else np.eye(l)
        gam = u_t[:, q:].T @ rh_half_inv
        try:
            core_inv = np.linalg.inv(gam @ r_star @ gam.T)
        except np.linalg.LinAlgError as exc:
            raise GainConstructionError("reduced innovation covariance is singular") from exc
        r_check = gam.T @ core_inv @ gam
    else:
        r_check = pinv(r_star)
    if dec["p_h"] == 0:
        return k_gain @ r_check
    try:
        core_inv = np.linalg.inv(u1.T @ r_check @ u1)
    except np.linalg.LinAlgError as exc:
        raise GainConstructionError(
            "gain reduction is inadmissible: U1' r_check U1 is singular") from exc
    m1_star = si @ core_inv @ u1.T @ r_check
    return k_gain @ (np.eye(l) - h1 @ m1_star).T @ r_check


def step_oracle(variant, state, y, u, u_prev, model, gamma=GammaPolicy.DAROUACH):
    """One ULISE, PLISE or CYWZ step computed from scratch.

    A frozen copy of the arithmetic of ``filters.ulise_step``, ``plise_step``
    and ``cywz_step`` from before their data-independent constants
    (``C2 G2`` and its pseudoinverse, ``G2 M2``, the decoupled dynamics and
    ``Sigma^-1 C1``) were kept in caches.  Both decompositions come from
    :func:`decompose_oracle`, every product keeps the association it had, and
    nothing is shared between calls.  The decoupled dynamics of step k-1 and,
    for ULISE and CYWZ, the feedthrough-input covariance ``pd1`` at k-1 are
    derived from ``state.step``, its decomposition and ``state.px``, as the
    step forms them from the state it receives.  ``variant`` is ``"ULISE"``,
    ``"PLISE"`` or ``"CYWZ"``.  Returns ``(state_fields, out_fields)``: the
    next state's arrays and the decomposition of its step (as the dict of
    :func:`decompose_oracle`, under ``"dec"``), and the :class:`StepOutput`
    fields by attribute path, the gains under ``"gains.gain_l"``,
    ``"gains.m2"`` and ``"gains.m2_state"``.
    Raises what the step raises, with the same message.
    """
    k = state.k + 1
    step_prev, step = state.step, model.step(k)
    dp, dk = decompose_oracle(step_prev), decompose_oracle(step)
    y, u, u_prev = (np.asarray(v, dtype=float) for v in (y, u, u_prev))
    n = step.n
    ols = variant == "CYWZ"

    def decoupled(st, dec):
        if dec["p_h"] == 0:
            return st.A.copy(), st.Q.copy()
        gsi = dec["G1"] @ dec["sigma_inv"]
        return st.A - gsi @ dec["C1"], _sym(gsi @ dec["R1"] @ gsi.T + st.Q)

    def pd1_of(p, dec):
        return _sym(dec["sigma_inv"] @ (dec["C1"] @ p @ dec["C1"].T + dec["R1"])
                    @ dec["sigma_inv"])

    ahat, qhat = decoupled(step_prev, dp)
    pd1 = state.pd1 if variant == "PLISE" else pd1_of(state.px, dp)

    # GLS input gain of the dynamics-only component
    p_tilde = _sym(ahat @ state.px @ ahat.T + qhat)
    r2_tilde = _sym(dk["C2"] @ p_tilde @ dk["C2"].T + dk["R2"])
    c2g2 = dk["C2"] @ dp["G2"]
    need = dp["G2"].shape[1]
    if need:
        sv = np.linalg.svd(c2g2, compute_uv=False)
        got = int(np.count_nonzero(sv > DEFAULT_TOL.rank_rel * sv[0])) if sv.size and sv[0] else 0
        if got < need:
            raise EstimabilityError(
                f"rank(C2 G2) = {got} < {need}: unbiased estimation of the "
                "dynamics-only input component is impossible")
    what = "innovation covariance of the feedthrough-free output"
    x = _factor_solve(_spd_factor(r2_tilde, what), c2g2, what)
    if need:
        try:
            pd2 = _sym(np.linalg.inv(c2g2.T @ x))
        except np.linalg.LinAlgError as exc:
            raise NumericalError("input-estimate information matrix is singular") from exc
    else:
        pd2 = np.zeros((0, 0))
    m2 = pd2 @ x.T
    m2_state = pinv(c2g2) if ols else m2
    w2 = dk["C2"].T @ m2.T
    new = {}

    if variant == "PLISE":
        pxd2 = -state.px @ step_prev.A.T @ w2 - state.pxd1 @ dp["G1"].T @ w2
        pd12 = -state.pxd1.T @ step_prev.A.T @ w2 - pd1 @ dp["G1"].T @ w2
        blockmap = np.hstack([step_prev.A, dp["G1"], dp["G2"]])
        joint = _sym_block([[state.px, state.pxd1, pxd2], [pd1, pd12], [pd2]])
        qc = dp["G2"] @ m2 @ dk["C2"] @ step_prev.Q
        px_star = _sym(blockmap @ joint @ blockmap.T + step_prev.Q - qc - qc.T)
        gain_l = _oracle_gain_l(px_star, step, dk, m2, dp["G2"],
                                GammaPolicy.PSEUDO_INVERSE, None, True)
    else:
        pd12 = (dp["sigma_inv"] @ dp["C1"] @ state.px @ step_prev.A.T @ w2
                - pd1 @ dp["G1"].T @ w2)
        igmc = np.eye(n) - dp["G2"] @ m2_state @ dk["C2"]
        px_star = _sym(dp["G2"] @ m2_state @ dk["R2"] @ m2_state.T @ dp["G2"].T
                       + igmc @ p_tilde @ igmc.T)
        r_hat = _sym(step.C @ p_tilde @ step.C.T + step.R)
        gain_l = _oracle_gain_l(px_star, step, dk, m2_state, dp["G2"], gamma,
                                r_hat, not ols)
    pd_prev = dp["V"] @ _sym_block([[pd1, pd12], [pd2]]) @ dp["V"].T
    ilc = np.eye(n) - gain_l @ step.C
    noise_cross = ilc @ (dp["G2"] @ m2_state @ dk["U2"].T @ step.R) @ gain_l.T
    px = _sym(noise_cross + noise_cross.T + ilc @ px_star @ ilc.T
              + gain_l @ step.R @ gain_l.T)
    if variant == "PLISE":
        new["pxd1"] = (-(ilc @ px_star @ dk["C1"].T @ dk["sigma_inv"])
                       - gain_l @ step.R @ dk["T2"].T @ m2.T @ dp["G2"].T
                       @ dk["C1"].T @ dk["sigma_inv"])
        new["pd1"] = pd1_of(px_star, dk)

    # the estimate update
    xpred = step_prev.A @ state.xhat + step_prev.B @ u_prev + dp["G1"] @ state.d1hat
    z1, z2 = dk["T1"] @ y, dk["T2"] @ y
    resid2 = z2 - dk["C2"] @ xpred - dk["D2"] @ u
    d2hat = m2 @ resid2
    dhat_prev = dp["V1"] @ state.d1hat + dp["V2"] @ d2hat
    d2hat_state = m2_state @ resid2 if ols else d2hat
    xstar = xpred + dp["G2"] @ d2hat_state
    xhat = xstar + gain_l @ (y - step.C @ xstar - step.D @ u)
    base = xstar if variant == "PLISE" else xhat
    new["d1hat"] = dk["sigma_inv"] @ (z1 - dk["C1"] @ base - dk["D1"] @ u)
    new["xhat"], new["px"], new["dec"] = xhat, px, dk

    eye2 = np.eye(c2g2.shape[1])
    dev2 = float(np.linalg.norm(m2 @ c2g2 - eye2)) if c2g2.size else 0.0
    if ols and c2g2.size:
        dev2 = max(dev2, float(np.linalg.norm(m2_state @ c2g2 - eye2)))
    out = dict(
        k=k, xhat=xhat, xhat_star=xstar, px=px, px_star=px_star,
        dhat_prev=dhat_prev, pd_prev=_sym(pd_prev),
        **{"gains.gain_l": gain_l, "gains.m2": m2, "gains.m2_state": m2_state},
        unbiasedness={
            "m1_sigma": dk["m1_sigma_residual"], "m2_c2g2": dev2,
            "l_u1": float(np.linalg.norm(gain_l @ dk["U1"])) if dk["p_h"] else 0.0,
        },
    )
    return new, out


def kalman_step_oracle(state, y, u, u_prev, model):
    """One textbook Kalman step (predict, gain, Joseph update) computed with
    ``@`` throughout, from ``state``'s ``k``, ``xhat``, ``px`` and ``step``.

    A frozen copy of the arithmetic of the package's former separate Kalman
    step, the caller's vectors taken as they come.  Returns the
    :class:`StepOutput` fields it forms by attribute path, the gain under
    ``"gains.gain_l"``.
    """
    step_prev, step = state.step, model.step(state.k + 1)
    y, u, u_prev = (np.asarray(v, dtype=float) for v in (y, u, u_prev))
    xpred = step_prev.A @ state.xhat + step_prev.B @ u_prev
    p_pred = symmetrize(step_prev.A @ state.px @ step_prev.A.T + step_prev.Q)
    r_tilde = symmetrize(step.C @ p_pred @ step.C.T + step.R)
    what = "innovation covariance"
    gain_l = _factor_solve(_spd_factor(r_tilde, what), step.C @ p_pred, what).T
    xhat = xpred + gain_l @ (y - step.C @ xpred - step.D @ u)
    ilc = np.eye(step.n) - gain_l @ step.C
    px = symmetrize(ilc @ p_pred @ ilc.T + gain_l @ step.R @ gain_l.T)
    return {"xhat": xhat, "xhat_star": xpred, "px": px, "px_star": p_pred,
            "gains.gain_l": gain_l}


def kalman_oracle_pass(model, ys, us, x0, p0, n_steps):
    """``n_steps`` chained :func:`kalman_step_oracle` steps from the prior
    ``(x0, p0)`` over the data ``ys``, ``us``; returns each step's outputs."""
    state = SimpleNamespace(k=0, xhat=np.asarray(x0, dtype=float),
                            px=np.asarray(p0, dtype=float), step=model.step(0))
    outs = []
    for k in range(1, n_steps + 1):
        outs.append(kalman_step_oracle(state, ys[k], us[k], us[k - 1], model))
        state = SimpleNamespace(k=k, xhat=outs[-1]["xhat"], px=outs[-1]["px"],
                                step=model.step(k))
    return outs


def per_run_truth_oracle(scenario, run_index):
    """Ground truth of one run, stepped one run at a time.

    A frozen copy of the original per-run simulation loop; the batched
    ``simulate_truth`` must reproduce it bit for bit.  Returns (x, y, d, u).
    """
    model = scenario.model
    n_steps = scenario.horizon
    d = sample_signals(scenario.d_signals, n_steps + 1)
    u = sample_signals(scenario.u_signals, n_steps + 1)
    rng = _run_rng(scenario.noise_seed, run_index)
    w_std = rng.standard_normal((n_steps, model.n))
    v_std = rng.standard_normal((n_steps + 1, model.l))

    x = np.zeros((n_steps + 1, model.n))
    y = np.zeros((n_steps + 1, model.l))
    x[0] = scenario.x0_true
    fq = fr = None
    for k in range(n_steps + 1):
        step = model.step(k)
        if fq is None or not model.is_time_invariant:
            fq = psd_sqrt(step.Q)
            fr = psd_sqrt(step.R)
        y[k] = step.C @ x[k] + step.D @ u[k] + step.H @ d[k] + fr @ v_std[k]
        if k < n_steps:
            x[k + 1] = (step.A @ x[k] + step.B @ u[k] + step.G @ d[k]
                        + fq @ w_std[k])
    return x, y, d, u


_MATRICES = ("A", "B", "C", "D", "G", "H", "Q", "R")


def _per_step_check(step, k):
    out = []
    for name in _MATRICES:
        a = getattr(step, name)
        if a.size and not np.all(np.isfinite(a)):
            out.append(Violation(k, name, f"{name} has non-finite entries"))
    n, p, l = step.n, step.p, step.l
    if not (n >= l >= 1):
        out.append(Violation(k, "dims", f"need n >= l >= 1, got n={n}, l={l}"))
    if not (l >= p >= 0):
        out.append(Violation(k, "dims", f"need l >= p >= 0, got l={l}, p={p}"))
    scale_q = max(1.0, float(np.max(np.abs(step.Q))) if step.Q.size else 0.0)
    if np.max(np.abs(step.Q - step.Q.T), initial=0.0) > DEFAULT_TOL.zero_abs * scale_q:
        out.append(Violation(k, "Q", "Q not symmetric"))
    elif step.Q.size:
        w = np.linalg.eigvalsh(0.5 * (step.Q + step.Q.T))
        if w[0] < -DEFAULT_TOL.zero_abs * scale_q:
            out.append(Violation(k, "Q", f"Q not PSD (min eigenvalue {w[0]:.3e})"))
    scale_r = max(1.0, float(np.max(np.abs(step.R))) if step.R.size else 0.0)
    if np.max(np.abs(step.R - step.R.T), initial=0.0) > DEFAULT_TOL.zero_abs * scale_r:
        out.append(Violation(k, "R", "R not symmetric"))
    else:
        w = np.linalg.eigvalsh(0.5 * (step.R + step.R.T))
        if w[0] <= 0.0 or w[0] < DEFAULT_TOL.rank_rel * w[-1]:
            out.append(Violation(k, "R", "R not PD"))
    return out


def per_step_validate_oracle(model):
    """A frozen copy of the original ``validate``: every check, the Q and R
    checks and ``rank([G; H])`` included, run afresh at every step."""
    ks = range(1 if model.is_time_invariant else (model.horizon_hint or 0) + 1)
    violations = []
    best_stack_rank = 0
    for k in ks:
        step = model.step(k)
        violations.extend(_per_step_check(step, k))
        best_stack_rank = max(best_stack_rank, rank(np.vstack([step.G, step.H])))
    if best_stack_rank != model.p:
        violations.append(Violation(
            None, "G/H",
            f"max_k rank([G; H]) = {best_stack_rank} != p = {model.p}; "
            "drop linearly dependent unknown-input columns",
        ))
    return violations


def q_fault_oracle(q):
    """A frozen copy of the original ``model._q_fault``: why ``Q`` is not a
    symmetric PSD matrix, or ``None``."""
    scale = max(1.0, float(np.max(np.abs(q))) if q.size else 0.0)
    if np.max(np.abs(q - q.T), initial=0.0) > DEFAULT_TOL.zero_abs * scale:
        return "Q not symmetric"
    if q.size:
        w = np.linalg.eigvalsh(0.5 * (q + q.T))
        if w[0] < -DEFAULT_TOL.zero_abs * scale:
            return f"Q not PSD (min eigenvalue {w[0]:.3e})"
    return None


def check_p0_oracle(p0, n):
    """A frozen copy of the original ``filters._check_p0``: the symmetrized
    P0, or :class:`InvalidInputError` ("P0 must be symmetric" or "P0 must be
    PSD")."""
    a = np.asarray(p0, dtype=float)
    if a.shape != (n, n):
        raise InvalidInputError(f"P0 must be {n} x {n}, got {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError("P0 at k=0 has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(a))))
    if np.max(np.abs(a - a.T)) > DEFAULT_TOL.zero_abs * scale:
        raise InvalidInputError("P0 must be symmetric")
    if a.size and np.linalg.eigvalsh(symmetrize(a))[0] < -DEFAULT_TOL.zero_abs * scale:
        raise InvalidInputError("P0 must be PSD")
    return symmetrize(a)


def psd_sqrt_oracle(a, scale=0.0):
    """A frozen copy of the original ``linalg.psd_sqrt`` on a finite square
    matrix: its symmetric factor, or :class:`InvalidInputError` (not
    symmetric) or :class:`NotPositiveDefiniteError` (not PSD)."""
    if a.size == 0:
        return a.copy()
    zero = DEFAULT_TOL.zero_abs * max(1.0, float(np.max(np.abs(a))), scale)
    if np.max(np.abs(a - a.T)) > zero:
        raise InvalidInputError("psd_sqrt input is not symmetric to tolerance")
    w, v = eigh(symmetrize(a))
    if w[0] < -zero:
        raise NotPositiveDefiniteError(
            f"matrix has eigenvalue {w[0]:.3e} below -zero_abs * max(1, max|a|, scale) "
            f"= {-zero:.3e}; not PSD"
        )
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


def fault_input_samples(count: int) -> np.ndarray:
    """The three benchmark fault signals written out piecewise (no generic
    oscillator), as the independent reference for the signal specs."""
    d = np.zeros((count, 3))
    for k in range(count):
        if 500 <= k <= 700:
            d[k, 0] = 1.0
        if 100 <= k <= 800:
            d[k, 1] = (k - 100) / 700.0
        if 500 <= k <= 549 or 600 <= k <= 649 or 700 <= k <= 749:
            d[k, 2] = 3.0
        elif 550 <= k <= 599 or 650 <= k <= 699 or 750 <= k <= 799:
            d[k, 2] = -3.0
    return d


def per_step_full_pass_oracle(name, scenario, truth):
    """A filter pass that calls the step function at every step.

    A frozen copy of the original ``simulate._full_pass`` loop, before steps
    were served from a repeating gain cycle; the cycle replay must reproduce
    it bit for bit.  Returns the same tuple as ``_full_pass``, with a
    ``gain_cycle`` of ``None``.
    """
    model = scenario.model
    n_steps = scenario.horizon
    ys, us = truth.y, truth.u
    state = _INITS[name](model, scenario.x0_mean, scenario.p0, ys[0], us[0])
    xhat = np.zeros((n_steps, model.n))
    dhat = np.zeros((n_steps, model.p))
    px_diag = np.zeros((n_steps, model.n))
    pd_diag = np.zeros((n_steps, model.p))
    gains = []
    unb = {"m1_sigma": 0.0, "m2_c2g2": 0.0, "l_u1": 0.0}
    error = failed_at = None
    for k in range(1, n_steps + 1):
        step_prev = model.step(k - 1)
        step = model.step(k)
        dec_prev = decompose_cached(step_prev)
        try:
            state, out = _STEPS[name](state, ys[k], us[k], us[k - 1], model,
                                      scenario.gamma)
        except LiseError as exc:
            error = f"step {k}: {exc}"
            failed_at = k
            xhat, dhat = xhat[:k - 1], dhat[:k - 1]
            px_diag, pd_diag = px_diag[:k - 1], pd_diag[:k - 1]
            break
        i = k - 1
        xhat[i] = out.xhat
        dhat[i] = out.dhat_prev
        px_diag[i] = np.diag(out.px)
        pd_diag[i] = np.diag(out.pd_prev)
        for key in unb:
            unb[key] = max(unb[key], out.unbiasedness[key])
        gains.append(_StepGains(
            step_prev=step_prev, step=step, dec_prev=dec_prev,
            dec=decompose_cached(step),
            m2=out.gains.m2, m2_state=out.gains.m2_state, gain_l=out.gains.gain_l,
            from_propagated=name == "PLISE",
        ))
    return xhat, dhat, px_diag, pd_diag, gains, unb, error, failed_at, None


def first_repeat_oracle(name, scenario, truth):
    """The first step whose covariance state repeats an earlier one.

    Steps the filter at every k, as the per-step pass does, and records
    ``filters._gain_key`` of the state before every step in a list, until a
    key equals one in the list.  Returns ``(k, k - first)`` for the first
    key before step ``k`` that equals the one before an earlier step
    ``first``, or ``None`` when none repeats before the horizon or the
    filter fails: the ``FilterRun.gain_cycle`` that the pass must report on
    a time-invariant model.
    """
    model = scenario.model
    ys, us = truth.y, truth.u
    state = _INITS[name](model, scenario.x0_mean, scenario.p0, ys[0], us[0])
    keys = []
    for k in range(1, scenario.horizon + 1):
        key = _gain_key(state)
        if key in keys:
            return k, k - (keys.index(key) + 1)
        keys.append(key)
        try:
            state, _ = _STEPS[name](state, ys[k], us[k], us[k - 1], model,
                                    scenario.gamma)
        except LiseError:
            return None
    return None


def per_step_replay_oracle(name, gains, ys, us, x0_mean):
    """The Monte-Carlo replay of a gain schedule as a batched recursion.

    A frozen copy of the original ``simulate._apply_schedule``, which wrote
    the estimate update out a second time on (M, .) arrays; the replay
    through per-record maps must stay within rounding of it.  Returns the
    (M, N, n) and (M, N, p) estimates.
    """
    runs, _, _ = ys.shape
    n_steps = len(gains)
    n = gains[0].step_prev.A.shape[0]
    p = gains[0].dec_prev.V1.shape[0]
    xh = np.zeros((runs, n_steps, n))
    dh = np.zeros((runs, n_steps, p))

    dec0 = gains[0].dec_prev
    x = np.broadcast_to(x0_mean, (runs, n)).copy()
    z1_0 = ys[:, 0, :] @ dec0.T1.T
    d1 = (z1_0 - x @ dec0.C1.T - us[0] @ dec0.D1.T) @ dec0.sigma_inv.T
    for i, g in enumerate(gains):
        k = i + 1
        yk = ys[:, k, :]
        xpred = (x @ g.step_prev.A.T + us[k - 1] @ g.step_prev.B.T
                 + d1 @ g.dec_prev.G1.T)
        resid2 = yk @ g.dec.T2.T - xpred @ g.dec.C2.T - us[k] @ g.dec.D2.T
        d2 = resid2 @ g.m2.T
        d2s = resid2 @ g.m2_state.T if g.m2_state is not g.m2 else d2
        dh[:, i, :] = d1 @ g.dec_prev.V1.T + d2 @ g.dec_prev.V2.T
        xstar = xpred + d2s @ g.dec_prev.G2.T
        x = xstar + (yk - xstar @ g.step.C.T - us[k] @ g.step.D.T) @ g.gain_l.T
        xh[:, i, :] = x
        base = xstar if name == "PLISE" else x
        d1 = ((yk @ g.dec.T1.T - base @ g.dec.C1.T - us[k] @ g.dec.D1.T)
              @ g.dec.sigma_inv.T)
    return xh, dh


def per_point_circle_scan(build, nrows, candidates):
    """The unit-circle scan on a 721-point grid, with one SVD per point.

    A frozen copy of the original ``structural._circle_scan`` loop, which
    took ``build(z)`` for a single point ``z`` and scanned 720 equal steps
    of the circle plus the angles of the candidate eigenvalues near it,
    against ``rank_rel`` times the largest singular value it met.  The test
    at the candidate points only must reach the same verdict (``ok``).
    """
    omegas = list(np.linspace(0.0, 2.0 * np.pi, 720 + 1))
    for lam in candidates:
        if abs(abs(lam) - 1.0) <= 1e-3:
            omegas.append(float(np.angle(lam)) % (2.0 * np.pi))
    min_sigma = np.inf
    worst = 0.0
    smax = 0.0
    for om in omegas:
        s = np.linalg.svd(build(np.exp(1j * om)), compute_uv=False)
        smax = max(smax, float(s[0]))
        if s[nrows - 1] < min_sigma:
            min_sigma = float(s[nrows - 1])
            worst = om
    threshold = DEFAULT_TOL.rank_rel * smax
    return UnitCircleTest(ok=min_sigma >= threshold, min_sigma=min_sigma,
                          worst_omega=worst, threshold=threshold)


def ulise_circle_oracle(step):
    """The circle test of ``ulise_convergence_check``, built point by point
    as the original code built it."""
    dec = decompose_cached(step)
    ahat, qhat = decoupled_dynamics(step, dec)
    q_half = psd_sqrt(qhat)
    r2_half = psd_sqrt(dec.R2)
    n = step.n
    l2 = dec.C2.shape[0]
    z_c2 = np.zeros((l2, dec.G2.shape[1] + n))

    def build(z):
        top = np.hstack([ahat - z * np.eye(n), dec.G2, q_half, np.zeros((n, l2))])
        bottom = np.hstack([z * dec.C2, z_c2, r2_half])
        return np.vstack([top, bottom])

    return per_point_circle_scan(build, n + l2, np.linalg.eigvals(ahat))


def plise_circle_oracle(step):
    """The circle test of ``plise_stability_check`` (for a step that meets
    its preconditions), built point by point as the original code built it."""
    dec = decompose_cached(step)
    c2g2 = dec.C2 @ dec.G2
    m2t = np.linalg.pinv(c2g2) if c2g2.size else np.zeros((0, dec.C2.shape[0]))
    theta = symmetrize(dec.R2 - c2g2 @ m2t @ dec.R2 - dec.R2 @ m2t.T @ c2g2.T)
    theta_inv = np.linalg.inv(theta) if theta.size else theta
    ahat, qhat = decoupled_dynamics(step, dec)
    n = step.n
    n_hat = np.eye(n) - dec.G2 @ m2t @ dec.C2
    s_hat = -n_hat @ ahat @ dec.G2 @ m2t @ dec.R2
    f_s = n_hat @ ahat - s_hat @ theta_inv @ dec.C2
    q_s = symmetrize(dec.G2 @ m2t @ dec.R2 @ m2t.T @ dec.G2.T
                     + n_hat @ qhat @ n_hat.T - s_hat @ theta_inv @ s_hat.T)
    q_s_half = psd_sqrt(q_s)

    def build(z):
        return np.hstack([z * np.eye(n) - f_s, q_s_half])

    return per_point_circle_scan(build, n, np.linalg.eigvals(f_s))


def per_value_step_csv(result):
    """The text of ``write_step_csv``, formatting one value per call.

    A frozen copy of the original writer; the row-template writer must
    produce the same bytes.
    """
    def fmt(x):
        return f"{x:.17g}"

    model = result.scenario.model
    cols = (["k", "filter"]
            + [f"xhat_{i + 1}" for i in range(model.n)]
            + [f"dhat_{i + 1}" for i in range(model.p)]
            + ["tr_px", "tr_pd", "err_x_norm", "err_d_norm"])
    lines = [",".join(cols)]
    for name in result.scenario.filters:
        fr = result.filters[name]
        for i in range(fr.xhat.shape[0]):
            row = ([str(i + 1), name]
                   + [fmt(v) for v in fr.xhat[i]]
                   + [fmt(v) for v in fr.dhat[i]]
                   + [fmt(fr.tr_px[i]), fmt(fr.tr_pd[i] if model.p else 0.0),
                      fmt(float(np.linalg.norm(fr.err_x[i]))),
                      fmt(float(np.linalg.norm(fr.err_d[i])) if model.p else 0.0)])
            lines.append(",".join(row))
        if fr.error is not None:
            msg = fr.error.replace(",", ";")
            row = ([str(fr.failed_at), f"{name}:ERROR:{msg}"]
                   + [""] * (model.n + model.p + 4))
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def vehicle_tracking_model() -> ContinuousModel:
    """Two-vehicle tracking with an unknown accelerator input on the first
    vehicle and an unknown bias on the second vehicle's velocity sensor."""
    a = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [0.0, -0.1, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, -0.1],
    ])
    b = np.array([[0.0], [0.0], [0.0], [1.0]])
    g = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    c = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    d = np.zeros((4, 1))
    h = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    q = 1e-4 * np.diag([0.0, 1.6, 0.0, 0.9])
    r = 1e-4 * np.diag([1.0, 0.16, 0.9, 2.5])
    return ContinuousModel(A=a, B=b, G=g, C=c, D=d, H=h, Q=q, R=r, dt=0.01)


def mp_array(a):
    """A float array as an object array of exactly equal ``mpmath.mpf``."""
    a = np.asarray(a, dtype=float)
    return np.array([mpmath.mpf(float(x)) for x in a.flat], dtype=object).reshape(a.shape)


def _mp_inv(a):
    """Inverse of a square object array of ``mpf`` (LU in ``mpmath``)."""
    if a.size == 0:
        return a.copy()
    return np.array(mpmath.inverse(mpmath.matrix(a.tolist())).tolist(), dtype=object)


def _mp_svd(a):
    """Full SVD ``a = U diag(s) V^T`` of a nonempty object array of ``mpf``;
    returns ``(U, s, V)``."""
    u, s, vt = mpmath.svd_r(mpmath.matrix(a.tolist()), full_matrices=True)
    return (np.array(u.tolist(), dtype=object), [s[i] for i in range(s.rows)],
            np.array(vt.tolist(), dtype=object).T)


def _mp_pinv(a, rel):
    """Pseudo-inverse of a nonempty object array of ``mpf``; singular values
    at or below ``rel`` times the largest count as zero, as in
    ``lise.linalg.pinv``."""
    u, s, v = _mp_svd(a)
    k = sum(x > rel * s[0] for x in s)
    return v[:, :k] @ np.diag([1 / x for x in s[:k]]) @ u[:, :k].T


def mp_px_recursion(variant, step, p0, n_steps, dps=50):
    """``px``, the input gain ``M2`` and the state gain ``L`` of ULISE, CYWZ
    or PLISE on the time-invariant ``step``, at ``dps`` decimal digits, for
    steps 1 to ``n_steps``.  ``M2`` is returned as ``V2 M2 U2^T``, the map
    from an output residual to the dynamics-only part of the estimate of
    ``d``, which does not depend on the choice of the SVD bases ``U2`` and
    ``V2`` (not unique when a complement has dimension above 1).

    Written from the equations in ``mpmath``, not from the filter code: the
    output decomposition is built from an ``mpmath`` SVD of H, with the
    feedthrough rank of the float path (``decompose``), and every inverse is
    an ``mpmath`` LU.  For ULISE and CYWZ the state gain takes the
    whitened-complement reduction ``Gamma^T (Gamma r_star Gamma^T)^-1 Gamma``.
    Gamma's rows, ``u^T r_hat^-1/2`` over the ``u`` orthogonal to
    ``r_hat^-1/2 C G2``, span the vectors orthogonal to ``C G2`` whatever
    ``r_hat`` is, and the reduction depends on that span only, so Gamma is
    taken once from an SVD of ``C G2``.  CYWZ's OLS gain is
    ``(C2G2^T C2G2)^-1 C2G2^T``, ``C2 G2`` having full column rank; the
    returned ``M2`` is the GLS gain of the reported input estimate, for
    CYWZ too.

    PLISE carries the feedthrough-input covariance ``pd1`` and its cross
    covariance ``pxd1`` with the state, propagates the joint covariance of
    ``(x, d1, d2)`` through ``[A, G1, G2]``, and reduces ``r_star`` by its
    pseudo-inverse at the float path's rank rule: the singular values above
    ``DEFAULT_TOL.rank_rel`` times the largest count, as in ``lise.linalg.pinv``.

    The float matrices enter exactly; returns three lists, of ``px``, ``M2``
    and ``L`` per step, as object arrays of ``mpf``.
    """
    with mpmath.workdps(dps):
        p_h = decompose(step).p_h
        a, c, g, h, q, r = (mp_array(m) for m in (step.A, step.C, step.G, step.H,
                                                    step.Q, step.R))
        l, p = h.shape
        n = a.shape[0]
        if p_h:
            u, s, v = _mp_svd(h)
        else:
            u, s, v = np.eye(l, dtype=object), [], np.eye(p, dtype=object)
        u1, u2, v1, v2 = u[:, :p_h], u[:, p_h:], v[:, :p_h], v[:, p_h:]
        sigma = np.diag(np.array(s[:p_h], dtype=object))
        si = np.diag(np.array([1 / x for x in s[:p_h]], dtype=object))
        r2 = u2.T @ r @ u2
        t1 = u1.T - u1.T @ r @ u2 @ _mp_inv(r2) @ u2.T
        c1, c2, g1, g2 = t1 @ c, u2.T @ c, g @ v1, g @ v2
        r1 = t1 @ r @ t1.T
        h1 = u1 @ sigma
        ahat = a - g1 @ si @ c1
        qhat = g1 @ si @ r1 @ si.T @ g1.T + q
        c2g2 = c2 @ g2
        cg2 = c @ g2
        n_q = cg2.shape[1]
        gam = (_mp_svd(cg2)[0][:, n_q:] if n_q else np.eye(l, dtype=object)).T
        m2_ols = _mp_inv(c2g2.T @ c2g2) @ c2g2.T
        u2t_r = u2.T @ r
        eye_n, eye_l = np.eye(n, dtype=object), np.eye(l, dtype=object)
        blockmap = np.hstack([a, g1, g2])

        px = mp_array(p0)
        pd1 = si @ (c1 @ px @ c1.T + r1) @ si
        pxd1 = -px @ c1.T @ si
        pxs, m2s, gains_l = [], [], []
        for _ in range(n_steps):
            p_tilde = ahat @ px @ ahat.T + qhat
            r2_tilde = c2 @ p_tilde @ c2.T + r2
            x = _mp_inv(r2_tilde) @ c2g2
            pd2 = _mp_inv(c2g2.T @ x)
            m2 = pd2 @ x.T
            m2_state = m2_ols if variant == "CYWZ" else m2
            g2m2 = g2 @ m2_state
            if variant == "PLISE":
                w2 = c2.T @ m2.T
                pd12 = -pxd1.T @ a.T @ w2 - pd1 @ g1.T @ w2
                pxd2 = -px @ a.T @ w2 - pxd1 @ g1.T @ w2
                joint = np.block([[px, pxd1, pxd2], [pxd1.T, pd1, pd12],
                                  [pxd2.T, pd12.T, pd2]])
                qc = g2m2 @ c2 @ q
                px_star = blockmap @ joint @ blockmap.T + q - qc - qc.T
            else:
                igmc = eye_n - g2m2 @ c2
                px_star = g2m2 @ r2 @ g2m2.T + igmc @ p_tilde @ igmc.T
            cross = c @ g2m2 @ u2t_r
            r_star = c @ px_star @ c.T + r - cross - cross.T
            k_gain = px_star @ c.T - g2m2 @ u2t_r
            if variant == "PLISE":
                r_check = _mp_pinv(r_star, DEFAULT_TOL.rank_rel)
            else:
                r_check = gam.T @ _mp_inv(gam @ r_star @ gam.T) @ gam
            if p_h:
                m1_star = si @ _mp_inv(u1.T @ r_check @ u1) @ u1.T @ r_check
                gain_l = k_gain @ (eye_l - h1 @ m1_star).T @ r_check
            else:
                gain_l = k_gain @ r_check
            ilc = eye_n - gain_l @ c
            noise_cross = ilc @ g2m2 @ u2t_r @ gain_l.T
            px = (noise_cross + noise_cross.T + ilc @ px_star @ ilc.T
                  + gain_l @ r @ gain_l.T)
            if variant == "PLISE":
                pd1 = si @ (c1 @ px_star @ c1.T + r1) @ si
                pxd1 = (-(ilc @ px_star @ c1.T @ si)
                        - gain_l @ r @ u2 @ m2.T @ g2.T @ c1.T @ si)
            pxs.append(px)
            m2s.append(v2 @ m2 @ u2.T)
            gains_l.append(gain_l)
        return pxs, m2s, gains_l
