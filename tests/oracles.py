"""Independent closed-form references used by the unit and acceptance tests.

These are written straight from the special-case equations (no feedthrough;
full-column-rank feedthrough) without reusing the filter implementation, so
they can serve as oracles for it.
"""

import numpy as np

from lise.linalg import DEFAULT_TOL, pinv, psd_sqrt, symmetrize
from lise.signals import sample_signals
from lise.simulate import _run_rng


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


def per_run_truth_oracle(scenario, run_index, tol=DEFAULT_TOL):
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
            fq = psd_sqrt(step.Q, tol)
            fr = psd_sqrt(step.R, tol)
        y[k] = step.C @ x[k] + step.D @ u[k] + step.H @ d[k] + fr @ v_std[k]
        if k < n_steps:
            x[k + 1] = (step.A @ x[k] + step.B @ u[k] + step.G @ d[k]
                        + fq @ w_std[k])
    return x, y, d, u
