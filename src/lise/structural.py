"""Executable structural tests: strong observability, strong detectability,
and the convergence/boundedness certificates of the two filter variants.

All verdicts carry witnesses (achieved ranks, offending frequencies or zeros)
so a failed test is diagnosable.  The tests in this module apply to
time-invariant systems except for the windowed observability test, which
accepts time-varying models.  Uniform detectability/stabilizability tests for
general time-varying systems are out of scope.

Every test reads a step's decomposition and its decoupled dynamics
``(Ahat, Qhat)`` from the step's context
(:class:`~lise.decomposition.StepContext`), the one the filters read, so a
step object's constants are formed once however many tests read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .decomposition import _pair_context, _step_context
from .errors import InvalidInputError, NotPositiveDefiniteError
from .linalg import DEFAULT_TOL, Tolerance, _norm, _sv_rank, psd_sqrt, rank, symmetrize
from .model import SystemModel, SystemStep

__all__ = [
    "ObservabilityMatrices",
    "RankCheck",
    "TvObservabilityVerdict",
    "TiObservabilityVerdict",
    "InvariantZeros",
    "DetectabilityVerdict",
    "UnitCircleTest",
    "CertificateVerdict",
    "StructuralReport",
    "build_observability_matrices",
    "strong_observability_tv",
    "strong_observability_ti",
    "invariant_zeros",
    "strong_detectability",
    "ulise_convergence_check",
    "plise_stability_check",
    "analyze",
]


@dataclass(frozen=True)
class RankCheck:
    achieved: int
    required: int

    @property
    def ok(self) -> bool:
        return self.achieved == self.required


@dataclass(frozen=True)
class ObservabilityMatrices:
    """Stacked observability/invertibility matrices over a window of length r.

    ``o2`` stacks the feedthrough-free output maps of the decoupled dynamics;
    ``i22`` is the block-lower-triangular map from the dynamics-only input
    history into the same outputs.  ``row_offsets``/``col_offsets`` delimit
    the per-step blocks (r+1 row blocks, r column blocks).
    """

    r: int
    o2: np.ndarray
    i22: np.ndarray
    row_offsets: list[int]
    col_offsets: list[int]
    ahat: list[np.ndarray]
    p_h: list[int]


def build_observability_matrices(model: SystemModel, r: int,
                                 tol: Tolerance = DEFAULT_TOL) -> ObservabilityMatrices:
    """Assemble the window-r observability and invertibility matrices."""
    if r < 0:
        raise InvalidInputError("window length r must be nonnegative")
    n, p, l = model.n, model.p, model.l
    steps = [model.step(k) for k in range(r + 1)]
    ctxs = [_step_context(s, tol, steps[k - 1] if k else None) for k, s in enumerate(steps)]
    decs = [c.dec for c in ctxs]
    ahat = [c.ahat for c in ctxs]
    p_h = [d.p_h for d in decs]

    row_sizes = [l - ph for ph in p_h]
    col_sizes = [p - ph for ph in p_h[:r]]
    row_offsets = list(np.cumsum([0] + row_sizes))
    col_offsets = list(np.cumsum([0] + col_sizes))

    o2 = np.zeros((row_offsets[-1], n))
    prod = np.eye(n)            # ahat[k-1] @ ... @ ahat[0]
    for k in range(r + 1):
        o2[row_offsets[k]:row_offsets[k + 1]] = decs[k].C2 @ prod
        if k < r:
            prod = ahat[k] @ prod

    i22 = np.zeros((row_offsets[-1], col_offsets[-1]))
    for j in range(r):
        # column block j: G2[j] propagated by ahat[j+1..k-1] into C2[k]
        carry = decs[j].G2
        for k in range(j + 1, r + 1):
            i22[row_offsets[k]:row_offsets[k + 1], col_offsets[j]:col_offsets[j + 1]] = (
                decs[k].C2 @ carry
            )
            if k < r:
                carry = ahat[k] @ carry
    return ObservabilityMatrices(r=r, o2=o2, i22=i22, row_offsets=row_offsets,
                                 col_offsets=col_offsets, ahat=ahat, p_h=p_h)


@dataclass(frozen=True)
class TvObservabilityVerdict:
    """Windowed joint state/input observability over r steps."""

    observable: bool
    combined: RankCheck
    window_ok: bool
    r0: Optional[int]
    o2_rank: RankCheck
    column_ranks: list[RankCheck]
    matrices: ObservabilityMatrices


def strong_observability_tv(model: SystemModel, r: int,
                            tol: Tolerance = DEFAULT_TOL) -> TvObservabilityVerdict:
    """Joint state and unknown-input observability over a finite window.

    The verdict is the combined-matrix rank test; the necessary conditions
    (window length bound, full-rank observability block, full-rank invertibility
    columns) are reported alongside as witnesses.  The invertibility-column
    check runs for column blocks 1..r (the block for step 0 does not exist in
    the stacked matrix).
    """
    n, p, l = model.n, model.p, model.l
    mats = build_observability_matrices(model, r, tol)
    required = n + r * p - int(np.sum(mats.p_h[:r]))
    combined = RankCheck(rank(np.hstack([mats.o2, mats.i22]), tol), required)

    p_h_r = mats.p_h[r]
    if l != p:
        r0 = int(np.ceil((n - l - p_h_r) / (l - p)))
        window_ok = (r >= r0) and (l >= p + 1)
    else:
        r0 = None
        window_ok = (l == p == n) and (p_h_r == 0)
    o2_rank = RankCheck(rank(mats.o2, tol), n)
    column_ranks = []
    for j in range(1, r + 1):
        block = mats.i22[:, mats.col_offsets[j - 1]:mats.col_offsets[j]]
        column_ranks.append(RankCheck(rank(block, tol), p - mats.p_h[j - 1]))
    return TvObservabilityVerdict(
        observable=combined.ok, combined=combined, window_ok=window_ok, r0=r0,
        o2_rank=o2_rank, column_ranks=column_ranks, matrices=mats,
    )


@dataclass(frozen=True)
class TiObservabilityVerdict:
    observable: bool
    witness_window: Optional[int]
    ranks: list[tuple[int, RankCheck]]


def strong_observability_ti(model: SystemModel,
                            tol: Tolerance = DEFAULT_TOL) -> TiObservabilityVerdict:
    """Time-invariant joint observability: scan windows 0..n for a full-rank hit.

    The matrices are built once, for window n: those of window ``nt`` are
    their leading blocks, the rows of steps 0..nt and the input columns of
    steps 0..nt-1.
    """
    if not model.is_time_invariant:
        raise InvalidInputError("time-invariant observability test needs a fixed model")
    n, p = model.n, model.p
    mats = build_observability_matrices(model, n, tol)
    p_h = mats.p_h[0]
    ranks = []
    witness = None
    for nt in range(n + 1):
        rows, cols = mats.row_offsets[nt + 1], mats.col_offsets[nt]
        chk = RankCheck(rank(np.hstack([mats.o2[:rows], mats.i22[:rows, :cols]]), tol),
                        n + nt * (p - p_h))
        ranks.append((nt, chk))
        if chk.ok and witness is None:
            witness = nt
    return TiObservabilityVerdict(observable=witness is not None,
                                  witness_window=witness, ranks=ranks)


@dataclass(frozen=True)
class InvariantZeros:
    """Finite zeros of the system pencil after decoupling the feedthrough.

    ``method`` records how they were computed: ``"pencil"`` finds the points
    where the decoupled pencil loses column rank (squared down with two
    independent random projections, then each candidate confirmed by a direct
    rank test); ``"decoupled_spectrum"`` applies when the feedthrough has full
    column rank, where the unknown input is recovered instantly from the
    current output and the zero-output state dynamics is exactly the
    decoupled matrix, whose whole spectrum is reported (a conservative
    superset of the pencil rank-drop points).
    """

    zeros: np.ndarray
    method: str
    normal_rank: Optional[int] = None


def _pencil(step: SystemStep, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    ctx = _step_context(step, tol)
    dec = ctx.dec
    n = step.n
    rows = n + dec.C2.shape[0]
    cols = n + dec.G2.shape[1]
    e = np.zeros((rows, cols))
    e[:n, :n] = np.eye(n)
    f = np.zeros((rows, cols))
    f[:n, :n] = ctx.ahat
    f[:n, n:] = dec.G2
    f[n:, :n] = -dec.C2
    return e, f


def invariant_zeros(step: SystemStep, tol: Tolerance = DEFAULT_TOL) -> InvariantZeros:
    """Invariant zeros of a time-invariant step.

    Multiplicity is respected (each zero appears as often as both projected
    spectra agree on it).  Kronecker staircase extraction is deliberately
    avoided; random squaring-down plus rank confirmation is exact with
    probability one and cheap at these sizes.
    """
    ctx = _step_context(step, tol)
    if step.p > 0 and step.p == ctx.dec.p_h:
        zs = np.linalg.eigvals(ctx.ahat) if step.n else np.zeros(0, dtype=complex)
        return InvariantZeros(zeros=np.sort_complex(zs), method="decoupled_spectrum")

    e, f = _pencil(step, tol)
    rows, cols = e.shape
    rng = np.random.default_rng(0xC0FFEE)

    def numeric_rank(z: complex, rel: float) -> int:
        return _sv_rank(np.linalg.svd(z * e - f, compute_uv=False), rel)

    probes = rng.standard_normal(4) * 0.7 + 1.1 + 1j * rng.standard_normal(4)
    normal_rank = max(numeric_rank(z, tol.rank_rel) for z in probes)

    def projected_spectrum() -> np.ndarray:
        w = rng.standard_normal((cols, rows))
        try:
            with np.errstate(over="raise"):
                wf = w @ f
            alpha, beta = scipy.linalg.eig(wf, w @ e, right=False, homogeneous_eigvals=True)
        except (FloatingPointError, np.linalg.LinAlgError) as exc:
            # a projection that overflows, or a QZ that does not converge
            raise InvalidInputError(f"invariant zeros test: the projected system pencil "
                                    f"has no generalized eigenvalues: {exc}") from None
        scale = max(np.max(np.abs(alpha)), np.max(np.abs(beta)), 1.0)
        keep = np.abs(beta) > tol.rank_rel * scale
        return alpha[keep] / beta[keep]

    cand_a = projected_spectrum()
    cand_b = projected_spectrum()
    confirm_rel = max(tol.rank_rel, 1e-8)
    zeros: list[complex] = []
    used = np.zeros(cand_b.shape, dtype=bool)
    for z in cand_a:
        if not cand_b.size:
            break
        dist = np.abs(cand_b - z)
        dist[used] = np.inf
        j = int(np.argmin(dist))
        if dist[j] < 1e-7 * max(1.0, abs(z)) and numeric_rank(z, confirm_rel) < normal_rank:
            zeros.append(z)
            used[j] = True
    return InvariantZeros(zeros=np.sort_complex(np.array(zeros, dtype=complex)),
                          method="pencil", normal_rank=normal_rank)


@dataclass(frozen=True)
class DetectabilityVerdict:
    detectable: bool
    zeros: InvariantZeros
    max_zero_modulus: float


def strong_detectability(step: SystemStep, tol: Tolerance = DEFAULT_TOL) -> DetectabilityVerdict:
    """Minimum-phase test: every invariant zero strictly inside the unit circle."""
    zs = invariant_zeros(step, tol)
    max_mod = float(np.max(np.abs(zs.zeros))) if zs.zeros.size else 0.0
    return DetectabilityVerdict(
        detectable=max_mod < 1.0 - tol.unit_circle_eps,
        zeros=zs, max_zero_modulus=max_mod,
    )


@dataclass(frozen=True)
class UnitCircleTest:
    """Outcome of a certificate's rank test on the unit circle.

    ``min_sigma`` is the smallest tested singular value and ``worst_omega``
    the angle where it occurs, both ``None`` when no point was tested;
    ``threshold`` is the value a point's singular value must reach.
    """

    ok: bool
    min_sigma: Optional[float]
    worst_omega: Optional[float]
    threshold: float


@dataclass(frozen=True)
class CertificateVerdict:
    """Outcome of a convergence/boundedness certificate.

    ``status`` is ``"ok"``, ``"failed"`` (a condition is violated, see the
    witnesses) or ``"precondition_failed"`` (the certificate does not apply;
    see ``reason``).
    """

    status: str
    detectability: Optional[DetectabilityVerdict] = None
    circle: Optional[UnitCircleTest] = None
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _circle_scan(f: np.ndarray, e: np.ndarray, candidates: np.ndarray,
                 tol: Tolerance) -> UnitCircleTest:
    """Row-rank test of the pencil ``F + z E`` on the unit circle.

    The pencil can lose row rank on the circle only at an eigenvalue of the
    dynamics (see the certificates), so it is tested at ``e^{j angle(lam)}``
    for each candidate eigenvalue ``lam`` within ``max(unit_circle_eps,
    1e-3)`` of the circle, on the circle rather than at ``lam``; with no
    candidate in that band nothing is tested and the test passes.  A point
    passes when the pencil has as many singular values there as rows, all at
    least ``rank_rel (||F||_2 + ||E||_2)``, a bound on its largest singular
    value anywhere on the circle, so a pencil that is zero at a point up to
    roundoff fails there.
    """
    threshold = tol.rank_rel * float(np.linalg.norm(f, 2) + np.linalg.norm(e, 2))
    near = np.abs(np.abs(candidates) - 1.0) <= max(tol.unit_circle_eps, 1e-3)
    omegas = np.angle(candidates[near]) % (2.0 * np.pi)
    if not omegas.size:
        return UnitCircleTest(ok=True, min_sigma=None, worst_omega=None, threshold=threshold)
    pencils = f + np.exp(1j * omegas)[:, None, None] * e
    sigma = np.linalg.svd(pencils, compute_uv=False)[:, f.shape[0] - 1]
    worst = int(np.argmin(sigma))
    return UnitCircleTest(ok=bool(sigma[worst] >= threshold), min_sigma=float(sigma[worst]),
                          worst_omega=float(omegas[worst]), threshold=threshold)


def _c2g2_precondition(step: SystemStep, tol: Tolerance):
    """The step's context, the context of its self pair (``C2 G2``, its
    rank and its pseudoinverse, shared with the filters' steps on this
    decomposition), and the verdict of a failed ``rank(C2 G2) = p - rank(H)``
    precondition (``None`` when it holds), which both filter certificates
    require."""
    ctx = _step_context(step, tol)
    pair = _pair_context(ctx.dec, ctx.dec, tol)
    need = step.p - ctx.dec.p_h
    failed = None if pair.rank == need else CertificateVerdict(
        status="precondition_failed",
        reason=f"rank(C2 G2) = {pair.rank} != p - rank(H) = {need}",
    )
    return ctx, pair, failed


def ulise_convergence_check(step: SystemStep,
                            tol: Tolerance = DEFAULT_TOL) -> CertificateVerdict:
    """Necessary and sufficient certificate for the updated-variant gains to
    converge to a unique stationary solution (time-invariant case).

    Requires strong detectability plus full row rank of the filter-dynamics
    controllability pencil on the whole unit circle.  Because the measurement
    noise block is PD, a rank drop at ``e^{j w}`` forces a left eigenvector of
    the decoupled dynamics at that frequency (a PBH test), so the pencil is
    tested at the eigenvalues of A-hat on the circle only.
    """
    ctx, _, failed = _c2g2_precondition(step, tol)
    if failed is not None:
        return failed
    det = strong_detectability(step, tol)
    dec, ahat = ctx.dec, ctx.ahat
    n = step.n
    # the pencil [[A^ - z I, G2, Q^1/2, 0], [z C2, 0, 0, R2^1/2]] = F + z E
    f = scipy.linalg.block_diag(np.hstack([ahat, dec.G2, psd_sqrt(ctx.qhat, tol)]),
                                psd_sqrt(dec.R2, tol))
    e = np.zeros(f.shape)
    e[:, :n] = np.vstack([-np.eye(n), dec.C2])
    circle = _circle_scan(f, e, np.linalg.eigvals(ahat), tol)
    status = "ok" if (det.detectable and circle.ok) else "failed"
    return CertificateVerdict(status=status, detectability=det, circle=circle)


def plise_stability_check(step: SystemStep,
                          tol: Tolerance = DEFAULT_TOL) -> CertificateVerdict:
    """Sufficient certificate for bounded errors and covariances of the
    propagated variant (time-invariant case).

    Built on a simplified fixed-gain companion of the filter: the test fails
    the precondition when the companion's noise coupling matrix is singular
    or its equivalent process noise is indefinite.  The pencil
    ``[zI - F_s, Q_s^1/2]`` loses row rank only at an eigenvalue of ``F_s``
    (a PBH test), so it is tested at those on the circle only.
    """
    ctx, pair, failed = _c2g2_precondition(step, tol)
    if failed is not None:
        return failed
    dec, ahat, qhat = ctx.dec, ctx.ahat, ctx.qhat
    c2g2, m2t = pair.c2g2, pair.c2g2_pinv
    theta = symmetrize(dec.R2 - c2g2 @ m2t @ dec.R2 - dec.R2 @ m2t.T @ c2g2.T)
    if theta.size:
        s = np.linalg.svd(theta, compute_uv=False)
        if _sv_rank(s, tol.rank_rel) < s.size:
            return CertificateVerdict(status="precondition_failed",
                                      reason="noise coupling matrix Theta is singular")
        theta_inv = np.linalg.inv(theta)
    else:
        theta_inv = theta
    n = step.n
    n_hat = np.eye(n) - dec.G2 @ m2t @ dec.C2
    s_hat = -n_hat @ ahat @ dec.G2 @ m2t @ dec.R2
    f_s = n_hat @ ahat - s_hat @ theta_inv @ dec.C2
    q_s = symmetrize(dec.G2 @ m2t @ dec.R2 @ m2t.T @ dec.G2.T
                     + n_hat @ qhat @ n_hat.T - s_hat @ theta_inv @ s_hat.T)
    # q_s sums terms of the scale of Q-hat and R2, whose rounding can leave
    # an eigenvalue of the exactly PSD q_s that far below zero; and N-hat
    # moves an eigenvalue of Q that the step rule admits below zero (down to
    # -zero_abs max(1, max|Q|)) by up to ||N-hat||^2 times as much
    q_max = float(np.max(np.abs(qhat)))
    scale = max(q_max, float(np.max(np.abs(dec.R2), initial=0.0)),
                _norm(n_hat) ** 2 * max(1.0, q_max))
    try:
        q_s_half = psd_sqrt(q_s, tol, scale)
    except NotPositiveDefiniteError:
        return CertificateVerdict(status="precondition_failed",
                                  reason="equivalent process noise is indefinite")
    det = strong_detectability(step, tol)

    # the pencil [z I - F_s, Q_s^1/2] = F + z E
    f = np.hstack([-f_s, q_s_half])
    circle = _circle_scan(f, np.eye(*f.shape), np.linalg.eigvals(f_s), tol)
    status = "ok" if (det.detectable and circle.ok) else "failed"
    return CertificateVerdict(status=status, detectability=det, circle=circle)


@dataclass
class StructuralReport:
    """Verdicts and witnesses of the structural tests for one system."""

    strongly_observable: TiObservabilityVerdict
    strongly_detectable: DetectabilityVerdict
    invariant_zeros: InvariantZeros
    ulise_convergent: CertificateVerdict
    plise_bounded: CertificateVerdict

    def to_dict(self) -> dict:
        """Plain-types rendering for serialization (report files, CSV)."""
        zs = [
            {"re": float(z.real), "im": float(z.imag), "modulus": float(abs(z))}
            for z in self.invariant_zeros.zeros
        ]
        out = {
            "strongly_observable": bool(self.strongly_observable.observable),
            "observability_witness_window": self.strongly_observable.witness_window,
            "strongly_detectable": bool(self.strongly_detectable.detectable),
            "max_zero_modulus": float(self.strongly_detectable.max_zero_modulus),
            "invariant_zeros": zs,
            "zero_method": self.invariant_zeros.method,
            "ulise_convergent": self.ulise_convergent.status,
            "plise_bounded": self.plise_bounded.status,
        }
        for name, cert in (("ulise", self.ulise_convergent), ("plise", self.plise_bounded)):
            if cert.circle is not None and cert.circle.min_sigma is not None:
                out[f"{name}_circle_min_sigma"] = cert.circle.min_sigma
            if cert.reason:
                out[f"{name}_reason"] = cert.reason
        return out


def analyze(model: SystemModel, tol: Tolerance = DEFAULT_TOL) -> StructuralReport:
    """Run the full battery of time-invariant structural tests on a model."""
    if not model.is_time_invariant:
        raise InvalidInputError("structural report requires a time-invariant model")
    step = model.step(0)
    obs = strong_observability_ti(model, tol)
    det = strong_detectability(step, tol)
    return StructuralReport(
        strongly_observable=obs,
        strongly_detectable=det,
        invariant_zeros=det.zeros,
        ulise_convergent=ulise_convergence_check(step, tol),
        plise_bounded=plise_stability_check(step, tol),
    )
