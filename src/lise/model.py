"""Linear discrete-time system models with unknown inputs.

A system step bundles the eight matrices of

    x[k+1] = A x[k] + B u[k] + G d[k] + w[k],    w ~ (0, Q)
    y[k]   = C x[k] + D u[k] + H d[k] + v[k],    v ~ (0, R)

where ``u`` is a known input and ``d`` an unknown one that may act on the
dynamics (through G), on the measurement (through H), or both.  Models are
either time-invariant (one fixed step) or time-varying (a pure provider
function of the step index).  A time-varying model remembers the last step
its provider built, so callers that ask for the same k in turn (filters run
side by side, one k at a time) share one step object and one call.
:func:`lise.simulate.run_scenario` asks the provider once per k, whatever
the number of filters: its validation, truth and filter passes share each
step object.  Continuous-time models are converted with a zero-order hold on
both known and unknown inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InvalidInputError, NotPositiveDefiniteError
from .linalg import expm, rank, symmetrize

__all__ = [
    "SystemStep",
    "SystemModel",
    "ContinuousModel",
    "Violation",
    "validate",
    "c2d_zoh",
]


def _mat(value, rows: int | None, cols: int | None, name: str) -> np.ndarray:
    """``value`` as a read-only float64 2-D array of the given shape.

    An array that is already read-only float64 and owns its data (such as
    the matrices of another step) is taken as is; anything else is copied,
    so that no later write to the input reaches the result.
    """
    if (type(value) is np.ndarray and value.dtype == np.float64 and value.base is None
            and not value.flags.writeable):
        a = value
    else:
        a = np.array(value, dtype=float)
    if a.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got shape {a.shape}")
    if rows is not None and a.shape[0] != rows:
        raise InvalidInputError(f"{name} must have {rows} rows, got {a.shape[0]}")
    if cols is not None and a.shape[1] != cols:
        raise InvalidInputError(f"{name} must have {cols} columns, got {a.shape[1]}")
    a.setflags(write=False)
    return a


# the eight matrices of a system step
_MATRICES = ("A", "B", "C", "D", "G", "H", "Q", "R")


@dataclass(frozen=True, eq=False)
class SystemStep:
    """One time slice of the system matrices.

    Shape consistency is enforced at construction; semantic assumptions
    (definiteness, dimension ordering, rank of the stacked input map) are
    checked by :func:`validate`, which reports violations as data.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    G: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        a = _mat(self.A, None, None, "A")
        n = a.shape[0]
        if a.shape[1] != n:
            raise InvalidInputError(f"A must be square, got {a.shape}")
        b = _mat(self.B, n, None, "B")
        c = _mat(self.C, None, n, "C")
        l = c.shape[0]
        d = _mat(self.D, l, b.shape[1], "D")
        g = _mat(self.G, n, None, "G")
        h = _mat(self.H, l, g.shape[1], "H")
        q = _mat(self.Q, n, n, "Q")
        r = _mat(self.R, l, l, "R")
        for name, val in zip(_MATRICES, (a, b, c, d, g, h, q, r)):
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.G.shape[1]

    @property
    def l(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Time-invariant or time-varying system.

    A model has exactly one of a ``fixed`` step, whose dims must be ``(n,
    m, p, l)``, and a ``provider``; anything else raises
    :class:`InvalidInputError` at construction.  Time-varying models are
    supplied as a deterministic provider ``k -> SystemStep`` so the whole
    horizon never needs to be materialized.  :meth:`step` keeps
    the last step the provider returned, with its k, and hands that object
    out again while the same k is asked for; being deterministic, the
    provider would have built an equal step.  ``horizon_hint`` (time-varying
    models only) is the last k that :func:`validate` checks.
    """

    n: int
    m: int
    p: int
    l: int
    fixed: Optional[SystemStep] = None
    provider: Optional[Callable[[int], SystemStep]] = None
    horizon_hint: Optional[int] = None
    # (k, step) of the last provider call
    _last: Optional[tuple] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if (self.fixed is None) == (self.provider is None):
            raise InvalidInputError("a model needs exactly one of a fixed step and a provider")
        s, dims = self.fixed, (self.n, self.m, self.p, self.l)
        if s is not None and (s.n, s.m, s.p, s.l) != dims:
            raise InvalidInputError(f"fixed step has dims {(s.n, s.m, s.p, s.l)}, expected {dims}")

    @classmethod
    def time_invariant(cls, step: SystemStep) -> "SystemModel":
        return cls(step.n, step.m, step.p, step.l, fixed=step)

    @classmethod
    def time_varying(cls, provider: Callable[[int], SystemStep],
                     dims: tuple[int, int, int, int],
                     horizon_hint: int | None = None) -> "SystemModel":
        n, m, p, l = dims
        return cls(n, m, p, l, provider=provider, horizon_hint=horizon_hint)

    @property
    def is_time_invariant(self) -> bool:
        return self.fixed is not None

    def step(self, k: int) -> SystemStep:
        """The system step at time ``k``.

        A time-varying model calls its provider only when ``k`` differs from
        the k of the previous call, and otherwise returns the same step
        object again; a step whose dims do not match is not remembered.
        """
        if self.fixed is not None:
            return self.fixed
        last = self._last
        if last is not None and last[0] == k:
            return last[1]
        s = self.provider(k)
        if (s.n, s.m, s.p, s.l) != (self.n, self.m, self.p, self.l):
            raise InvalidInputError(
                f"provider returned dims {(s.n, s.m, s.p, s.l)} at k={k}, "
                f"expected {(self.n, self.m, self.p, self.l)}"
            )
        object.__setattr__(self, "_last", (k, s))
        return s


@dataclass(frozen=True)
class Violation:
    """One violated model assumption; ``index`` is the offending step."""

    index: Optional[int]
    field: str
    message: str


def validate(model: SystemModel) -> list[Violation]:
    """Check every model assumption; empty list means valid.

    A time-invariant model is checked at k = 0, a time-varying one at
    k = 0..``horizon_hint`` (k = 0 alone without a hint).  Whether a step's matrices are finite, its Q symmetric PSD and its R
    symmetric, positive definite and well conditioned is the verdict of the
    step's context (:class:`lise.decomposition.StepContext`), built along
    the range as a filter builds it: Q and R are judged again only where
    they change, and the filters then read the same contexts for the same
    step objects.  Added here are the dims check and the standing rank
    requirement that ``[G; H]`` reaches rank p at some step checked,
    computed again only where G or H changes (and not for a non-finite G or
    H, which is reported as such).  A step that repeats the previous one's
    matrices reports the same violations under its own k.
    """
    from .decomposition import _judged, _NonFiniteMatrix, _same  # it imports this module

    violations: list[Violation] = []
    best_stack_rank, prev = 0, None
    for k in range(1 if model.is_time_invariant else (model.horizon_hint or 0) + 1):
        step = model.step(k)
        faults = _judged(step, prev)[0]
        cut = sum(isinstance(exc, _NonFiniteMatrix) for _, exc in faults)
        violations += [Violation(k, name, str(exc)) for name, exc in faults[:cut]]
        n, p, l = step.n, step.p, step.l
        if not (n >= l >= 1):
            violations.append(Violation(k, "dims", f"need n >= l >= 1, got n={n}, l={l}"))
        if not (l >= p >= 0):
            violations.append(Violation(k, "dims", f"need l >= p >= 0, got l={l}, p={p}"))
        violations += [Violation(k, name, "R not PD" if name == "R" and isinstance(
            exc, NotPositiveDefiniteError) else str(exc)) for name, exc in faults[cut:]]
        nonfinite = {name for name, _ in faults[:cut]}
        repeat = prev is not None and _same(step.G, prev.G) and _same(step.H, prev.H)
        if not (repeat or nonfinite & {"G", "H"}):
            best_stack_rank = max(best_stack_rank, rank(np.vstack([step.G, step.H])))
        prev = step
    if best_stack_rank != model.p:
        violations.append(Violation(
            None, "G/H",
            f"max_k rank([G; H]) = {best_stack_rank} != p = {model.p}; "
            "drop linearly dependent unknown-input columns",
        ))
    return violations


@dataclass(frozen=True, eq=False)
class ContinuousModel:
    """Continuous-time model with noise intensities, sampled every ``dt`` seconds."""

    A: np.ndarray
    B: np.ndarray
    G: np.ndarray
    C: np.ndarray
    D: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    dt: float

    def __post_init__(self):
        # the shape rules of a discrete step
        step = SystemStep(**{name: getattr(self, name) for name in _MATRICES})
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise InvalidInputError(f"dt must be positive and finite, got {self.dt}")
        for name in _MATRICES:
            object.__setattr__(self, name, getattr(step, name))


def _zoh_input(a_c: np.ndarray, b_c: np.ndarray, dt: float) -> np.ndarray:
    """Integral of exp(A s) B over one sample, via the augmented exponential."""
    n, m = b_c.shape
    if m == 0:
        return np.zeros((n, 0))
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = a_c
    aug[:n, n:] = b_c
    return expm(aug * dt)[:n, n:]


def c2d_zoh(cm: ContinuousModel) -> SystemModel:
    """Discretize with a zero-order hold on the known and unknown inputs.

    The process-noise covariance comes from the standard augmented-exponential
    construction for sampled continuous noise.  The measurement covariance
    passes through unchanged (``R_d = R``).
    """
    n = cm.A.shape[0]
    a_d = expm(cm.A * cm.dt)
    b_d = _zoh_input(cm.A, cm.B, cm.dt)
    g_d = _zoh_input(cm.A, cm.G, cm.dt)
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = -cm.A
    aug[:n, n:] = cm.Q
    aug[n:, n:] = cm.A.T
    phi = expm(aug * cm.dt)
    q_d = symmetrize(phi[n:, n:].T @ phi[:n, n:])
    step = SystemStep(A=a_d, B=b_d, C=cm.C, D=cm.D, G=g_d, H=cm.H, Q=q_d, R=cm.R)
    return SystemModel.time_invariant(step)
