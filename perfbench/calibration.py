"""Machine-speed calibration for a benchmark on shared virtual CPUs.

On the machine the bounds were set on (2 vCPUs shared with other tenants),
the speed of the same ``lise`` pass drifts by 15-40 % over seconds to
minutes, within one process as much as between processes.  A fixed kernel of
the same kind of work -- 5-state Kalman-filter steps and a truth-simulation
loop written here with numpy and scipy, no ``lise`` code -- drifts with it
when it runs in short bursts beside the operations being timed.  Single
bursts are noisy, so each operation's factor uses every burst near it.

:class:`Sampler` takes a calibration point before an operation when the last
one is older than ``INTERVAL_S``, once after the last operation, and, from a
timer signal, every ``INTERVAL_S`` while an operation runs; the time spent in
the signal handler is taken out of the operation's time.  Each operation's
measured time is scaled by ``REFERENCE_S / median(burst times)`` over the
bursts within ``WINDOW_S`` of it: the time it would take on this machine when
a burst takes ``REFERENCE_S``.  A change to ``lise`` moves the scaled time as
much as the measured one; a change of machine speed moves only the measured
one.
"""

from __future__ import annotations

import gc
import signal
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

INTERVAL_S = 0.2
WINDOW_S = 1.0
BURSTS_PER_POINT = 3
REFERENCE_S = 4.0e-3     # typical burst time on the machine the bounds were set on
ROUNDS = 20

_A = np.array([[0.5, 0.2, 0.0, 0.0, 0.1],
               [0.0, 0.4, 0.3, 0.0, 0.0],
               [0.1, 0.0, 0.3, 0.2, 0.0],
               [0.0, 0.0, 0.1, 0.6, 0.2],
               [0.0, 0.1, 0.0, 0.0, 0.2]])
_C = np.eye(5)
_Q = 1e-2 * np.eye(5)
_R = 1e-1 * np.eye(5)
_Y = np.ones(5)


@dataclass
class _State:
    x: np.ndarray
    p: np.ndarray


def kernel(rounds: int = ROUNDS) -> _State:
    """Fixed work with the operation mix of ``lise``: Kalman-filter steps and
    a truth-simulation loop over 5-vectors."""
    s = _State(np.zeros(5), np.eye(5))
    for _ in range(rounds):
        pp = _A @ s.p @ _A.T + _Q
        r = _C @ pp @ _C.T + _R
        r = 0.5 * (r + r.T)
        gain = scipy.linalg.cho_solve(scipy.linalg.cho_factor(r), _C @ pp).T
        np.linalg.svd(gain, compute_uv=False)
        ilc = np.eye(5) - gain @ _C
        p = ilc @ pp @ ilc.T + gain @ _R @ gain.T
        xpred = _A @ s.x
        s = _State(xpred + gain @ (_Y - _C @ xpred), 0.5 * (p + p.T))
        block = np.block([[s.p, pp], [pp.T, s.p]])
        np.linalg.pinv(block[:5, :5])
    x = np.zeros((rounds * 4 + 1, 5))
    y = np.zeros((rounds * 4 + 1, 5))
    for k in range(rounds * 4):
        y[k] = _C @ x[k] + _R @ _Y
        x[k + 1] = _A @ x[k] + _Q @ _Y
    return s


def burst() -> float:
    """Seconds one :func:`kernel` call takes now, with garbage collection
    held off so that collecting the program's own garbage is not counted."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def point(bursts: int = BURSTS_PER_POINT) -> list:
    """Burst times of one calibration point; a first, discarded burst warms
    the caches the timed operation left cold."""
    burst()
    return [burst() for _ in range(bursts)]


class Sampler:
    """Calibration bursts of one pass, between its operations and, with
    ``during_ops``, during them; and the operations' measured intervals."""

    def __init__(self, during_ops: bool = True):
        self.during_ops = during_ops
        self.burst_at: list = []        # (time, seconds) of every burst
        self.op_at: list = []           # (start, end, seconds) of every operation
        self._last_point = -float("inf")
        self._handled: list = []        # (start, seconds) of each signal-handler run

    def _point(self, bursts: int = BURSTS_PER_POINT):
        for b in point(bursts):
            self.burst_at.append((time.perf_counter(), b))

    def before_op(self):
        if time.perf_counter() - self._last_point >= INTERVAL_S:
            self._point()
            self._last_point = time.perf_counter()

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self._point(1)
        self._handled.append((t0, time.perf_counter() - t0))

    def timed(self, fn, *args):
        """``(result or exception, seconds)`` of ``fn(*args)`` with the
        signal handler's time inside that interval taken out."""
        if self.during_ops:
            old = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # reported by the caller as a failed operation
            result = exc
        t1 = time.perf_counter()
        if self.during_ops:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)
        seconds = t1 - t0 - sum(d for s, d in self._handled if t0 <= s < t1)
        self._handled.clear()
        self.op_at.append((t0, t1, seconds))
        return result, seconds

    def scaled(self) -> np.ndarray:
        """Close the pass with a last point; every operation's scaled time."""
        self._point()
        times = np.array([t for t, _ in self.burst_at])
        bursts = np.array([b for _, b in self.burst_at])
        out = np.empty(len(self.op_at))
        for i, (t0, t1, seconds) in enumerate(self.op_at):
            lo = np.searchsorted(times, t0 - WINDOW_S)
            hi = np.searchsorted(times, t1 + WINDOW_S, side="right")
            out[i] = seconds * REFERENCE_S / np.median(bursts[lo:hi])
        return out
