"""Bundled benchmark systems used by the test suite, the example configs,
and the experiment scripts.

``fault_system`` returns one of six fault-identification benchmarks: a fixed
five-state plant where three fault channels enter the dynamics through a
fixed input map while six different feedthrough matrices (indices 1..6) vary
how the faults leak into the measurements, from rank-deficient feedthrough to
full rank.  ``vehicle_tracking_model`` is a two-vehicle tracking problem in
continuous time: the second vehicle's control is known, the first vehicle's
input is unknown, and one velocity channel carries an unknown time-varying
measurement bias through the feedthrough.
"""

from __future__ import annotations

import numpy as np

from .filters import GammaPolicy
from .model import ContinuousModel, SystemModel, SystemStep, c2d_zoh
from .signals import Constant, Ramp, Samples, SignalSpec, SquareWave, Step
from .simulate import Scenario

__all__ = [
    "fault_system",
    "fault_d_signals",
    "fault_scenario",
    "vehicle_tracking_model",
    "vehicle_d_signals",
    "vehicle_scenario",
]

_FAULT_A = np.array([
    [0.5, 2.0, 0.0, 0.0, 0.0],
    [0.0, 0.2, 1.0, 0.0, 1.0],
    [0.0, 0.0, 0.3, 0.0, 1.0],
    [0.0, 0.0, 0.0, 0.7, 1.0],
    [0.0, 0.0, 0.0, 0.0, 0.1],
])
_FAULT_G = np.array([
    [1.0, 0.0, -0.3],
    [1.0, 0.0, 0.0],
    [0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0],
])
_FAULT_Q = 1e-4 * np.array([
    [1.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.5, 0.0, 0.0],
    [0.0, 0.5, 1.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 1.0],
])
_FAULT_R = 1e-2 * np.array([
    [1.0, 0.0, 0.0, 0.5, 0.0],
    [0.0, 1.0, 0.0, 0.0, 0.3],
    [0.0, 0.0, 1.0, 0.0, 0.0],
    [0.5, 0.0, 0.0, 1.0, 0.0],
    [0.0, 0.3, 0.0, 0.0, 1.0],
])

_FAULT_H = {
    1: [[0, 0, 1], [0, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 0]],
    2: [[0, 0, 1], [0, 0, 0], [0, 1, 0], [0, 0, 0], [1, 0, 0]],
    3: [[0, 0, 0], [0, 0, 0], [0, 1, 0], [0, 0, 0], [1, 0, 0]],
    4: [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 0]],
    5: [[0, 0, 0], [0, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]],
    6: [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]],
}


def fault_system(index: int) -> SystemModel:
    """Fault-identification benchmark with feedthrough variant 1..6."""
    if index not in _FAULT_H:
        raise ValueError(f"fault benchmark index must be 1..6, got {index}")
    step = SystemStep(
        A=_FAULT_A, B=np.zeros((5, 1)), C=np.eye(5), D=np.zeros((5, 1)),
        G=_FAULT_G, H=np.array(_FAULT_H[index], dtype=float),
        Q=_FAULT_Q, R=_FAULT_R,
    )
    return SystemModel.time_invariant(step)


def fault_d_signals() -> list[SignalSpec]:
    """The three benchmark fault signals.

    Channel 1: unit step over [500, 700].  Channel 2: ramp reaching 1 at
    k = 800.  Channel 3: amplitude-3 square wave on [500, 799] switching
    every 50 steps, positive first.
    """
    return [
        Step(amplitude=1.0, k_on=500, k_off=700),
        Ramp(slope=1.0 / 700.0, k_on=100, k_off=800),
        SquareWave(amplitude=3.0, half_period=50, k_on=500, k_off=799),
    ]


def fault_scenario(index: int, horizon: int = 1000, seed: int = 20260810,
                   filters=("CYWZ", "ULISE", "PLISE"), monte_carlo: int = 1,
                   gamma: GammaPolicy = GammaPolicy.DAROUACH,
                   structural_checks: bool = True) -> Scenario:
    model = fault_system(index)
    return Scenario(
        model=model, horizon=horizon,
        d_signals=fault_d_signals(),
        u_signals=[Constant(0.0)],
        x0_true=np.zeros(5), x0_mean=np.zeros(5), p0=np.eye(5),
        noise_seed=seed, filters=filters, monte_carlo=monte_carlo,
        gamma=gamma, structural_checks=structural_checks,
    )


def vehicle_tracking_model(dt: float = 0.01) -> ContinuousModel:
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
    return ContinuousModel(A=a, B=b, G=g, C=c, D=d, H=h, Q=q, R=r, dt=dt)


def vehicle_d_signals(horizon: int = 1000) -> list[SignalSpec]:
    """Unknown accelerator: step burst mid-run.  Sensor bias: slow sinusoid."""
    ks = np.arange(horizon + 1)
    bias = 0.5 * np.sin(2.0 * np.pi * ks / 400.0)
    return [Step(amplitude=2.0, k_on=200, k_off=600), Samples(bias)]


def vehicle_scenario(horizon: int = 1000, seed: int = 31415,
                     filters=("ULISE", "PLISE"), monte_carlo: int = 1,
                     gamma: GammaPolicy = GammaPolicy.DAROUACH) -> Scenario:
    model = c2d_zoh(vehicle_tracking_model())
    return Scenario(
        model=model, horizon=horizon,
        d_signals=vehicle_d_signals(horizon),
        u_signals=[SquareWave(amplitude=1.0, half_period=250, k_on=0, k_off=horizon)],
        x0_true=np.zeros(4), x0_mean=np.zeros(4), p0=np.eye(4),
        noise_seed=seed, filters=filters, monte_carlo=monte_carlo, gamma=gamma,
    )
