"""Deterministic scalar signal specifications for scenario inputs.

Each spec turns into a sequence ``value[0..count-1]``; signals are zero
outside their active window.  ``Samples`` shorter than the requested count
are zero-padded at the end.  Parameters are taken as given, never coerced:
an amplitude, slope, value or sample must be a finite real number, and a
window bound or half period an integer; a bool or a string is neither, and
a rejected parameter raises :class:`~lise.errors.InvalidInputError` naming
it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import InvalidInputError

__all__ = ["Step", "Ramp", "SquareWave", "Constant", "Samples", "SignalSpec",
           "sample_signal", "sample_signals"]


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer, taken as given; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """Whether ``value`` is a real number, taken as given, not coerced: a
    bool (which would read as 0 or 1), a string or a sequence is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_real(value, what: str):
    """Raise unless ``value`` is one finite real number (:func:`_is_real`)."""
    if not _is_real(value):
        raise InvalidInputError(f"{what} must be a real number, got {value!r}")
    if not np.isfinite(value):
        raise InvalidInputError(f"{what} must be finite")


def _check_window(k_on: int, k_off: int):
    for name, value in (("k_on", k_on), ("k_off", k_off)):
        if not _is_integer(value):
            raise InvalidInputError(f"signal window {name} must be an integer, got {value!r}")
    if k_on > k_off:
        raise InvalidInputError(f"signal window must satisfy k_on <= k_off, got [{k_on}, {k_off}]")


@dataclass(frozen=True)
class Step:
    """Constant amplitude on [k_on, k_off], zero elsewhere."""

    amplitude: float
    k_on: int
    k_off: int

    def __post_init__(self):
        _check_window(self.k_on, self.k_off)
        _check_real(self.amplitude, "step amplitude")

    def at(self, k: int) -> float:
        return self.amplitude if self.k_on <= k <= self.k_off else 0.0


@dataclass(frozen=True)
class Ramp:
    """Linear growth ``slope * (k - k_on)`` on [k_on, k_off], zero elsewhere."""

    slope: float
    k_on: int
    k_off: int

    def __post_init__(self):
        _check_window(self.k_on, self.k_off)
        _check_real(self.slope, "ramp slope")

    def at(self, k: int) -> float:
        return self.slope * (k - self.k_on) if self.k_on <= k <= self.k_off else 0.0


@dataclass(frozen=True)
class SquareWave:
    """Alternating +/- amplitude on [k_on, k_off], switching every half_period
    steps, starting positive at k_on."""

    amplitude: float
    half_period: int
    k_on: int
    k_off: int

    def __post_init__(self):
        _check_window(self.k_on, self.k_off)
        if not _is_integer(self.half_period):
            raise InvalidInputError(
                f"square wave half_period must be an integer, got {self.half_period!r}")
        if self.half_period < 1:
            raise InvalidInputError("square wave half_period must be >= 1")
        _check_real(self.amplitude, "square wave amplitude")

    def at(self, k: int) -> float:
        if not (self.k_on <= k <= self.k_off):
            return 0.0
        phase = (k - self.k_on) // self.half_period
        return self.amplitude if phase % 2 == 0 else -self.amplitude


@dataclass(frozen=True)
class Constant:
    value: float

    def __post_init__(self):
        _check_real(self.value, "constant value")

    def at(self, k: int) -> float:
        return self.value


@dataclass(frozen=True)
class Samples:
    """Explicit sequence; indices beyond the end read as zero."""

    values: tuple

    def __init__(self, values: Sequence[float]):
        try:
            values = tuple(values)
        except TypeError:
            raise InvalidInputError(
                f"sample values must be a sequence of real numbers, got {values!r}") from None
        for i, v in enumerate(values):
            _check_real(v, f"sample values[{i}]")
        object.__setattr__(self, "values", tuple(float(v) for v in values))

    def at(self, k: int) -> float:
        return self.values[k] if 0 <= k < len(self.values) else 0.0


SignalSpec = Union[Step, Ramp, SquareWave, Constant, Samples]


def sample_signal(spec: SignalSpec, count: int) -> np.ndarray:
    return np.array([spec.at(k) for k in range(count)], dtype=float)


def sample_signals(specs: Sequence[SignalSpec], count: int) -> np.ndarray:
    """Stack several specs into a (count, len(specs)) array; empty spec list
    yields a (count, 0) array."""
    if not specs:
        return np.zeros((count, 0))
    return np.column_stack([sample_signal(s, count) for s in specs])
