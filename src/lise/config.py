"""YAML configuration documents for the command-line tools.

A config has up to four blocks: ``model`` (discrete matrices, or a
``continuous`` sub-block that is discretized on load), ``scenario`` (signals,
horizon, seed, filters), ``analysis`` (which structural checks to run), and
``output`` (paths).  Matrices are nested row-major arrays.  Unknown keys are
rejected with the offending key path, and so is a bool or a string where a
number is expected; an exponent without a dot (``5e-05``) reads as a number,
as in YAML 1.2.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np
import yaml

from .errors import ConfigError, InvalidInputError, NotPositiveDefiniteError
from .filters import GammaPolicy
from .linalg import _psd_eigh
from .model import ContinuousModel, SystemModel, SystemStep, c2d_zoh
from .signals import Constant, Ramp, Samples, SignalSpec, SquareWave, Step, _is_integer, _is_real
from .simulate import Scenario

__all__ = ["ConfigDocument", "AnalysisSettings", "OutputSettings", "load_config"]

# libyaml's parser when PyYAML was built with it; the same documents, faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# a YAML 1.2 float with an exponent that YAML 1.1's rule, which wants a dot and
# a signed exponent, leaves as a string: 5e-05, 1.5e3
_EXPONENT_FLOAT = re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$")


def _exponent_loader(base):
    """The YAML loader ``base`` that also reads an unquoted
    :data:`_EXPONENT_FLOAT` scalar as a float, as YAML 1.2 does."""
    loader = type(base.__name__, (base,), {})
    loader.add_implicit_resolver("tag:yaml.org,2002:float", _EXPONENT_FLOAT,
                                 list("-+.0123456789"))
    return loader


ANALYSIS_CHECKS = (
    "validate",
    "strong_observability",
    "invariant_zeros",
    "strong_detectability",
    "ulise_convergence",
    "plise_stability",
)


@dataclass
class AnalysisSettings:
    checks: tuple = ANALYSIS_CHECKS
    window: Optional[int] = None          # r for the windowed observability test


@dataclass
class OutputSettings:
    dir: str = "."
    per_step: str = "steps.csv"
    summary: str = "summary.csv"


@dataclass
class ConfigDocument:
    model: SystemModel
    scenario: Optional[Scenario]
    analysis: AnalysisSettings
    output: OutputSettings


def _require_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"expected a mapping, got {type(node).__name__}", path)
    return node


def _reject_unknown(node: dict, allowed, path: str):
    for key in node:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} (allowed: {sorted(allowed)})", path)


def _check_real(value, path: str, name: str = "entry"):
    """Raise unless ``value`` is a real number as loaded (:func:`_is_real`):
    YAML ``true`` would read as 1, and ``'1'`` as 1.0."""
    if not _is_real(value):
        raise ConfigError(f"{name} must be a real number, got {value!r}", path)


def _check_reals(node, path: str):
    """:func:`_check_real` on ``node`` or on every entry of its nested lists."""
    if isinstance(node, list):
        for i, item in enumerate(node):
            _check_reals(item, f"{path}[{i}]")
    else:
        _check_real(node, path)


def _array(node, path: str, ndim: int) -> np.ndarray:
    """Nested lists of real numbers (row-major) as an ``ndim``-D float array."""
    _check_reals(node, path)
    try:
        arr = np.array(node, dtype=float)
    except ValueError as exc:
        raise ConfigError(f"not a numeric array: {exc}", path) from None
    if arr.ndim != ndim:
        raise ConfigError(f"expected a {ndim}-D array (nested lists, row-major), "
                          f"got {arr.ndim}-D", path)
    return arr


_MODEL_KEYS = {"A", "B", "C", "D", "G", "H", "Q", "R"}


def _parse_model(node, path: str) -> SystemModel:
    node = _require_mapping(node, path)
    if "continuous" in node:
        _reject_unknown(node, {"continuous"}, path)
        sub = _require_mapping(node["continuous"], f"{path}.continuous")
        allowed = _MODEL_KEYS | {"dt", "scale_r_by_dt"}
        _reject_unknown(sub, allowed, f"{path}.continuous")
        missing = (_MODEL_KEYS | {"dt"}) - set(sub)
        if missing:
            raise ConfigError(f"missing keys {sorted(missing)}", f"{path}.continuous")
        mats = {k: _array(sub[k], f"{path}.continuous.{k}", 2) for k in _MODEL_KEYS}
        # loaded as is, not coerced: "false" would read as true, true as dt = 1
        dt, scale_r = sub["dt"], sub.get("scale_r_by_dt", False)
        _check_real(dt, f"{path}.continuous.dt", "dt")
        if not isinstance(scale_r, bool):
            raise ConfigError(f"scale_r_by_dt must be true or false, got {scale_r!r}",
                              f"{path}.continuous.scale_r_by_dt")
        try:
            return c2d_zoh(ContinuousModel(**mats, dt=float(dt)), scale_r_by_dt=scale_r)
        except Exception as exc:
            raise ConfigError(str(exc), f"{path}.continuous") from None
    _reject_unknown(node, _MODEL_KEYS, path)
    missing = _MODEL_KEYS - set(node)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)}", path)
    mats = {k: _array(node[k], f"{path}.{k}", 2) for k in _MODEL_KEYS}
    try:
        step = SystemStep(**mats)
    except Exception as exc:
        raise ConfigError(str(exc), path) from None
    return SystemModel.time_invariant(step)


_SIGNAL_KEYS = {
    "step": ({"amplitude", "k_on", "k_off"}, Step),
    "ramp": ({"slope", "k_on", "k_off"}, Ramp),
    "square_wave": ({"amplitude", "half_period", "k_on", "k_off"}, SquareWave),
    "constant": ({"value"}, Constant),
    "samples": ({"values"}, Samples),
}


def _parse_signal(node, path: str) -> SignalSpec:
    node = _require_mapping(node, path)
    kind = node.get("type")
    if not isinstance(kind, str) or kind not in _SIGNAL_KEYS:
        raise ConfigError(f"signal type must be one of {sorted(_SIGNAL_KEYS)}, got {kind!r}", path)
    allowed, cls = _SIGNAL_KEYS[kind]
    _reject_unknown(node, allowed | {"type"}, path)
    missing = allowed - set(node)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)}", path)
    kwargs = {k: node[k] for k in allowed}
    for key, value in kwargs.items():
        if key == "values":
            _array(value, f"{path}.values", 1)
        else:
            _check_real(value, f"{path}.{key}", key)
    try:
        return cls(**kwargs)
    except Exception as exc:
        raise ConfigError(str(exc), path) from None


def _parse_signals(node: dict, key: str, path: str) -> list:
    """The list of signals under ``key`` (none when the key is absent)."""
    signals = node.get(key, [])
    if not isinstance(signals, list):
        raise ConfigError(f"{key} must be a list of signals, got {signals!r}", f"{path}.{key}")
    return [_parse_signal(s, f"{path}.{key}[{i}]") for i, s in enumerate(signals)]


_SCENARIO_KEYS = {
    "horizon", "seed", "monte_carlo", "filters", "x0_true", "x0_mean", "P0",
    "d_signals", "u_signals", "gamma", "steady_window", "structural_checks",
}


def _parse_scenario(node, model: SystemModel, path: str) -> Scenario:
    node = _require_mapping(node, path)
    _reject_unknown(node, _SCENARIO_KEYS, path)
    for key in ("horizon", "filters", "d_signals"):
        if key not in node:
            raise ConfigError(f"missing key {key!r}", path)
    filters = node["filters"]
    if not isinstance(filters, list) or not filters:
        raise ConfigError("filters must be a non-empty list", f"{path}.filters")
    d_signals = _parse_signals(node, "d_signals", path)
    u_signals = _parse_signals(node, "u_signals", path)
    if not u_signals and model.m:
        u_signals = [Constant(0.0)] * model.m
    x0_true = _array(node.get("x0_true", [0.0] * model.n), f"{path}.x0_true", 1)
    x0_mean = _array(node.get("x0_mean", [0.0] * model.n), f"{path}.x0_mean", 1)
    p0 = node.get("P0", None)
    p0 = np.eye(model.n) if p0 is None else _array(p0, f"{path}.P0", 2)
    gamma_name = node.get("gamma", "darouach")
    try:
        gamma = GammaPolicy(gamma_name)
    except ValueError:
        raise ConfigError(
            f"gamma must be one of {[g.value for g in GammaPolicy]}, got {gamma_name!r}",
            f"{path}.gamma") from None
    try:
        scenario = Scenario(
            model=model, horizon=node["horizon"], d_signals=d_signals, u_signals=u_signals,
            x0_true=x0_true, x0_mean=x0_mean, p0=p0, noise_seed=node.get("seed", 0),
            filters=tuple(filters), monte_carlo=node.get("monte_carlo", 1), gamma=gamma,
            steady_window=node.get("steady_window", 0.2),
            structural_checks=node.get("structural_checks", True),
        )
    except Exception as exc:
        raise ConfigError(str(exc), path) from None
    # the filters' test of P0, before any work
    try:
        _psd_eigh(scenario.p0, "P0")
    except (InvalidInputError, NotPositiveDefiniteError) as exc:
        raise ConfigError(str(exc), f"{path}.P0") from None
    return scenario


def _parse_analysis(node, path: str) -> AnalysisSettings:
    node = _require_mapping(node, path)
    _reject_unknown(node, {"checks", "window"}, path)
    checks = node.get("checks", list(ANALYSIS_CHECKS))
    if not isinstance(checks, list) or not checks:
        raise ConfigError("checks must be a non-empty list", f"{path}.checks")
    for c in checks:
        if c not in ANALYSIS_CHECKS:
            raise ConfigError(f"unknown check {c!r} (choose from {ANALYSIS_CHECKS})",
                              f"{path}.checks")
    window = node.get("window")
    if window is not None:
        if not _is_integer(window) or window < 0:
            raise ConfigError(f"window must be a nonnegative integer, got {window!r}",
                              f"{path}.window")
        if "strong_observability" not in checks:
            raise ConfigError("window is the strong_observability check's window, "
                              "and checks does not list that check", f"{path}.window")
    return AnalysisSettings(checks=tuple(checks), window=window)


def _parse_output(node, path: str) -> OutputSettings:
    node = _require_mapping(node, path)
    _reject_unknown(node, {"dir", "per_step", "summary"}, path)
    return OutputSettings(
        dir=str(node.get("dir", ".")),
        per_step=str(node.get("per_step", "steps.csv")),
        summary=str(node.get("summary", "summary.csv")),
    )


def load_config(path: str) -> ConfigDocument:
    """Parse and schema-validate a config file.

    Raises :class:`ConfigError` with the YAML line (syntax errors) or the key
    path (semantic errors).
    """
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=_exponent_loader(_YAML_LOADER))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"YAML syntax error: {exc}") from None
    if raw is None:
        raise ConfigError("config file is empty")
    raw = _require_mapping(raw, "<root>")
    _reject_unknown(raw, {"model", "scenario", "analysis", "output"}, "<root>")
    if "model" not in raw:
        raise ConfigError("missing key 'model'", "<root>")
    model = _parse_model(raw["model"], "model")
    scenario = (_parse_scenario(raw["scenario"], model, "scenario")
                if "scenario" in raw else None)
    analysis = (_parse_analysis(raw["analysis"], "analysis")
                if "analysis" in raw else AnalysisSettings())
    output = (_parse_output(raw["output"], "output")
              if "output" in raw else OutputSettings())
    return ConfigDocument(model=model, scenario=scenario, analysis=analysis, output=output)
