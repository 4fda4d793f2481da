"""YAML configuration documents for the command-line tools.

A config has up to four blocks: ``model`` (discrete matrices, or a
``continuous`` sub-block that is discretized on load), ``scenario`` (signals,
horizon, seed, filters), ``analysis`` (which structural checks to run), and
``output`` (paths).  Matrices are nested row-major arrays.  Unknown keys are
rejected with the offending key path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import yaml

from .errors import ConfigError
from .filters import GammaPolicy
from .model import ContinuousModel, SystemModel, SystemStep, c2d_zoh
from .signals import Constant, Ramp, Samples, SignalSpec, SquareWave, Step
from .simulate import FILTER_NAMES, Scenario

__all__ = ["ConfigDocument", "AnalysisSettings", "OutputSettings", "load_config"]

# libyaml's parser when PyYAML was built with it; the same documents, faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

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


def _matrix(node, path: str) -> np.ndarray:
    try:
        arr = np.array(node, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"not a numeric matrix: {exc}", path) from None
    if arr.ndim != 2:
        raise ConfigError(f"matrix must be a nested (row-major) 2-D array, got {arr.ndim}-D", path)
    return arr


def _vector(node, path: str) -> np.ndarray:
    try:
        arr = np.array(node, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"not a numeric vector: {exc}", path) from None
    if arr.ndim != 1:
        raise ConfigError(f"expected a flat list of numbers, got {arr.ndim}-D", path)
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
        mats = {k: _matrix(sub[k], f"{path}.continuous.{k}") for k in _MODEL_KEYS}
        try:
            cm = ContinuousModel(A=mats["A"], B=mats["B"], G=mats["G"], C=mats["C"],
                                 D=mats["D"], H=mats["H"], Q=mats["Q"], R=mats["R"],
                                 dt=float(sub["dt"]))
            return c2d_zoh(cm, scale_r_by_dt=bool(sub.get("scale_r_by_dt", False)))
        except Exception as exc:
            raise ConfigError(str(exc), f"{path}.continuous") from None
    _reject_unknown(node, _MODEL_KEYS, path)
    missing = _MODEL_KEYS - set(node)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)}", path)
    mats = {k: _matrix(node[k], f"{path}.{k}") for k in _MODEL_KEYS}
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
    if kind not in _SIGNAL_KEYS:
        raise ConfigError(f"signal type must be one of {sorted(_SIGNAL_KEYS)}, got {kind!r}", path)
    allowed, cls = _SIGNAL_KEYS[kind]
    _reject_unknown(node, allowed | {"type"}, path)
    missing = allowed - set(node)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)}", path)
    kwargs = {k: node[k] for k in allowed}
    try:
        return cls(**kwargs)
    except Exception as exc:
        raise ConfigError(str(exc), path) from None


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
    for f in filters:
        if f not in FILTER_NAMES:
            raise ConfigError(f"unknown filter {f!r} (choose from {FILTER_NAMES})",
                              f"{path}.filters")
    d_signals = [_parse_signal(s, f"{path}.d_signals[{i}]")
                 for i, s in enumerate(node["d_signals"])]
    u_signals = [_parse_signal(s, f"{path}.u_signals[{i}]")
                 for i, s in enumerate(node.get("u_signals", []))]
    if not u_signals and model.m:
        u_signals = [Constant(0.0)] * model.m
    x0_true = _vector(node.get("x0_true", np.zeros(model.n)), f"{path}.x0_true")
    x0_mean = _vector(node.get("x0_mean", np.zeros(model.n)), f"{path}.x0_mean")
    p0 = node.get("P0", None)
    p0 = np.eye(model.n) if p0 is None else _matrix(p0, f"{path}.P0")
    gamma_name = node.get("gamma", "darouach")
    try:
        gamma = GammaPolicy(gamma_name)
    except ValueError:
        raise ConfigError(
            f"gamma must be one of {[g.value for g in GammaPolicy]}, got {gamma_name!r}",
            f"{path}.gamma") from None
    try:
        return Scenario(
            model=model, horizon=node["horizon"], d_signals=d_signals, u_signals=u_signals,
            x0_true=x0_true, x0_mean=x0_mean, p0=p0, noise_seed=node.get("seed", 0),
            filters=tuple(filters), monte_carlo=node.get("monte_carlo", 1), gamma=gamma,
            steady_window=node.get("steady_window", 0.2),
            structural_checks=node.get("structural_checks", True),
        )
    except Exception as exc:
        raise ConfigError(str(exc), path) from None


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
    if window is not None and (not isinstance(window, int) or window < 0):
        raise ConfigError("window must be a nonnegative integer", f"{path}.window")
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
            raw = yaml.load(fh, Loader=_YAML_LOADER)
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
