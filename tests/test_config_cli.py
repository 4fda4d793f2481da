import contextlib
import copy
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lise.cli
import lise.config
import lise.simulate
from conftest import CONFIGS, config_scenario
from oracles import vehicle_tracking_model
from test_acceptance import STEADY_TABLE
from lise.cli import main
from lise.config import load_config
from lise.errors import ConfigError, InvalidInputError, NotPositiveDefiniteError
from lise.filters import ulise_init
from lise.model import c2d_zoh
from lise.signals import Constant

LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])


class TestLoadConfig:
    def test_bundled_fault_config_matches_benchmark(self):
        doc = load_config(CONFIGS / "fault_h1.yaml")
        assert doc.scenario.horizon == 1000
        assert doc.scenario.filters == ("CYWZ", "ULISE", "PLISE")
        assert doc.output.dir == "out"

    def test_bundled_continuous_config_discretizes(self):
        doc = load_config(CONFIGS / "vehicle_tracking.yaml")
        want = c2d_zoh(vehicle_tracking_model()).step(0)
        got = doc.model.step(0)
        for name in "ABCDGHQR":
            assert np.allclose(getattr(got, name), getattr(want, name),
                               rtol=0, atol=0), name

    def test_unknown_key_rejected_with_path(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text(load_min_config() + "  bogus: 1\n")
        with pytest.raises(ConfigError, match="scenario.*bogus"):
            load_config(p)

    def test_missing_model_key(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("model:\n  A: [[1]]\n")
        with pytest.raises(ConfigError, match="missing keys"):
            load_config(p)

    def test_bad_signal_type(self, tmp_path, capsys):
        # an unknown name, a list or a mapping as a signal's type, and a
        # signal list that is not a list: each a named error, and `lise
        # run` exits 1
        d_line = "  d_signals:\n    - {type: step, amplitude: 1.0, k_on: 10, k_off: 30}\n"
        u_line = "  u_signals:\n    - {type: constant, value: 0.0}\n"
        p = tmp_path / "bad.yaml"
        for old, new, match in (
                ("type: constant", "type: sine", r"^scenario\.u_signals\[0\]: signal type"),
                ("type: constant", "type: [constant]", r"^scenario\.u_signals\[0\]: signal type"),
                ("type: step", "type: {step: 1}", r"^scenario\.d_signals\[0\]: signal type"),
                (d_line, "  d_signals: false\n", r"^scenario\.d_signals: d_signals must be a list"),
                (d_line, "  d_signals: 2.5\n", r"^scenario\.d_signals: d_signals must be a list"),
                (u_line, "  u_signals: false\n", r"^scenario\.u_signals: u_signals must be a list"),
                (u_line, "  u_signals: 2.5\n", r"^scenario\.u_signals: u_signals must be a list")):
            text = load_min_config()
            assert old in text
            p.write_text(text.replace(old, new))
            with pytest.raises(ConfigError, match=match):
                load_config(p)
            capsys.readouterr()
            assert main(["run", "--config", str(p), "--out", str(tmp_path)]) == 1
            assert capsys.readouterr().err.startswith("config error: scenario.")

    def test_bad_filter_name(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text(load_min_config().replace("[ULISE]", "[SUPERFILTER]"))
        with pytest.raises(ConfigError, match="unknown filter"):
            load_config(p)

    def test_yaml_syntax_error_has_line(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("model: [unclosed\n")
        with pytest.raises(ConfigError, match="line"):
            load_config(p)

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
    def test_yaml_syntax_error_has_line_under_each_loader(self, tmp_path, monkeypatch,
                                                          loader):
        monkeypatch.setattr(lise.config, "_YAML_LOADER", loader)
        p = tmp_path / "bad.yaml"
        p.write_text("model:\n  A: [[1, 0]\n  B: [[0]]\n")
        with pytest.raises(ConfigError, match=r"line \d+"):
            load_config(p)

    def test_libyaml_loader_used_when_available_and_documents_equal(self):
        if not hasattr(yaml, "CSafeLoader"):
            assert lise.config._YAML_LOADER is yaml.SafeLoader
            pytest.skip("PyYAML is built without libyaml")
        assert lise.config._YAML_LOADER is yaml.CSafeLoader
        paths = sorted(CONFIGS.glob("*.yaml"))
        assert len(paths) == 7
        for path in paths:
            text = path.read_text()
            assert (yaml.load(text, Loader=yaml.CSafeLoader)
                    == yaml.load(text, Loader=yaml.SafeLoader)), path.name

    @pytest.mark.parametrize("old,new,path,message", [
        ("A: [[0.5, 0], [0, 0.2]]", "A: [[0.5, true], [0, 0.2]]", "model.A[0][1]",
         "entry must be a real number, got True"),
        ("horizon: 50", "horizon: 50\n  x0_true: ['1', 0]", "scenario.x0_true[0]",
         "entry must be a real number, got '1'"),
        ("amplitude: 1.0", "amplitude: true", "scenario.d_signals[0].amplitude",
         "amplitude must be a real number, got True"),
        ("{type: step, amplitude: 1.0,", "{type: ramp, slope: true,",
         "scenario.d_signals[0].slope", "slope must be a real number, got True"),
        ("value: 0.0", "value: '1'", "scenario.u_signals[0].value",
         "value must be a real number, got '1'"),
        ("{type: step, amplitude: 1.0, k_on: 10, k_off: 30}", "{type: samples, values: [true, 2]}",
         "scenario.d_signals[0].values[0]", "entry must be a real number, got True"),
        ("{type: step, amplitude: 1.0, k_on: 10, k_off: 30}", "{type: samples, values: 2}",
         "scenario.d_signals[0].values", "expected a 1-D array (nested lists, row-major), "
         "got 0-D"),
        ("k_on: 10", "k_on: true", "scenario.d_signals[0].k_on",
         "k_on must be a real number, got True"),
        ("k_off: 30", "k_off: '30'", "scenario.d_signals[0].k_off",
         "k_off must be a real number, got '30'"),
        ("{type: step, amplitude: 1.0,", "{type: square_wave, amplitude: 1.0, half_period: true,",
         "scenario.d_signals[0].half_period", "half_period must be a real number, got True"),
    ])
    def test_mistyped_number_is_a_config_error_naming_the_key(self, tmp_path, capsys, old,
                                                               new, path, message):
        # loaded as is, not coerced: true would read as 1, '1' as 1.0
        text = load_min_config()
        assert text.count(old) == 1
        p = tmp_path / "bad.yaml"
        p.write_text(text.replace(old, new))
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_config(p)
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "res")]) == 1
        assert f"config error: {path}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "res" / "steps.csv").exists()

    @pytest.mark.parametrize("old,new,message", [
        ("k_on: 10", "k_on: 0.5", "signal window k_on must be an integer, got 0.5"),
        ("k_off: 30", "k_off: 30.0", "signal window k_off must be an integer, got 30.0"),
        ("{type: step, amplitude: 1.0,", "{type: square_wave, amplitude: 1.0, half_period: 2.5,",
         "square wave half_period must be an integer, got 2.5"),
    ])
    def test_fractional_signal_window_is_a_config_error(self, tmp_path, capsys, old, new,
                                                        message):
        # a real number passes the loader's type check; the signal rejects it
        text = load_min_config()
        assert text.count(old) == 1
        p = tmp_path / "bad.yaml"
        p.write_text(text.replace(old, new))
        path = "scenario.d_signals[0]"
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_config(p)
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "res")]) == 1
        assert f"config error: {path}: {message}" in capsys.readouterr().err

    def test_first_error_is_the_same_under_every_hash_seed(self, tmp_path):
        # two faults in one document: the one reported is the first in the
        # declared order of the matrices or of the signal's fields, whatever
        # the order in which a set of their names would iterate
        text = (CONFIGS / "fault_h1.yaml").read_text()
        cases = [
            (("- [0.5, 2, 0, 0, 0]", "- [true, 2, 0, 0, 0]"),
             ("- [0.01, 0, 0, 0.005, 0]", "- [yes, 0, 0, 0.005, 0]"),
             "model.A[0][0]: entry must be a real number, got True"),
            (("amplitude: 1.0, k_on: 500", 'amplitude: true, k_on: "x"'),
             "scenario.d_signals[0].amplitude: amplitude must be a real number, got True"),
        ]
        for i, (*edits, message) in enumerate(cases):
            doc = text
            for old, new in edits:
                assert doc.count(old) == 1
                doc = doc.replace(old, new)
            cfg = tmp_path / f"cfg{i}.yaml"
            cfg.write_text(doc)
            for seed in ("1", "2", "3", "4"):
                proc = subprocess.run(
                    [sys.executable, "-m", "lise", "analyze", "--config", str(cfg)],
                    env={**os.environ, "PYTHONPATH": str(CONFIGS.parent / "src"),
                         "PYTHONHASHSEED": seed},
                    capture_output=True, text=True, timeout=60)
                assert (proc.returncode, proc.stdout, proc.stderr) == (
                    1, "", f"config error: {message}\n"), seed

    def test_exponent_without_a_dot_is_a_number(self, tmp_path):
        # YAML 1.1 leaves 1e-2 a string; it is YAML 1.2's float 0.01, and a
        # quoted one stays a string
        p = tmp_path / "cfg.yaml"
        p.write_text(load_min_config().replace("Q: [[0.01, 0], [0, 0.01]]",
                                               "Q: [[1e-2, 0], [0, 1.0e-2]]"))
        assert np.array_equal(load_config(p).model.step(0).Q, 0.01 * np.eye(2))
        p.write_text(load_min_config().replace("Q: [[0.01, 0], [0, 0.01]]",
                                               "Q: [['1e-2', 0], [0, 0.01]]"))
        with pytest.raises(ConfigError, match=r"^model\.Q\[0\]\[0\]: entry must be"):
            load_config(p)

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.stem)
    def test_bundled_configs_read_numbers_as_before(self, path):
        # the loaded document is the plain YAML 1.1 one with every string that
        # float() reads replaced by that float, as np.array(..., dtype=float)
        # read those strings when they were coerced
        def as_floats(node):
            if isinstance(node, dict):
                return {k: as_floats(v) for k, v in node.items()}
            if isinstance(node, list):
                return [as_floats(v) for v in node]
            if isinstance(node, str):
                try:
                    return float(node)
                except ValueError:
                    pass
            return node

        text = path.read_text()
        loaded = yaml.load(text, Loader=lise.config._exponent_loader(lise.config._YAML_LOADER))
        assert loaded == as_floats(yaml.load(text, Loader=yaml.SafeLoader))
        assert as_floats(loaded) == loaded
        load_config(path)


def _replaced(old, new):
    def edit(text):
        assert text.count(old) == 1
        return text.replace(old, new)
    return edit


def _continuous(dt):
    """The minimal config with its model written as a continuous block."""
    def edit(text):
        model, scenario = text.split("scenario:")
        rows = model.strip().splitlines()[1:]       # the matrices under "model:"
        return ("model:\n  continuous:\n" + "".join(f"  {row}\n" for row in rows)
                + f"    dt: {dt}\nscenario:{scenario}")
    return edit


# (edit of the minimal config, or a whole file, key path, message regex)
_CONFIG_ERRORS = {
    "non_mapping_block": (lambda t: t + "output: 3\n", "output", "expected a mapping, got int"),
    "ragged_array": (_replaced("A: [[0.5, 0], [0, 0.2]]", "A: [[0.5, 0], [0]]"), "model.A",
                     "not a numeric array: .+"),
    "step_rejected": (_replaced("A: [[0.5, 0], [0, 0.2]]", "A: [[0.5, 0, 0], [0, 0.2, 0]]"),
                      "model", re.escape("A must be square, got (2, 3)")),
    "continuous_missing_keys": ("model:\n  continuous:\n    A: [[0]]\n    dt: 0.1\n",
                                "model.continuous",
                                re.escape("missing keys ['B', 'C', 'D', 'G', 'H', 'Q', 'R']")),
    "continuous_rejected": (_continuous(0), "model.continuous",
                            re.escape("dt must be positive and finite, got 0.0")),
    "discrete_missing_keys": (_replaced("  R: [[0.1, 0], [0, 0.1]]\n", ""), "model",
                              re.escape("missing keys ['R']")),
    "signal_missing_keys": (_replaced("k_on: 10, k_off: 30}", "k_on: 10}"),
                            "scenario.d_signals[0]", re.escape("missing keys ['k_off']")),
    "scenario_missing_key": (_replaced("  horizon: 50\n", ""), "scenario",
                             "missing key 'horizon'"),
    "filters_not_a_list": (_replaced("filters: [ULISE]", "filters: ULISE"), "scenario.filters",
                           "filters must be a non-empty list"),
    "unknown_gamma": (_replaced("  horizon: 50\n", "  horizon: 50\n  gamma: bogus\n"),
                      "scenario.gamma", r"gamma must be one of \[.+\], got 'bogus'"),
    "empty_checks": (lambda t: t + "analysis:\n  checks: []\n", "analysis.checks",
                     "checks must be a non-empty list"),
    "unknown_check": (lambda t: t + "analysis:\n  checks: [validate, bogus]\n",
                      "analysis.checks", r"unknown check 'bogus' \(choose from .+\)"),
    "unreadable_file": (None, "", "cannot read config: .+"),
    "empty_file": ("", "", "config file is empty"),
    "missing_model": ("scenario:\n  horizon: 5\n", "<root>", "missing key 'model'"),
}


@pytest.mark.parametrize("case", sorted(_CONFIG_ERRORS))
def test_config_error_names_message_and_key_path(tmp_path, case):
    content, path, message = _CONFIG_ERRORS[case]
    p = tmp_path / "bad.yaml"
    if content is None:
        p = tmp_path                # a directory: open() fails
    else:
        p.write_text(content(load_min_config()) if callable(content) else content)
    with pytest.raises(ConfigError) as info:
        load_config(p)
    exc = info.value
    assert type(exc) is ConfigError and exc.path == path
    assert re.fullmatch((f"{re.escape(path)}: " if path else "") + message, str(exc)), str(exc)


def test_u_signals_default_to_zero_for_each_known_input(tmp_path):
    p = tmp_path / "cfg.yaml"
    p.write_text(_replaced("  u_signals:\n    - {type: constant, value: 0.0}\n", "")(
        load_min_config()))
    doc = load_config(p)
    assert doc.model.m == 1
    assert doc.scenario.u_signals == (Constant(0.0),)


def load_min_config() -> str:
    return """
model:
  A: [[0.5, 0], [0, 0.2]]
  B: [[0], [0]]
  C: [[1, 0], [0, 1]]
  D: [[0], [0]]
  G: [[1], [0]]
  H: [[0], [0]]
  Q: [[0.01, 0], [0, 0.01]]
  R: [[0.1, 0], [0, 0.1]]
scenario:
  horizon: 50
  filters: [ULISE]
  d_signals:
    - {type: step, amplitude: 1.0, k_on: 10, k_off: 30}
  u_signals:
    - {type: constant, value: 0.0}
"""


class TestCliAnalyze:
    def test_benchmark_verdicts(self, capsys):
        code = main(["analyze", "--config", str(CONFIGS / "fault_h1.yaml")])
        out = capsys.readouterr().out
        assert code == 0
        assert "strongly detectable: yes" in out
        assert "0.3, 0.8" in out
        assert "ULISE gain convergence: ok" in out
        assert "PLISE boundedness: ok" in out

    def test_observability_verdict_drives_exit_code(self, tmp_path, capsys):
        # variant 1 is not strongly observable; requesting that check makes
        # the command report it and exit nonzero
        src = (CONFIGS / "fault_h1.yaml").read_text()
        src = src.replace("checks: [validate, ", "checks: [strong_observability, ")
        p = tmp_path / "cfg.yaml"
        p.write_text(src)
        assert main(["analyze", "--config", str(p)]) == 2
        assert "strong observability: no" in capsys.readouterr().out

    def test_observable_variant_passes(self, capsys):
        assert main(["analyze", "--config", str(CONFIGS / "fault_h3.yaml")]) == 0
        out = capsys.readouterr().out
        assert "strong observability: yes" in out
        assert "invariant zeros (pencil): none" in out

    def test_full_feedthrough_lists_all_five_values(self, capsys):
        code = main(["analyze", "--config", str(CONFIGS / "fault_h6.yaml")])
        out = capsys.readouterr().out
        assert code == 0
        line = [ln for ln in out.splitlines() if ln.startswith("invariant zeros")][0]
        for val in ("-0.8", "0.1", "0.3", "0.35", "0.7"):
            assert val in line

    def test_exit_2_on_failed_check(self, tmp_path, capsys):
        # marginally stable mode with no process noise: the convergence
        # certificate fails
        p = tmp_path / "cfg.yaml"
        p.write_text("""
model:
  A: [[1.0]]
  B: [[0]]
  C: [[1.0]]
  D: [[0]]
  G: [[0.0]]
  H: [[1.0]]
  Q: [[0.0]]
  R: [[1.0]]
analysis:
  checks: [ulise_convergence]
""")
        assert main(["analyze", "--config", str(p)]) == 2

    def test_exit_1_on_config_error(self, tmp_path, capsys):
        p = tmp_path / "cfg.yaml"
        p.write_text("nonsense: {}\n")
        assert main(["analyze", "--config", str(p)]) == 1

    @pytest.mark.parametrize("matrix", ["A", "C"])
    def test_exit_3_when_the_invariant_zeros_overflow(self, tmp_path, capsys, matrix):
        # one entry of 1e308 overflows the invariant-zeros test's random
        # projection of the system pencil, or keeps its QZ from converging:
        # an error that names the test, not a traceback
        doc = yaml.safe_load((CONFIGS / "fault_h1.yaml").read_text())
        doc["model"][matrix][0][0] = 1e308
        p = tmp_path / "cfg.yaml"
        p.write_text(yaml.safe_dump(doc))
        assert main(["analyze", "--config", str(p)]) == 3
        assert capsys.readouterr().err.startswith("error: invariant zeros test: ")

    def test_exit_1_on_usage_error(self):
        assert main(["analyze"]) == 1

    def test_window_runs_the_windowed_observability_test(self, tmp_path, capsys):
        text = (CONFIGS / "fault_h3.yaml").read_text()
        assert text.count("analysis:\n") == 1
        p = tmp_path / "cfg.yaml"
        p.write_text(text.replace("analysis:\n", "analysis:\n  window: 3\n"))
        assert main(["analyze", "--config", str(p)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "strong observability (window 3): yes (rank 8/8)" in lines
        assert not any(ln.startswith("strong observability:") for ln in lines)

    def test_window_needs_the_observability_check(self, tmp_path, capsys):
        # fault_h1 does not list strong_observability, so a window would
        # print nothing and pass
        text = (CONFIGS / "fault_h1.yaml").read_text()
        assert "strong_observability" not in text
        p = tmp_path / "cfg.yaml"
        p.write_text(text.replace("analysis:\n", "analysis:\n  window: 3\n"))
        message = ("analysis.window: window is the strong_observability check's window, "
                   "and checks does not list that check")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(p)
        assert main(["analyze", "--config", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error: {message}" in captured.err

    def test_violated_assumption_stops_with_exit_2(self, tmp_path, capsys):
        # the checks after validate do not run on a model that breaks it
        p = tmp_path / "cfg.yaml"
        p.write_text("""
model:
  A: [[0.5]]
  B: [[0]]
  C: [[1.0]]
  D: [[0]]
  G: [[0.0]]
  H: [[1.0]]
  Q: [[0.1]]
  R: [[0.0]]
analysis:
  checks: [validate, strong_detectability, ulise_convergence]
""")
        assert main(["analyze", "--config", str(p)]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "model assumptions: VIOLATED [k=0] R: R not PD"]

    def test_complex_zeros_print_as_a_plus_or_minus_bj(self, tmp_path, capsys):
        # controllable canonical form: the zeros are the roots of
        # z^2 - z + 0.5, that is 0.5 -+ 0.5j
        p = tmp_path / "cfg.yaml"
        p.write_text("""
model:
  A: [[0, 1, 0], [0, 0, 1], [0.1, 0.2, 0.3]]
  B: [[0], [0], [0]]
  C: [[0.5, -1.0, 1.0]]
  D: [[0]]
  G: [[0], [0], [1]]
  H: [[0]]
  Q: [[0.01, 0, 0], [0, 0.01, 0], [0, 0, 0.01]]
  R: [[0.1]]
analysis:
  checks: [invariant_zeros]
""")
        assert main(["analyze", "--config", str(p)]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        assert line.endswith("): 0.5-0.5j, 0.5+0.5j"), line

    def test_observability_without_unknown_inputs_is_classical(self, tmp_path, capsys):
        p = tmp_path / "cfg.yaml"
        p.write_text("""
model:
  A: [[0.5, 1.0], [0, 0.2]]
  B: [[0], [0]]
  C: [[1.0, 0]]
  D: [[0]]
  G: [[], []]
  H: [[]]
  Q: [[0.01, 0], [0, 0.01]]
  R: [[0.1]]
analysis:
  checks: [strong_observability]
""")
        assert load_config(p).model.p == 0
        assert main(["analyze", "--config", str(p)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "strong observability: yes (classical) (window 1)"]

    @pytest.mark.parametrize("flags", [["--seed", "1"], ["--mc", "0"], ["--out", "res"],
                                       ["--strict"]])
    def test_takes_only_the_config_flag(self, tmp_path, capsys, flags):
        # analyze reads no scenario and writes no file
        argv = ["analyze", "--config", str(CONFIGS / "fault_h1.yaml")] + flags
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(flags)}" in captured.err


_UNKNOWN_STEADY_WINDOW = (
    "unknown key 'steady_window' (allowed: ['P0', 'd_signals', 'filters', 'gamma', 'horizon', "
    "'monte_carlo', 'seed', 'structural_checks', 'u_signals', 'x0_mean', 'x0_true'])")


class TestCliRun:
    def test_writes_csvs(self, tmp_path, capsys):
        cfg = _small_run_config(tmp_path)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "res")])
        assert code == 0
        assert (tmp_path / "res" / "steps.csv").exists()
        assert (tmp_path / "res" / "summary.csv").exists()

    def test_summary_row_matches_steady_state_reference(self, tmp_path):
        # variant 3 with the OLS filter: the summary row reproduces the
        # reference steady-state diagonals at their printed precision
        src = (CONFIGS / "fault_h3.yaml").read_text()
        src = src.replace("filters: [CYWZ, ULISE, PLISE]", "filters: [CYWZ]")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(src)
        out = tmp_path / "res"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "summary.csv").read_text().splitlines()
        vals = np.array([float(v) for v in rows[1].split(",")[1:9]])
        want = [0.0076, 0.0052, 0.0002, 0.0004, 0.0001, 0.0097, 0.0102, 0.3906]
        assert np.max(np.abs(vals - want)) < 5e-4

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = _small_run_config(tmp_path)
        blobs = []
        for i in range(2):
            out = tmp_path / f"r{i}"
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            blobs.append((out / "steps.csv").read_bytes()
                         + (out / "summary.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_seed_override_changes_steps_not_summary(self, tmp_path):
        cfg = _small_run_config(tmp_path)
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}"
            assert main(["run", "--config", str(cfg), "--out", str(out),
                         "--seed", seed]) == 0
            outs.append(out)
        assert (outs[0] / "steps.csv").read_bytes() != (outs[1] / "steps.csv").read_bytes()
        # the covariance recursion is data independent
        assert (outs[0] / "summary.csv").read_bytes() == (outs[1] / "summary.csv").read_bytes()

    @pytest.mark.parametrize("x0_true,message", [
        ("[1.0]", r"x0_true must have shape \(5,\), got \(1,\)"),
        ("[1.0, 2.0]", r"x0_true must have shape \(5,\), got \(2,\)"),
        ("[0, .nan, 0, 0, 0]", "x0_true has non-finite entries"),
    ])
    def test_bad_x0_true_is_a_config_error(self, tmp_path, capsys, x0_true, message):
        cfg = _small_run_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("x0_true: [0, 0, 0, 0, 0]",
                                               f"x0_true: {x0_true}"))
        with pytest.raises(ConfigError, match=message):
            load_config(cfg)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "res")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: scenario: x0_")
        assert not (tmp_path / "res" / "steps.csv").exists()

    @pytest.mark.parametrize("old,new,message", [
        ("x0_mean: [0, 0, 0, 0, 0]", "x0_mean: [0, 0]",
         r"x0_mean must have shape \(5,\), got \(2,\)"),
        ("x0_mean: [0, 0, 0, 0, 0]", "x0_mean: [0, 0, .inf, 0, 0]",
         "x0_mean has non-finite entries"),
        ("P0:\n    - [1, 0, 0, 0, 0]", "P0:\n    - [.nan, 0, 0, 0, 0]",
         "P0 has non-finite entries"),
        ("P0:\n    - [1, 0, 0, 0, 0]\n", "P0:\n", r"P0 must have shape \(5, 5\), got \(4, 5\)"),
    ])
    def test_bad_x0_mean_or_p0_is_a_config_error(self, tmp_path, capsys, old, new, message):
        # the filter init would reject them too, but as a numerical failure
        # (exit 3) after the structural checks and the truth simulation
        cfg = _small_run_config(tmp_path)
        text = cfg.read_text()
        assert text.count(old) == 1
        cfg.write_text(text.replace(old, new))
        with pytest.raises(ConfigError, match=message):
            load_config(cfg)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "res")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: scenario: ") and re.search(message, err)
        assert not (tmp_path / "res" / "steps.csv").exists()

    @pytest.mark.parametrize("row,exc,message", [
        ("[1, 0.5, 0, 0, 0]", InvalidInputError, "P0 not symmetric"),
        ("[-1, 0, 0, 0, 0]", NotPositiveDefiniteError,
         r"P0 not PSD \(min eigenvalue -1.000e\+00\)"),
    ])
    def test_p0_that_fails_the_psd_rule_is_a_config_error(self, tmp_path, capsys, row, exc,
                                                          message):
        # the filters' own test of P0, made on load: before, lise run
        # exited 3 after the structural checks and the truth simulation
        cfg = _small_run_config(tmp_path)
        text = cfg.read_text()
        cfg.write_text(text.replace("P0:\n    - [1, 0, 0, 0, 0]", f"P0:\n    - {row}"))
        with pytest.raises(ConfigError, match=f"^scenario.P0: {message}$"):
            load_config(cfg)
        p0 = np.eye(5)
        p0[0] = yaml.safe_load(row)
        with pytest.raises(exc, match=f"^{message}$"):
            ulise_init(config_scenario("fault_h1").model, np.zeros(5), p0, np.zeros(5),
                       np.zeros(1))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "res")]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(f"config error: scenario.P0: {message}\n", err)
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("key,value,message", [
        ("horizon", "10.0", "horizon must be an integer, got 10.0"),
        ("horizon", "0", "horizon must be >= 1"),
        ("monte_carlo", "1.5", "monte_carlo must be an integer, got 1.5"),
        ("monte_carlo", "true", "monte_carlo must be an integer, got True"),
        ("monte_carlo", "'2'", "monte_carlo must be an integer, got '2'"),
    ])
    def test_count_keys_must_be_integers(self, tmp_path, key, value, message):
        cfg = _small_run_config(tmp_path)
        line = {"horizon": "horizon: 60", "monte_carlo": "monte_carlo: 1"}[key]
        cfg.write_text(cfg.read_text().replace(line, f"{key}: {value}"))
        with pytest.raises(ConfigError, match=f"^scenario: {message}$"):
            load_config(cfg)

    @pytest.mark.parametrize("flag,value,message", [
        ("--mc", "0", "monte_carlo must be >= 1"),
        ("--seed", "-1", "seed must be a nonnegative integer, got -1"),
    ])
    def test_bad_override_is_a_config_error_naming_the_flag(self, tmp_path, capsys,
                                                            flag, value, message):
        cfg = _small_run_config(tmp_path)
        out = tmp_path / "res"
        assert main(["run", "--config", str(cfg), "--out", str(out), flag, value]) == 1
        assert f"config error: {flag}: {message}" in capsys.readouterr().err
        assert not (out / "steps.csv").exists()

    @pytest.mark.parametrize("key,value,message", [
        ("seed", "true", "seed must be a nonnegative integer, got True"),
        ("structural_checks", '"false"',
         "structural_checks must be true or false, got 'false'"),
        ("structural_checks", "1", "structural_checks must be true or false, got 1"),
        # the steady window is a constant of the scenario, not a setting
        ("steady_window", "true", _UNKNOWN_STEADY_WINDOW),
        ("steady_window", "0.5", _UNKNOWN_STEADY_WINDOW),
    ])
    def test_mistyped_setting_is_a_config_error_naming_the_key(self, tmp_path, capsys,
                                                                key, value, message):
        # loaded as is, not coerced: "false" would read as true
        cfg = _small_run_config(tmp_path)
        text = cfg.read_text()
        old = "seed: 20260810" if key == "seed" else "monte_carlo: 1"
        new = f"{key}: {value}" if key == "seed" else f"{old}\n  {key}: {value}"
        assert text.count(old) == 1
        cfg.write_text(text.replace(old, new))
        with pytest.raises(ConfigError, match=f"^scenario: {re.escape(message)}$"):
            load_config(cfg)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "res")]) == 1
        assert f"config error: scenario: {message}" in capsys.readouterr().err
        assert not (tmp_path / "res" / "steps.csv").exists()

    @pytest.mark.parametrize("old,new,path,message", [
        ("dt: 0.01", "dt: true", "model.continuous.dt", "dt must be a real number, got True"),
        # R passes through the discretization: there is no flag to scale it
        ("dt: 0.01", "dt: 0.01\n    scale_r_by_dt: true", "model.continuous",
         "unknown key 'scale_r_by_dt' (allowed: ['A', 'B', 'C', 'D', 'G', 'H', 'Q', 'R', "
         "'dt'])"),
        ("  checks: [validate,", "  window: true\n  checks: [validate,", "analysis.window",
         "window must be a nonnegative integer, got True"),
    ])
    def test_mistyped_model_or_analysis_setting_is_a_config_error_naming_the_key(
            self, tmp_path, capsys, old, new, path, message):
        # true would read as dt = 1 or window 1
        text = (CONFIGS / "vehicle_tracking.yaml").read_text()
        assert text.count(old) == 1
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text.replace(old, new))
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_config(cfg)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "res")]) == 1
        assert f"config error: {path}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "res" / "vehicle_steps.csv").exists()

    def test_negative_seed_in_config_is_rejected_by_the_same_rule(self, tmp_path):
        cfg = _small_run_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("seed: 20260810", "seed: -1"))
        with pytest.raises(ConfigError, match="seed must be a nonnegative integer, got -1"):
            load_config(cfg)

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        cfg = _small_run_config(tmp_path)
        target = tmp_path / "from_env"
        monkeypatch.setenv("LISE_OUT_DIR", str(target))
        assert main(["run", "--config", str(cfg)]) == 0
        assert (target / "steps.csv").exists()

    def test_out_dir_from_the_config(self, tmp_path, monkeypatch):
        # neither --out nor LISE_OUT_DIR: the config's output.dir, relative
        # to the working directory
        cfg = _small_run_config(tmp_path)
        monkeypatch.delenv("LISE_OUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        assert load_config(cfg).output.dir == "out"
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "steps.csv").exists()
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_strict_aborts_on_structural_failure(self, tmp_path, capsys):
        p = tmp_path / "cfg.yaml"
        p.write_text(_UNDETECTABLE_CONFIG)
        out = tmp_path / "res"
        assert main(["run", "--config", str(p), "--out", str(out), "--strict"]) == 2
        assert not (out / "steps.csv").exists()
        # without --strict it warns and continues
        assert main(["run", "--config", str(p), "--out", str(out)]) == 0
        assert (out / "steps.csv").exists()

    @pytest.mark.parametrize("case", ["unstable-zero", "c-g-zero"])
    def test_structural_warnings_name_a_certificate_as_analyze_does(self, tmp_path, capsys,
                                                                     case):
        if case == "unstable-zero":
            # fault_h1 with an invariant zero at 1.3: both certificates fail,
            # and give no reason
            cfg = _small_run_config(tmp_path, filters="[CYWZ, ULISE, PLISE]")
            cfg.write_text(cfg.read_text().replace("- [0, 0, 0.3, 0, 1]", "- [0, 0, 1.3, 0, 1]"))
            want = ["system is not strongly detectable", "ULISE certificate: failed",
                    "PLISE certificate: failed"]
        else:
            # C G = 0 and H = 0: the certificates' precondition fails, and says why
            cfg = tmp_path / "cfg.yaml"
            cfg.write_text(_C_G_ZERO_CONFIG)
            reason = " (rank(C2 G2) = 0 != p - rank(H) = 1)"
            want = [f"ULISE certificate: precondition_failed{reason}",
                    f"PLISE certificate: precondition_failed{reason}"]
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "res")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("structural warning:")] == [
            f"structural warning: {w}" for w in want]
        # the verdict as analyze prints it, after the certificate's own label
        verdicts = dict(w.split(" certificate: ") for w in want if " certificate: " in w)
        main(["analyze", "--config", str(cfg)])
        out = capsys.readouterr().out.splitlines()
        assert f"ULISE gain convergence: {verdicts['ULISE']}" in out
        assert f"PLISE boundedness: {verdicts['PLISE']}" in out

    def test_strict_has_nothing_to_gate_without_structural_checks(self, tmp_path, capsys):
        # structural_checks: false leaves the run no report, so --strict runs on
        p = tmp_path / "cfg.yaml"
        p.write_text(_UNDETECTABLE_CONFIG.replace(
            "  filters: [ULISE]", "  filters: [ULISE]\n  structural_checks: false"))
        out = tmp_path / "res"
        assert main(["run", "--config", str(p), "--out", str(out), "--strict"]) == 0
        assert (out / "steps.csv").exists()
        assert "structural warning" not in capsys.readouterr().err


class TestCliFailures:
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_failed_filter_is_named_and_exits_3(self, tmp_path, capsys, monkeypatch,
                                                 command):
        # a non-finite measurement at k = 7 fails every filter at step 7
        real = lise.simulate.simulate_truth

        def poisoned(scenario, run_index):
            truth = real(scenario, run_index)
            truth.y[:, 7, 0] = np.nan
            return truth

        monkeypatch.setattr(lise.simulate, "simulate_truth", poisoned)
        cfg = _small_run_config(tmp_path, filters="[ULISE, PLISE]")
        argv = [command, "--config", str(cfg)]
        if command == "run":
            argv += ["--out", str(tmp_path / "res")]
        assert main(argv) == 3
        err = capsys.readouterr().err.splitlines()
        for name in ("ULISE", "PLISE"):
            assert any(line.startswith(f"{name} failed at step 7: ") and "y at k=7" in line
                       for line in err), err

    def test_compare_prints_dominance_violations(self, tmp_path, capsys, monkeypatch):
        # ULISE's steady traces doubled: both exceed PLISE's
        real = lise.cli.run_scenario

        def inflated(scenario, **kwargs):
            result = real(scenario, **kwargs)
            steady = result.filters["ULISE"].steady
            for key in ("tr_px", "tr_pd"):
                steady[key] = 2.0 * steady[key] + 1.0
            return result

        monkeypatch.setattr(lise.cli, "run_scenario", inflated)
        cfg = _small_run_config(tmp_path, filters="[ULISE, PLISE]", horizon=300)
        assert main(["compare", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == ["dominance violation: trace(Px) ULISE > PLISE",
                              "dominance violation: trace(Pd) ULISE > PLISE"]
        assert not any(line.startswith("dominance check:") for line in lines)

    def test_compare_strict_aborts_on_structural_failure(self, tmp_path, capsys):
        p = tmp_path / "cfg.yaml"
        p.write_text(_UNDETECTABLE_CONFIG.replace("filters: [ULISE]", "filters: [ULISE, CYWZ]"))
        assert main(["compare", "--config", str(p), "--strict"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "structural warning: system is not strongly detectable" in captured.err
        assert "aborting (--strict)" in captured.err


class TestCliCompare:
    def test_side_by_side_and_dominance(self, tmp_path, capsys):
        cfg = _small_run_config(tmp_path, filters="[ULISE, PLISE]", horizon=300)
        code = main(["compare", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0
        assert "dominance check: ULISE steady traces are minimal" in out
        assert "px_11" in out

    @pytest.mark.parametrize("variant", range(1, 7))
    def test_prints_the_published_steady_state_table(self, capsys, variant):
        # criterion 1's table, read off the printed rows of each filter
        assert main(["compare", "--config", str(CONFIGS / f"fault_h{variant}.yaml")]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        names = header.split()[1:]
        assert sorted(names) == sorted(STEADY_TABLE[variant])
        cells = {row.split()[0]: row.split()[1:] for row in rows}
        labels = [f"px_{i}{i}" for i in range(1, 6)] + [f"pd_{i}{i}" for i in range(1, 4)]
        for j, name in enumerate(names):
            got = np.array([float(cells[label][j]) for label in labels])
            assert np.max(np.abs(got - STEADY_TABLE[variant][name])) < 5e-4, name

    def test_rms_rows_are_the_steady_run_0_errors(self, capsys):
        assert main(["compare", "--config", str(CONFIGS / "vehicle_tracking.yaml")]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        cells = {row.split()[0]: row.split()[1:] for row in rows}
        result = lise.simulate.run_scenario(config_scenario("vehicle_tracking"))
        for j, name in enumerate(header.split()[1:]):
            steady = result.filters[name].steady
            for prefix, key in (("rms_x", "rms_err_x"), ("rms_d", "rms_err_d")):
                assert [cells[f"{prefix}_{i + 1}"][j] for i in range(len(steady[key]))] \
                    == [f"{v:.6g}" for v in steady[key]], (name, key)
        assert [label for label in cells if label.startswith("rms")] == [
            "rms_x_1", "rms_x_2", "rms_x_3", "rms_x_4", "rms_d_1", "rms_d_2"]

    @pytest.mark.parametrize("power", [-12, -8, -4, 4, 8, 12])
    def test_dominance_verdict_does_not_depend_on_the_units(self, tmp_path, capsys, power):
        # Q, R and P0 of fault_h1 scaled together by 10^power scale every
        # covariance alike; at 1e8 ULISE's trace(Px) lies 1.2e-15 (relative)
        # above CYWZ's, whose exact covariances are equal
        doc = yaml.safe_load((CONFIGS / "fault_h1.yaml").read_text())
        for node, key in ((doc["model"], "Q"), (doc["model"], "R"), (doc["scenario"], "P0")):
            node[key] = (10.0 ** power * np.array(node[key], dtype=float)).tolist()
        p = tmp_path / "cfg.yaml"
        p.write_text(yaml.safe_dump(doc))
        assert main(["compare", "--config", str(p)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "dominance check: ULISE steady traces are minimal (as expected)")

    def test_needs_two_filters(self, tmp_path, capsys):
        cfg = _small_run_config(tmp_path)
        assert main(["compare", "--config", str(cfg)]) == 1

    def test_filter_override(self, tmp_path, capsys):
        cfg = _small_run_config(tmp_path)
        code = main(["compare", "--config", str(cfg),
                     "--filters", "ULISE", "CYWZ"])
        out = capsys.readouterr().out
        assert code == 0
        assert "CYWZ" in out

    def test_takes_no_out_flag(self, tmp_path, capsys):
        # compare prints its table and writes no file
        cfg = _small_run_config(tmp_path, filters="[ULISE, PLISE]")
        out = tmp_path / "res"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 1
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, verb", [("run", "run"), ("compare", "compare")])
    def test_config_without_scenario_exits_1(self, tmp_path, capsys, command, verb):
        text = (CONFIGS / "fault_h1.yaml").read_text()
        start, end = text.index("scenario:"), text.index("analysis:")
        p = tmp_path / "cfg.yaml"
        p.write_text(text[:start] + text[end:])
        assert load_config(p).scenario is None
        argv = [command, "--config", str(p)]
        if command == "run":
            argv += ["--out", str(tmp_path / "res")]
        assert main(argv) == 1
        assert f"config has no scenario block; nothing to {verb}" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    def test_duplicate_filters_are_a_config_error(self, tmp_path, capsys):
        # on the command line and in the config's list: exit 1, naming the
        # filter, and no run
        cfg = _small_run_config(tmp_path)
        assert main(["compare", "--config", str(cfg), "--filters", "ULISE", "ULISE"]) == 1
        assert "filter 'ULISE' is requested more than once" in capsys.readouterr().err
        cfg = _small_run_config(tmp_path, filters="[ULISE, PLISE, ULISE]")
        out = tmp_path / "res"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert "filter 'ULISE' is requested more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_kalman_on_a_model_with_unknown_inputs_exits_1_before_any_work(
            self, tmp_path, capsys, monkeypatch, command):
        # in the config's list it fails at path scenario, on the command
        # line naming --filters; fault_h1 has p = 3
        monkeypatch.setattr(lise.cli, "run_scenario", None)
        message = "filter 'KALMAN' applies only to models with p = 0, got p = 3"
        cfg = _small_run_config(tmp_path, filters="[ULISE, KALMAN]")
        out = tmp_path / "res"
        argv = [command, "--config", str(cfg)] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"config error: scenario: {message}\n")
        assert not out.exists()
        if command == "compare":
            cfg = _small_run_config(tmp_path, filters="[ULISE, PLISE]")
            assert main(["compare", "--config", str(cfg), "--filters", "ULISE", "KALMAN"]) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"config error: --filters: {message}\n")


def _mutated(tmp_path, name, path, value):
    """``configs/<name>.yaml`` with the leaf at ``path`` set to ``value``
    (with the horizon 40 first), written to ``tmp_path``."""
    doc = copy.deepcopy(_HORIZON_40[name])
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    p = Path(tmp_path) / "cfg.yaml"
    p.write_text(yaml.safe_dump(doc))
    return p


def _cli(argv):
    """``(exit code, stdout, stderr)`` of ``main(argv)`` in this process; a
    RuntimeWarning raises."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


# models whose products overflow in a structural test or a filter step
_OVERFLOWS = {"A10": ("fault_h1", ("model", "A", 1, 0)), "A13": ("fault_h1", ("model", "A", 1, 3)),
              "C01": ("fault_h1", ("model", "C", 0, 1)), "Q44": ("fault_h5", ("model", "Q", 4, 4)),
              "C22": ("fault_h1", ("model", "C", 2, 2))}
# leaves whose overflow printed numpy warnings before the named error, or
# (the prior mean) wrote non-finite estimates and exited 0
_WARNED = {"x0_mean1": ("fault_h3", ("scenario", "x0_mean", 1)),
           "C20": ("fault_h2", ("model", "C", 2, 0)),
           "G12": ("fault_h1", ("model", "G", 1, 2)),
           "A44": ("fault_h6", ("model", "A", 4, 4))}


class TestNamedFailures:
    @pytest.mark.parametrize("case,command,code,stream,line", [
        ("A10", "analyze", 3, "err", "error: PLISE stability check: the fixed-gain "
                                     "companion's F_s or Q_s overflows (non-finite entries)"),
        ("A10", "run", 3, "err", "error: strong observability test: the observability matrix "
                                 "of A-hat overflows (non-finite entries)"),
        ("A13", "analyze", 0, "out", "PLISE boundedness: ok"),
        ("A13", "run", 3, "err", "error: strong observability test: "),
        ("C01", "analyze", 3, "err", "error: PLISE stability check: "),
        ("C01", "run", 3, "err", "error: PLISE stability check: "),
        ("Q44", "analyze", 2, "out", "model assumptions: VIOLATED [k=0] Q: Q has entries too "
                                     "large: its symmetric part overflows"),
        ("Q44", "run", 2, "err", "model assumptions: VIOLATED [k=0] Q: Q has entries too large: "),
    ], ids=["A10-analyze", "A10-run", "A13-analyze", "A13-run", "C01-analyze", "C01-run",
            "Q44-analyze", "Q44-run"])
    def test_a_structural_overflow_is_a_named_error(self, tmp_path, case, command, code,
                                                   stream, line):
        # an entry of 1e308 overflows a structural test's products: the last
        # line names the test and its matrix, and numpy warns nothing; a Q
        # whose symmetric part overflows fails the standing assumptions
        cfg = _mutated(tmp_path, *_OVERFLOWS[case], 1e308)
        argv = [command, "--config", str(cfg)]
        if command == "run":
            argv += ["--out", str(tmp_path / "res")]
        got, out, err = _cli(argv)
        assert got == code
        assert {"out": out, "err": err}[stream].splitlines()[-1].startswith(line), (out, err)

    def test_cywz_covariance_overflow_names_the_step(self, tmp_path):
        # fault_h1 with C[2][2] = 1e308: the covariance overflows in the
        # first step, and each reduction names its innovation covariance
        # before LAPACK sees it (CYWZ's r_hat, PLISE's r_star), with no
        # numpy warning first; each line names the step once
        cfg = _mutated(tmp_path, *_OVERFLOWS["C22"], 1e308)
        code, _, err = _cli(["run", "--config", str(cfg), "--out", str(tmp_path / "res")])
        assert code == 3
        lines = err.splitlines()
        assert ("CYWZ failed at step 1: pre-update innovation covariance has "
                "non-finite entries") in lines, lines
        assert "PLISE failed at step 1: innovation covariance r_star has non-finite entries" in (
            lines)

    def test_a_prior_mean_too_large_fails_with_the_partial_rows(self, tmp_path):
        # fault_h3 with x0_mean[1] = 1e308: every estimate of every filter is
        # non-finite from step 1, so each filter fails there, exit 3, with
        # its error row in steps.csv and no numpy warning on stderr
        cfg = _mutated(tmp_path, *_WARNED["x0_mean1"], 1e308)
        out = tmp_path / "res"
        code, _, err = _cli(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        error = ("step 1: non-finite estimate: xhat = [nan nan nan nan nan] and "
                 "dhat = [nan nan nan]")
        for name in ("CYWZ", "ULISE", "PLISE"):
            assert f"{name} failed at {error}" in err.splitlines(), err
        rows = (out / "steps.csv").read_text().splitlines()
        assert [r.split(",")[:2] for r in rows[1:]] == [
            ["1", f"{name}:ERROR:{error}"] for name in ("CYWZ", "ULISE", "PLISE")]

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_violated_assumption_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                         command):
        # as from analyze: a model that fails the standing assumptions fails
        # the check (exit 2), naming each violation, and nothing runs
        monkeypatch.setattr(lise.cli, "run_scenario", None)
        cfg = _small_run_config(tmp_path, filters="[ULISE, PLISE]")
        text = cfg.read_text()
        old = "R:\n    - [0.01, 0, 0, 0.005, 0]"
        assert text.count(old) == 1
        cfg.write_text(text.replace(old, "R:\n    - [-0.01, 0, 0, 0.005, 0]"))
        out = tmp_path / "res"
        argv = [command, "--config", str(cfg)] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "model assumptions: VIOLATED [k=0] R: R not PD\n")
        assert not out.exists()


# one leaf of a bundled config replaced by one of these values, or deleted
_DELETE = type("Delete", (), {"__repr__": lambda self: "DELETE"})()
_VALUES = (True, False, "x", None, [], {}, math.nan, math.inf, -math.inf, -1, 0, 1, 2.5, 1e30,
           1e308, -1e308, [1.0, 2.0], _DELETE)
_HORIZON_40 = {}
for _name in ("fault_h1", "fault_h2", "fault_h3", "fault_h4", "fault_h5", "fault_h6",
              "vehicle_tracking"):
    _HORIZON_40[_name] = yaml.safe_load((CONFIGS / f"{_name}.yaml").read_text())
    _HORIZON_40[_name]["scenario"]["horizon"] = 40


def _leaves(node, path=()):
    """The paths of the scalar leaves under ``node``."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaves(child, path + (key,))
    else:
        yield path


_LEAVES = [(name, path) for name, doc in _HORIZON_40.items() for path in _leaves(doc)]
# what a failure's message names: a step k, a model matrix, or a check
_NAMED = re.compile(r"\bk=\d+|\bstep \d+|\b([ABCDGHQR]|P0)\b|\b(test|check)\b")


@settings(derandomize=True, max_examples=100, deadline=None)
@given(leaf=st.sampled_from(_LEAVES), value=st.sampled_from(_VALUES))
@example(leaf=_OVERFLOWS["A10"], value=1e308)
@example(leaf=_OVERFLOWS["A13"], value=1e308)
@example(leaf=_OVERFLOWS["C01"], value=1e308)
@example(leaf=_OVERFLOWS["Q44"], value=1e308)
@example(leaf=_OVERFLOWS["C22"], value=1e308)
@example(leaf=_WARNED["x0_mean1"], value=1e308)
@example(leaf=_WARNED["C20"], value=1e200)
@example(leaf=_WARNED["G12"], value=-1e308)
@example(leaf=_WARNED["A44"], value=1e30)
def test_a_mutated_config_runs_or_fails_with_a_named_error(leaf, value):
    # lise run on a bundled config with one leaf replaced or deleted: it
    # runs, or it is a config error naming the key path, or it fails a
    # check or a step with a message that names the step, a matrix or the
    # check; an uncaught exception fails the property with its traceback.
    # No numpy warning reaches stderr
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("always", RuntimeWarning)
        cfg = _mutated(tmp, *leaf, value)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", str(cfg), "--out", os.path.join(tmp, "res")])
    err = err.getvalue()
    assert "RuntimeWarning" not in err, err
    if code == 1:
        assert re.match(r"config error: \S+: ", err), err
    elif code in (2, 3):
        assert _NAMED.search(err), err
    else:
        assert code == 0, (code, err)


# estimable but not strongly detectable (transmission zero at 1.25)
_UNDETECTABLE_CONFIG = """
model:
  A: [[0.7, -0.12], [1.0, 0.0]]
  B: [[0], [0]]
  C: [[1.0, -1.25]]
  D: [[0]]
  G: [[1.0], [0.0]]
  H: [[0.0]]
  Q: [[0.01, 0], [0, 0.01]]
  R: [[0.1]]
scenario:
  horizon: 20
  filters: [ULISE]
  d_signals:
    - {type: constant, value: 0.0}
  u_signals:
    - {type: constant, value: 0.0}
"""


_C_G_ZERO_CONFIG = """
model:
  A: [[0.5, 0.0], [0.0, 0.5]]
  B: [[0], [0]]
  C: [[1.0, 0.0]]
  D: [[0]]
  G: [[0.0], [1.0]]
  H: [[0.0]]
  Q: [[0.01, 0], [0, 0.01]]
  R: [[0.1]]
scenario:
  horizon: 20
  filters: [ULISE, PLISE]
  d_signals:
    - {type: constant, value: 0.0}
  u_signals:
    - {type: constant, value: 0.0}
"""


def _small_run_config(tmp_path, filters="[ULISE]", horizon=60) -> Path:
    src = (CONFIGS / "fault_h1.yaml").read_text()
    src = src.replace("horizon: 1000", f"horizon: {horizon}")
    src = src.replace("filters: [CYWZ, ULISE, PLISE]", f"filters: {filters}")
    p = tmp_path / "cfg.yaml"
    p.write_text(src)
    return p
