import os
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

import lise.config
from conftest import CONFIGS
from oracles import vehicle_tracking_model
from lise.cli import main
from lise.config import load_config
from lise.errors import ConfigError
from lise.model import c2d_zoh

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

    def test_bad_signal_type(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text(load_min_config().replace("type: constant, value: 0.0",
                                               "type: sine, value: 0.0"))
        with pytest.raises(ConfigError, match="signal type"):
            load_config(p)

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

    def test_exit_1_on_usage_error(self):
        assert main(["analyze"]) == 1


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
        ("steady_window", "true", "steady_window must be a real number, got True"),
        ("steady_window", "'0.5'", "steady_window must be a real number, got '0.5'"),
    ])
    def test_mistyped_setting_is_a_config_error_naming_the_key(self, tmp_path, capsys,
                                                                key, value, message):
        # loaded as is, not coerced: "false" would read as true, true as 1.0
        cfg = _small_run_config(tmp_path)
        text = cfg.read_text()
        old = "seed: 20260810" if key == "seed" else "monte_carlo: 1"
        new = f"{key}: {value}" if key == "seed" else f"{old}\n  {key}: {value}"
        assert text.count(old) == 1
        cfg.write_text(text.replace(old, new))
        with pytest.raises(ConfigError, match=f"^scenario: {message}$"):
            load_config(cfg)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "res")]) == 1
        assert f"config error: scenario: {message}" in capsys.readouterr().err
        assert not (tmp_path / "res" / "steps.csv").exists()

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

    def test_strict_aborts_on_structural_failure(self, tmp_path, capsys):
        p = tmp_path / "cfg.yaml"
        # estimable but not strongly detectable (transmission zero at 1.25)
        p.write_text("""
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
""")
        out = tmp_path / "res"
        assert main(["run", "--config", str(p), "--out", str(out), "--strict"]) == 2
        assert not (out / "steps.csv").exists()
        # without --strict it warns and continues
        assert main(["run", "--config", str(p), "--out", str(out)]) == 0
        assert (out / "steps.csv").exists()


class TestCliCompare:
    def test_side_by_side_and_dominance(self, tmp_path, capsys):
        cfg = _small_run_config(tmp_path, filters="[ULISE, PLISE]", horizon=300)
        code = main(["compare", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0
        assert "dominance check: ULISE steady traces are minimal" in out
        assert "px_11" in out

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


def _small_run_config(tmp_path, filters="[ULISE]", horizon=60) -> Path:
    src = (CONFIGS / "fault_h1.yaml").read_text()
    src = src.replace("horizon: 1000", f"horizon: {horizon}")
    src = src.replace("filters: [CYWZ, ULISE, PLISE]", f"filters: {filters}")
    p = tmp_path / "cfg.yaml"
    p.write_text(src)
    return p
