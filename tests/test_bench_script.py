import functools
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench.py"
SPANS = ROOT / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_the_step_functions_of_a_run(tmp_path):
    # perfbench's traced mode expects spans of the public step functions and
    # of compute_gain_L on a lise run; its tracer rebinds them where the
    # filter pass looks them up (the module globals and simulate's dicts)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    import lise
    import lise.cli
    tracer = spans.Tracer().install(lise)
    try:
        tracer.start_pass()
        assert lise.cli.main(["run", "--config", str(ROOT / "configs" / "fault_h1.yaml"),
                              "--out", str(tmp_path)]) == 0
    finally:
        tracer.remove()
    summary = tracer.summarize(0)
    for name in ("ulise_step", "plise_step", "cywz_step", "compute_gain_L"):
        assert summary.count(f"filters.{name}") > 0, name


def test_seed_ranges(bench):
    assert bench.parse_seeds("801-803,900") == [801, 802, 803, 900]


def test_quartiles(bench):
    assert bench.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_comparison_counts_wins_in_the_better_direction(bench):
    def side(values):
        return {"metrics": {"m": {**bench.quartiles(values), "values": values}}}

    base, new = side([10.0, 10.0, 10.0]), side([9.0, 9.0, 11.0])
    lower = bench.compare(base, new, {"m": "lower"})["m"]
    higher = bench.compare(base, new, {"m": "higher"})["m"]
    assert (lower["wins"], higher["wins"], lower["pairs"]) == (2, 1, 3)
    assert lower["median_change_pct"] == pytest.approx(-10.0)
    assert lower["base_quartile_distance_pct"] == 0.0


def test_bitwise_check_finds_a_checkout_equal_to_itself(bench):
    # both sides are this checkout, so no mode's outputs differ anywhere
    assert bench.bitwise_check([("a", str(ROOT)), ("b", str(ROOT))], steps=20,
                               configs=("fault_h1",)) == {mode: [] for mode in bench.MODES}


def test_differences_name_keys_or_the_first_index(bench):
    assert bench.differences({"a": 1, "b": 2}, {"a": 1, "b": 3, "c": 4}) == ["b", "c"]
    assert bench.differences([1, 2, 3, 4], [1, 2, 0, 5]) == [2]
    assert bench.differences([1, 2], [1, 2, 3]) == [2]
    assert bench.differences([1, 2], [1, 2]) == bench.differences({"a": 1}, {"a": 1}) == []


def test_a_last_bit_in_symmetrize_fails_the_check_and_the_exit_code(bench, tmp_path,
                                                                     monkeypatch):
    # a copy whose symmetrize scales by the float after 0.5: the online step
    # outputs differ from ULISE's first, and bench.py exits 1 once its JSON
    # is written
    copy = tmp_path / "copy"
    shutil.copytree(ROOT / "src" / "lise", copy / "src" / "lise",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "configs", copy / "configs")
    linalg = copy / "src" / "lise" / "linalg.py"
    text = linalg.read_text()
    assert text.count("    s *= 0.5\n") == 1
    linalg.write_text(text.replace("    s *= 0.5\n", "    s *= 0.5000000000000001\n"))
    monkeypatch.setattr(bench, "bitwise_check", functools.partial(
        bench.bitwise_check, steps=20, configs=("fault_h1",)))
    # the perfbench pairs are not under test: every run reads the same
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    monkeypatch.setattr(bench, "run_once", lambda *args: {
        "correct": True, "attempted": 1, "failed": 0, "passes": 1, "machine": {},
        "metrics": dict.fromkeys(metrics, 1.0)})
    out = tmp_path / "bench.json"
    assert bench.main(["--checkout", f"parent={ROOT}", "--checkout", f"change={copy}",
                       "--workloads", "online_tv", "--seeds", "1", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    equal, differs = doc["bitwise_equal"], doc["bitwise_differs"]
    assert set(equal) == set(bench.MODES) and equal["online"] is False
    assert differs["online"] == [0]
    assert set(differs) == {mode for mode, same in equal.items() if not same}
    assert "ULISE xhat" in differs["tv"] and "0/summary.csv" in differs["run"]


def test_the_online_mode_compares_the_p0_steps_after_the_plant(bench, tmp_path):
    # a copy whose state gain differs in the last bit only where step k has
    # no feedthrough, which no step of the online plant lacks: the online
    # outputs differ first at the p = 0 leg's first step, after the plant's
    # three outputs per k
    copy = tmp_path / "copy"
    shutil.copytree(ROOT / "src" / "lise", copy / "src" / "lise",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "configs", copy / "configs")
    filters = copy / "src" / "lise" / "filters.py"
    text = filters.read_text()
    old = "            return k_gain.dot("
    assert text.count(old) == 1
    filters.write_text(text.replace(old, "            return 1.0000000000000002 * k_gain.dot("))
    sides = [bench.Side(label, str(root), i, 20, ("fault_h1",))
             for i, (label, root) in enumerate([("a", ROOT), ("b", copy)])]
    assert bench.differences(sides[0].online(), sides[1].online()) == [60]


@pytest.mark.parametrize("files", [(), ("configs/fault_h1.yaml",), ("src/lise/__init__.py",)],
                         ids=["missing", "no-package", "no-configs"])
def test_a_bad_checkout_is_a_usage_error_naming_it(bench, tmp_path, capsys, files):
    bad = tmp_path / "old"
    for name in files:
        (bad / name).parent.mkdir(parents=True, exist_ok=True)
        (bad / name).touch()
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        bench.main(["--checkout", f"change={ROOT}", "--checkout", f"parent={bad}",
                    "--seeds", "1", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --checkout: {bad} is not a lise checkout" in err
    assert not out.exists()


def test_loc_counts_code_lines_only(tmp_path):
    # a docstring, a comment, a blank line and three code lines, one of them
    # a string that is not a docstring
    src = tmp_path / "mod.py"
    src.write_text('"""Module\ndocstring."""\n# a comment\n\nx = 1\n'
                   'def f():\n    return "not a docstring"\n')
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "loc.py"), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"     3 {src}", "     3 total"]


def test_uncovered_lists_the_statements_a_run_never_executes(tmp_path):
    # one test that raises from the first check of Tolerance: that raise
    # ran, the next one did not, and every module body ran on import
    probe = tmp_path / "test_probe.py"
    probe.write_text("import pytest\n"
                     "from lise.errors import InvalidInputError\n"
                     "from lise.linalg import Tolerance\n\n\n"
                     "def test_probe():\n"
                     "    with pytest.raises(InvalidInputError):\n"
                     "        Tolerance(rank_rel=2.0)\n")
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "uncovered.py"), "-q",
                           "-p", "no:cacheprovider", str(probe)],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "pytest exit code: 0" in lines
    missed = [line.split(": ", 1)[1] for line in lines if line.startswith("src/lise/linalg.py:")]
    assert ('raise InvalidInputError(f"{name} must be finite and positive, got {value!r}")'
            in missed)
    assert 'raise InvalidInputError("rank_rel must lie in (0, 1)")' not in missed
    assert not [s for s in missed if s.startswith(("import ", "from ", "def ", "class "))]
    assert lines[-1].startswith("total: ") and lines[-1].endswith(" statements never executed")


def test_gain_steps_counts_computed_and_served_steps():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "gain_steps.py"), "--configs", "fault_h1",
         "fault_h3"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    header, *rows, total = [line.split() for line in proc.stdout.splitlines()]
    assert header == ["config", "filter", "gain_cycle", "computed", "served"]
    got = {(config, name): (cycle, int(computed), int(served))
           for config, name, cycle, computed, served in rows}
    # a pass computes the steps before its cycle and serves the rest of its
    # 1000 steps; PLISE on fault_h3 never repeats
    assert got == {
        ("fault_h1", "CYWZ"): ("93,1", 92, 908), ("fault_h1", "ULISE"): ("92,1", 91, 909),
        ("fault_h1", "PLISE"): ("99,5", 98, 902), ("fault_h3", "CYWZ"): ("54,1", 53, 947),
        ("fault_h3", "ULISE"): ("54,1", 53, 947), ("fault_h3", "PLISE"): ("None", 1000, 0),
    }
    assert total == ["total", "1387", "4613"]
