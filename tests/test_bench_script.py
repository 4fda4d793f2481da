import importlib.util
import json
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


def test_ab_steps_runs_one_repetition_on_the_same_checkout():
    # both sides are this checkout, so their outputs must be bitwise equal
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_steps.py"), "--checkout", f"a={ROOT}",
         "--checkout", f"b={ROOT}", "--reps", "1", "--steps", "20", "--configs", "fault_h1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    for name in ("online", "run", "mc"):
        res = report[name]
        assert res["bitwise_equal"] and res["reps"] == 1
        assert len(res["a"]["runs_s"]) == len(res["b"]["runs_s"]) == 1
        assert res["wins"] in (0, 1)
    assert "outputs bitwise equal: yes" in proc.stdout
