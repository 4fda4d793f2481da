import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
