"""scripts/ab_pairs.py's summaries: pairs won per metric, medians, quartiles.

The script itself runs the benchmark from two checkouts and is not run here.
"""

import importlib.util
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)


def test_pairs_won_follows_each_metrics_direction_and_ties_count_for_neither():
    base = {0: {"rate": 10.0, "time": 2.0, "ok": 1.0},
            1: {"rate": 12.0, "time": 3.0, "ok": 1.0},
            2: {"rate": 11.0, "time": 1.0, "ok": 0.5}}
    change = {0: {"rate": 11.0, "time": 1.5, "ok": 1.0},
              1: {"rate": 12.0, "time": 3.5, "ok": 1.0},
              2: {"rate": 10.0, "time": 0.5, "ok": 1.0}}
    better = {"rate": "higher", "time": "lower", "ok": "higher"}
    assert ab_pairs.pairs_won(base, change, better) == {
        "rate": (1, 1, 1), "time": (2, 1, 0), "ok": (1, 0, 2)}


def test_side_summary_gives_the_median_and_quartiles_of_each_metric():
    runs = {seed: {"x": float(v), "y": -float(v)} for seed, v in enumerate([5, 1, 4, 2, 3])}
    summary = ab_pairs.side_summary(runs)
    q1, _, q3 = statistics.quantiles([1, 2, 3, 4, 5], n=4)
    assert summary["x"] == {"median": 3.0, "q1": q1, "q3": q3}
    assert summary["y"] == {"median": -3.0, "q1": -q3, "q3": -q1}
    assert ab_pairs.side_summary({7: {"x": 2.5}}) == {"x": {"median": 2.5, "q1": 2.5, "q3": 2.5}}


@pytest.mark.parametrize("text, seeds", [("0-9", list(range(10))), ("11", [11]),
                                         ("0-2,11", [0, 1, 2, 11])])
def test_parse_seeds(text, seeds):
    assert ab_pairs.parse_seeds(text) == seeds
