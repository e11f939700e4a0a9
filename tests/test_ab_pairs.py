"""scripts/ab_pairs.py's summaries (pairs won per metric, medians, quartiles,
verdicts) and the fresh copy each side runs from.

The script itself runs the benchmark from two checkouts and is not run here.
"""

import importlib.util
import json
import shutil
import statistics
import subprocess
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


BASE = [10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0, 10.2, 9.8]  # IQR 0.4


def verdict_of(base_values, change_values, direction="higher"):
    """The verdict on one metric of two synthetic sides, a pair per index."""
    base = {seed: {"m": v} for seed, v in enumerate(base_values)}
    change = {seed: {"m": v} for seed, v in enumerate(change_values)}
    won = ab_pairs.pairs_won(base, change, {"m": direction})["m"]
    return ab_pairs.verdict(won, ab_pairs.side_summary(base)["m"],
                            ab_pairs.side_summary(change)["m"], direction)


@pytest.mark.parametrize("change, direction, want", [
    ([v + 1.0 for v in BASE], "higher", "gain"),
    ([v - 1.0 for v in BASE], "lower", "gain"),
    ([v + 1.0 for v in BASE[:9]] + BASE[9:], "higher", "gain"),  # 9 wins, a tie
    ([v + 1.0 for v in BASE[:9]] + [BASE[9] - 1.0], "higher", "gain"),  # 9 wins, a loss
    ([v - 1.0 for v in BASE], "higher", "worse"),
    ([v + 1.0 for v in BASE], "lower", "worse"),
    ([v - 1.0 for v in BASE[:9]] + BASE[9:], "higher", "worse"),
    ([v + 1.0 for v in BASE[:8]] + BASE[8:], "higher", "unresolved"),  # 8 wins, 2 ties
    ([v + 1.0 for v in BASE[:8]] + [v - 0.1 for v in BASE[8:]], "higher", "unresolved"),
    ([v + 0.1 for v in BASE], "higher", "unresolved"),  # 10/10, gap 0.1 inside the IQR
    ([v - 0.1 for v in BASE], "higher", "unresolved"),
    (BASE, "higher", "tied"),  # all tied, as bit-identical results are
    (BASE, "lower", "tied"),
    (BASE[:9] + [BASE[9] + 1.0], "higher", "unresolved"),  # 9 ties, a win
])
def test_verdict_needs_nine_in_ten_pairs_and_a_gap_beyond_the_base_iqr(change, direction, want):
    assert verdict_of(BASE, change, direction) == want


def test_main_prints_and_writes_the_verdicts(tmp_path, monkeypatch, capsys):
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "rate", "better": "higher"}, {"name": "time", "better": "lower"},
        {"name": "ok", "better": "higher"}]}))

    def run_once(checkout, workload, seed, seconds):
        shift = 1.0 if checkout.name == "change" else 0.0
        return {"values": {"rate": BASE[seed] + shift, "time": BASE[seed] + 0.1 * shift,
                           "ok": 1.0},
                "digest": "d" * 64, "machine": {"cpu": "test"}}

    monkeypatch.setattr(ab_pairs, "fresh_copy", lambda checkout, dest: dest)
    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    out = tmp_path / "out"
    assert ab_pairs.main(["--base", str(tmp_path / "base"), "--change", str(change),
                          "--workload", "w", "--seeds", "0-9", "--out-dir", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "pairs won by change 10, base 0, tied 0  gain" in printed
    assert "pairs won by change 0, base 10, tied 0  unresolved" in printed
    assert "pairs won by change 0, base 0, tied 10  tied" in printed
    for side in ("base", "change"):
        written = json.loads((out / f"BENCH_w_{side}.json").read_text())
        assert written["verdicts"] == {"rate": "gain", "time": "unresolved", "ok": "tied"}


@pytest.mark.parametrize("text, seeds", [("0-9", list(range(10))), ("11", [11]),
                                         ("0-2,11", [0, 1, 2, 11])])
def test_parse_seeds(text, seeds):
    assert ab_pairs.parse_seeds(text) == seeds


@pytest.mark.skipif(shutil.which("git") is None, reason="needs the git executable")
def test_fresh_copy_holds_the_tracked_and_untracked_files_and_nothing_ignored(tmp_path):
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)
    (repo / ".gitignore").write_text(".hypothesis/\n*.pyc\n")
    (repo / "pkg" / "tracked.py").write_text("committed\n")
    (repo / "gone.txt").write_text("tracked, then deleted from the tree\n")
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git[:3] + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "init"], check=True)
    (repo / "gone.txt").unlink()
    (repo / "pkg" / "tracked.py").write_text("as edited now\n")
    (repo / "pkg" / "untracked.py").write_text("new\n")
    (repo / ".hypothesis" / "examples").mkdir(parents=True)
    (repo / ".hypothesis" / "examples" / "x").write_text("cache\n")
    (repo / "pkg" / "mod.pyc").write_bytes(b"\0")

    dest = ab_pairs.fresh_copy(repo, tmp_path / "copy")
    files = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert files == [".gitignore", "pkg/tracked.py", "pkg/untracked.py"]
    assert (dest / "pkg" / "tracked.py").read_text() == "as edited now\n"
    with pytest.raises(FileExistsError):  # a copy always goes to a new directory
        ab_pairs.fresh_copy(repo, dest)
