"""Interleaved before/after runs of the benchmark from two checkouts.

    python3 scripts/ab_pairs.py --base ../parent --change . --workload desk \
        --seeds 0-9 --seconds 50 --out-dir bench-out

Each side runs from a fresh temporary copy of its checkout's files, those
`git ls-files --cached --others --exclude-standard` lists: the tracked and
the untracked but not ignored ones, as they are in the working tree. So
neither side runs from a directory that holds caches or test leftovers
(`.hypothesis/`, `.pytest_cache/`, `__pycache__/`). For each seed,
`perfbench/run.py --workload W --seed S --seconds X --trace 0` runs once
from each copy. The base runs first in the first pair, the change in the
second, and so on, so that neither side always runs second on a machine the
other has just warmed. The script writes BENCH_<workload>_base.json and
BENCH_<workload>_change.json, each with the run's machine line, the per-seed
values and digests, each metric's median and quartiles, and the verdicts.
It prints, per end-to-end metric of the change's BENCHMARK.json, how many
pairs each side won (a tie counts for neither) and a verdict: "gain" when the
change won at least 9 of every 10 pairs and its median beats the base's by
more than the base's interquartile range, "worse" in the mirror case,
"tied" when every pair tied (as bit-identical results do), and "unresolved"
otherwise.
Standard library only; a run that fails its correctness gate stops the script.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def parse_seeds(text: str) -> list:
    """Seeds from "0-9", "11" or "0-4,11"."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def fresh_copy(checkout: Path, dest: Path) -> Path:
    """Copy the working-tree files of the git checkout that git ls-files
    --cached --others --exclude-standard lists (a tracked file deleted from
    the tree is left out) into the new directory dest; returns dest."""
    out = subprocess.run(["git", "-C", str(checkout), "ls-files", "-z", "--cached", "--others",
                          "--exclude-standard"], capture_output=True, check=True)
    dest.mkdir(parents=True)
    for name in filter(None, out.stdout.decode().split("\0")):
        src = checkout / name
        if src.exists() or src.is_symlink():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name, follow_symlinks=False)
    return dest


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its metric values, digest and machine line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {out.returncode}:\n"
                         f"{out.stdout}{out.stderr}")
    result = json.loads(lines[-1])
    tagged = {key: value for key, _, value in (line.partition(": ") for line in lines)
              if key in ("machine", "digest")}
    return {"values": {k: m["value"] for k, m in result["metrics"].items()},
            "digest": tagged.get("digest"), "machine": json.loads(tagged["machine"])}


def side_summary(runs: dict) -> dict:
    """Median and quartiles per metric of {seed: {metric: value}}."""
    out = {}
    for name in next(iter(runs.values())):
        xs = [values[name] for values in runs.values()]
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
        out[name] = {"median": statistics.median(xs), "q1": q1, "q3": q3}
    return out


def pairs_won(base: dict, change: dict, better: dict) -> dict:
    """{metric: (change wins, base wins, ties)} over the seeds both sides ran.

    better maps each metric to "higher" or "lower"; equal values are ties.
    """
    won = {}
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        diffs = [sign * (change[seed][name] - base[seed][name]) for seed in base]
        won[name] = (sum(d > 0 for d in diffs), sum(d < 0 for d in diffs),
                     sum(d == 0 for d in diffs))
    return won


def verdict(won: tuple, base: dict, change: dict, direction: str) -> str:
    """"gain", "worse", "tied" or "unresolved" for one metric, from
    pairs_won's (change wins, base wins, ties), the two sides' side_summary
    entries and the metric's direction ("higher" or "lower" is better).

    A side must win at least 9 of every 10 pairs, ties included in the
    count, and its median must beat the other's by more than q3 - q1 of the
    base. A metric that tied on every pair is "tied".
    """
    wins, losses, ties = won
    pairs = wins + losses + ties
    if ties == pairs:
        return "tied"
    gap = (change["median"] - base["median"]) * (1 if direction == "higher" else -1)
    iqr = base["q3"] - base["q1"]
    if 10 * wins >= 9 * pairs and gap > iqr:
        return "gain"
    if 10 * losses >= 9 * pairs and -gap > iqr:
        return "worse"
    return "unresolved"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout run as the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout with the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help='e.g. "0-9,11"')
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"base": args.base, "change": args.change}
    runs = {side: {} for side in sides}
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        copies = {side: fresh_copy(checkout, Path(tmp) / side)
                  for side, checkout in sides.items()}
        for i, seed in enumerate(args.seeds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                runs[side][seed] = run_once(copies[side], args.workload, seed, args.seconds)
            print(f"seed {seed} ({' first, '.join(order)} second): " + "  ".join(
                f"{side} digest {runs[side][seed]['digest'][:8]}" for side in sides),
                flush=True)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    values = {side: {seed: r["values"] for seed, r in runs[side].items()} for side in sides}
    summary = {side: side_summary(values[side]) for side in sides}
    won = pairs_won(values["base"], values["change"], better)
    verdicts = {name: verdict(won[name], summary["base"][name], summary["change"][name],
                              direction) for name, direction in better.items()}
    for side, checkout in sides.items():
        path = args.out_dir / f"BENCH_{args.workload}_{side}.json"
        path.write_text(json.dumps({
            "workload": args.workload,
            "checkout": str(checkout.resolve()),
            "command": f"perfbench/run.py --workload {args.workload} --seed S "
                       f"--seconds {args.seconds:g} --trace 0",
            "machine": next(iter(runs[side].values()))["machine"],
            "seeds": values[side],
            "digests": {seed: r["digest"] for seed, r in runs[side].items()},
            "summary": summary[side],
            "verdicts": verdicts,
        }, indent=1) + "\n")
        print(f"wrote {path}")

    for name, (wins, losses, ties) in won.items():
        b, c = summary["base"][name], summary["change"][name]
        print(f"{name:<16} base {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}] -> "
              f"change {c['median']:.6g}  pairs won by change {wins}, base {losses}, "
              f"tied {ties}  {verdicts[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
