"""Statement-deletion mutation audit of one package module.

    python3 scripts/mutation_audit.py src/irsprecode/onebit.py --out onebit.json \
        --workdir ../audit -- -m "not slow" tests perfbench

Each statement in the module's function bodies (see mutants) is replaced by
`pass` in turn, in a copy of the checkout (without .git and caches) under
--workdir, and the pytest arguments after `--` run there with a per-mutant
timeout. A mutant is killed when pytest fails or errors, survived when it
passes, and timeout when it runs past --timeout seconds (MD, APG and
model_starts loops can run to their caps under a mutant). --lines keeps the
statements that start on the given lines, such as "42-45,68". The JSON
report holds the outcome and seconds of every mutant and the counts per
outcome. The checkout itself is never written to; the unmutated selection
must pass first. One mutant runs at a time. Standard library only; not part
of the tier-1 tests or CI.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# left out of the copy the mutants run in
SKIPPED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                 ".benchmarks")


def _body_statements(node: ast.AST, in_function: bool = False):
    """Every statement inside a function body, at any depth."""
    in_function = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    for child in ast.iter_child_nodes(node):
        if in_function and isinstance(child, ast.stmt):
            yield child
        yield from _body_statements(child, in_function)


def mutants(source: str) -> list:
    """(first line, last line, mutated source) for each statement that can
    become `pass`: every statement in a function body, at any depth, except
    docstrings, `pass` itself and nested function and class definitions
    (their bodies count instead). Module-level statements and class-body
    declarations are left out. A compound statement (if, for, while, with,
    try) is one mutant as a whole, and each statement in its blocks another;
    the mutant of an elif drops it and the clauses after it. A replacement
    that does not compile is left out."""
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))
    found = []
    for node in _body_statements(ast.parse(source)):
        if (isinstance(node, (ast.Pass, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                or isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        # col offsets count UTF-8 bytes; the sources here are ASCII
        begin = starts[node.lineno - 1] + node.col_offset
        end = starts[node.end_lineno - 1] + node.end_col_offset
        mutated = source[:begin] + "pass" + source[end:]
        try:
            compile(mutated, "<mutant>", "exec")
        except SyntaxError:
            continue
        found.append((node.lineno, node.end_lineno, mutated))
    return sorted(found, key=lambda m: m[:2])


def parse_lines(text: str) -> set:
    """Line numbers from "42-45,68"."""
    keep = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        keep.update(range(int(lo), int(hi or lo) + 1))
    return keep


def run_pytest(workdir: Path, args: list, timeout: float) -> tuple:
    """(outcome, seconds, output) of one pytest run in workdir: "killed" on
    failures or errors, "survived" when it passes, "timeout" past timeout
    seconds. pytest's own usage errors and an empty selection stop the audit."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args]
    t0 = time.perf_counter()
    # its own session, so that a timeout also ends the workers a test starts
    proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return "timeout", time.perf_counter() - t0, out
    seconds = time.perf_counter() - t0
    if proc.returncode in (4, 5):  # usage error, no tests collected
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{out}")
    return ("survived" if proc.returncode == 0 else "killed"), seconds, out


def main(argv=None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    # everything after "--" goes to pytest as it is
    cut = argv.index("--") if "--" in argv else len(argv)
    argv, pytest_args = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     usage="%(prog)s module --out OUT [options] -- PYTEST_ARGS")
    parser.add_argument("module", help="module to mutate, relative to the checkout")
    parser.add_argument("--out", required=True, help="JSON report path")
    parser.add_argument("--timeout", type=float, default=150.0,
                        help="seconds per mutant (default 150)")
    parser.add_argument("--lines", help='only statements starting on these lines, "42-45,68"')
    parser.add_argument("--workdir", help="where the copy goes (default: a new temporary "
                        "directory, removed at the end)")
    args = parser.parse_args(argv)

    source = (ROOT / args.module).read_text()
    todo = mutants(source)
    if args.lines:
        keep = parse_lines(args.lines)
        todo = [m for m in todo if m[0] in keep]
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="mutation-audit-")).resolve()
    if workdir.is_relative_to(ROOT):
        raise SystemExit("--workdir must lie outside the checkout it copies")
    shutil.copytree(ROOT, workdir, ignore=SKIPPED, dirs_exist_ok=True)
    target = workdir / args.module
    try:
        outcome, baseline_s, out = run_pytest(workdir, pytest_args, args.timeout)
        if outcome != "survived":
            raise SystemExit(f"the unmutated selection did not pass ({outcome}):\n{out}")
        report = []
        for first, last, mutated in todo:
            target.write_text(mutated)
            outcome, seconds, _ = run_pytest(workdir, pytest_args, args.timeout)
            text = source.splitlines()[first - 1].strip()
            report.append({"line": first, "end_line": last, "statement": text,
                           "outcome": outcome, "seconds": round(seconds, 2)})
            print(f"{args.module}:{first} {outcome} ({seconds:.1f} s) {text}", flush=True)
        target.write_text(source)
    finally:
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    counts = {k: sum(m["outcome"] == k for m in report)
              for k in ("killed", "survived", "timeout")}
    Path(args.out).write_text(json.dumps(
        {"module": args.module, "pytest_args": pytest_args, "timeout_s": args.timeout,
         "baseline_s": round(baseline_s, 2), "counts": counts, "mutants": report},
        indent=1) + "\n")
    print(json.dumps(counts))


if __name__ == "__main__":
    main()
