"""Closed-loop benchmark of irsprecode.harness.run_experiment.

One process, one caller: each run_experiment call (threads=1,
keep_channel_detail=True, record_runtime=True) returns before the next one
starts. The workload and its seed fix the inputs; --seconds fixes the number
of channels through the workload's nominal seconds per channel, so the work
of a run never depends on how fast the code under test is.

With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
alternates three untraced and three traced passes, each over a sixth of that
work, and reports per-layer metrics from tracing.Tracer: the medians over the
traced passes.
Every pass goes through the correctness gate; any failure prints the result
with "correct": false and exits 1.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import irsprecode  # noqa: E402
from irsprecode.harness import CSV_COLUMNS, run_experiment  # noqa: E402

from run import BLAS_PIN  # noqa: E402
from tracing import Tracer, coverage_problems, median_metrics  # noqa: E402
from workloads import BER_REF_DB, WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
TRACE_ROUNDS = 3
# the tail is the highest percentile with at least this many samples beyond it
TAIL_BEYOND = 10
# traced passes must account for their wall time to within this share
RECONCILE_TOL = 0.01

END_TO_END_UNITS = {
    "channels_per_s": "1/s", "design_s_p50": "s", "design_s_tail": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "ok_frac": "ratio", "margin_mean": "1", "ber_ref": "ratio",
}

_SETUP_CHILD = """\
import json, os, sys
from irsprecode.harness import ExperimentConfig
ExperimentConfig.from_dict(json.loads(sys.argv[1]))
os._exit(0)
"""
_DIGEST_COLUMNS = tuple(c for c in CSV_COLUMNS if c != "mean_runtime_s")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be read."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_pin": {k: os.environ.get(k) for k in BLAS_PIN},
        "blas_threads": _blas_threads(),
    }


def digest(records) -> str:
    """sha256 of the result rows without the runtime column."""
    rows = [[getattr(r, c) for c in _DIGEST_COLUMNS] for r in records]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def check_outputs(cfg, records, per_channel) -> list:
    """Correctness gate: what the records must satisfy given the run; [] if all hold."""
    problems = []
    if len(per_channel) != cfg.n_channels:
        problems.append(f"{len(per_channel)} channel outcomes for {cfg.n_channels} channels")
    keys = [(r.scheme, r.inv_sigma2_db) for r in records]
    if keys != [(s, db) for s in cfg.schemes for db in cfg.noise_grid_db]:
        problems.append("records do not cover schemes x noise grid in order")
    bits_per_symbol = int(math.log2(cfg.order))
    for r in records:
        n_ok = sum(res[r.scheme].ok for res in per_channel)
        syms = n_ok * cfg.k * cfg.t * cfg.n_noise
        where = f"{r.scheme} @ {r.inv_sigma2_db} dB"
        if (r.n_channels_ok, r.n_channels_failed) != (n_ok, cfg.n_channels - n_ok):
            problems.append(f"{where}: channel tally {r.n_channels_ok}+{r.n_channels_failed}"
                            f", outcomes say {n_ok} ok of {cfg.n_channels}")
        if (r.syms, r.bits) != (syms, syms * bits_per_symbol):
            problems.append(f"{where}: sent {r.syms} symbols / {r.bits} bits, "
                            f"expected {syms} / {syms * bits_per_symbol}")
        # a Gray-labelled symbol error flips between 1 and bits_per_symbol bits
        if not (0 <= r.sym_errors <= r.bit_errors <= bits_per_symbol * r.sym_errors
                and r.sym_errors <= r.syms and r.bit_errors <= r.bits):
            problems.append(f"{where}: {r.bit_errors} bit / {r.sym_errors} symbol errors "
                            f"out of {r.bits} / {r.syms} sent")
        if r.bits and r.ber != r.bit_errors / r.bits:
            problems.append(f"{where}: ber {r.ber} != {r.bit_errors}/{r.bits}")
        if n_ok and not math.isfinite(r.mean_worst_margin):
            problems.append(f"{where}: mean worst margin {r.mean_worst_margin}")
    return problems


def fail_tally(per_channel) -> Counter:
    """Failed (channel, scheme) pairs by the harness's status reason."""
    return Counter(f"fail.{o.status}" for res in per_channel for o in res.values() if not o.ok)


def tail(samples):
    """(value, label) of the highest percentile with TAIL_BEYOND samples beyond it.

    With too few samples for that percentile the maximum is reported instead.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], f"max of n={n} (fewer than {TAIL_BEYOND + 1} samples)"
    pct = 100.0 * (n - TAIL_BEYOND) / n
    return xs[n - TAIL_BEYOND - 1], f"p{pct:.0f} of n={n}, {TAIL_BEYOND} samples beyond"


def measure_setup(cfg) -> list:
    """Seconds from spawning a fresh interpreter to a built config, per repeat."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    arg = json.dumps(cfg.to_dict())
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", _SETUP_CHILD, arg], env=env, cwd=ROOT)
        # a wait with a timeout polls in steps of up to 50 ms, which would
        # quantize the measurement; a timer kills a hung child instead
        killer = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        killer.start()
        try:
            code = child.wait()
        finally:
            killer.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"set-up child exited with code {code}")
    return times


def timed_call(cfg):
    t0 = time.perf_counter()
    records, per_channel = run_experiment(cfg, threads=1, keep_channel_detail=True)
    return records, per_channel, time.perf_counter() - t0


def _say(msg=""):
    print(msg, flush=True)


def end_to_end(workload, cfg, problems):
    """Untraced run: ({end-to-end metric: (value, unit)}, attempted pairs, failed pairs)."""
    setup = measure_setup(cfg)
    _say(f"setup: {SETUP_REPEATS} fresh processes, s: "
         + " ".join(f"{v:.6f}" for v in setup))
    records, per_channel, wall = timed_call(cfg)
    problems += check_outputs(cfg, records, per_channel)
    design = [sum(o.runtime_s for o in res.values()) for res in per_channel]
    tail_s, tail_label = tail(design)
    pairs = len(per_channel) * len(cfg.schemes)
    fails = fail_tally(per_channel)
    margin = next(r.mean_worst_margin for r in records if r.scheme == workload.margin_scheme)
    ber = next(r.ber for r in records
               if r.scheme == workload.ber_scheme and r.inv_sigma2_db == BER_REF_DB)
    _say(f"run_experiment: {cfg.n_channels} channels in {wall:.3f} s")
    _say(f"design_s samples: n={len(design)}; tail = {tail_label}")
    _say(f"pairs: {pairs} attempted, {sum(fails.values())} failed "
         f"(fail_frac {sum(fails.values()) / pairs:.6f}) {dict(fails)}")
    _say(f"margin_mean reads {workload.margin_scheme}; "
         f"ber_ref reads {workload.ber_scheme} at {BER_REF_DB} dB")
    _say(f"digest: {digest(records)}")
    values = {
        "channels_per_s": cfg.n_channels / wall,
        "design_s_p50": statistics.median(design),
        "design_s_tail": tail_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - sum(fails.values()) / pairs,
        "margin_mean": margin,
        "ber_ref": ber,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, pairs, sum(fails.values())


def traced(cfg, problems):
    """Alternating untraced and traced passes: ({per-layer metric: (value, unit)},
    attempted pairs, failed pairs)."""
    plain_walls, traced_walls, passes = [], [], []
    reference = None
    attempted = failed = 0
    for _ in range(TRACE_ROUNDS):
        records, per_channel, wall = timed_call(cfg)
        plain_walls.append(wall)
        reference = reference or digest(records)
        with Tracer() as tracer:
            records_t, per_channel_t, wall_t = timed_call(cfg)
        traced_walls.append(wall_t)
        for recs, pcs in ((records, per_channel), (records_t, per_channel_t)):
            problems += check_outputs(cfg, recs, pcs)
            if digest(recs) != reference:
                problems.append("a pass produced different results from the first pass")
            attempted += len(pcs) * len(cfg.schemes)
            failed += sum(fail_tally(pcs).values())
        problems += coverage_problems(tracer, cfg)
        err = tracer.reconcile_error(wall_t)
        if err > RECONCILE_TOL:
            problems.append(f"self times reconcile with traced wall time only to {err:.2%}")
        passes.append(tracer.metrics(wall_t))
    metrics = median_metrics(passes)
    overhead = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    _say(f"passes: {TRACE_ROUNDS} x (untraced, traced) over {cfg.n_channels} channels; "
         "untraced s: " + " ".join(f"{v:.3f}" for v in plain_walls)
         + "; traced s: " + " ".join(f"{v:.3f}" for v in traced_walls))
    _say(f"digest: {reference}")
    _say("self-time share of traced wall time, per layer (median pass):")
    for name, (value, _) in metrics.items():
        if name.startswith("layer."):
            _say(f"  {name[6:-6]:<14} {value:6.2f} %")
    _say(f"  {'bookkeeping':<14} "
         f"{100.0 * metrics['trace.bookkeeping_s'][0] / statistics.median(traced_walls):6.2f} %")
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not Path(irsprecode.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"irsprecode was imported from {irsprecode.__file__}, not {SRC}")

    workload = WORKLOADS[args.workload]
    share = TRACE_ROUNDS * 2 if args.trace else 1
    cfg = workload.config(args.seed, workload.n_channels(args.seconds / share))
    _say(f"workload {workload.name}: {workload.why}")
    _say(f"config: seed {cfg.seed}, {cfg.n_channels} channels, M={cfg.m} N={cfg.n} "
         f"K={cfg.k} T={cfg.t}, schemes {','.join(cfg.schemes)}, "
         f"{len(cfg.noise_grid_db)} noise points, n_noise {cfg.n_noise}")
    _say(f"machine: {json.dumps(machine_info())}")

    problems = []
    if args.trace:
        metrics, attempted, failed = traced(cfg, problems)
    else:
        metrics, attempted, failed = end_to_end(workload, cfg, problems)
    for name, (value, unit) in metrics.items():
        _say(f"{name:<40} {value:>16.6g} {unit}")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr, flush=True)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 1 if problems else 0
