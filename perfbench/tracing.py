"""Spans around each layer's public functions, installed from outside the package.

A Tracer replaces every target function in every loaded irsprecode module
namespace that holds it (solve_symbol is called from ao and harness,
build_coefficients from onebit, ao and baselines), so no call goes
unrecorded; expected_calls lets a run prove that. Layer = module. A span's
self time is its duration minus the durations of the spans it encloses.
Counters are computed after a span closes, and their cost is kept out of the
self time of every enclosing span (it is reported as trace.bookkeeping_s).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time

import numpy as np

from irsprecode.baselines import SCHEMES
from irsprecode.onebit import MU_STAGES, worst_objective

SPANS = {
    "onebit": ("mirror_descent", "mbi_round", "build_coefficients", "solve_symbol"),
    "phase": ("apg_optimize", "lse_value", "lse_gradient", "project_unit_modulus",
              "max_constraint", "build_phase_coefficients"),
    "ao": ("alternating_optimize", "frame_margins"),
    "baselines": ("relaxed_slp", "zf_precode", "quantize_onebit"),
    "harness": ("simulate_transmission", "channel_realization"),
    "constellation": ("decide_index", "bit_errors"),
    "channel": ("effective_matrix",),
}
SPAN_KEYS = tuple(f"{layer}.{fn}" for layer, fns in SPANS.items() for fn in fns)

COUNTS = ("onebit.md.iters", "onebit.md.nonconverged", "onebit.mbi.fractional",
          "onebit.mbi.fractional_slots", "onebit.mbi.improved",
          "phase.apg.iters", "phase.apg.nonconverged",
          "ao.rounds", "ao.returned_worse_than_best", "harness.decisions")


def _count_md(counts, out, args):
    counts["onebit.md.iters"] += out.n_iter
    counts["onebit.md.nonconverged"] += not out.converged


def _count_mbi(counts, out, args):
    xr = np.asarray(args["xbar_relaxed"], dtype=float)
    coeff, tol = args["coeff"], args["fractional_tol"]
    s = coeff.amplitude
    n_frac = int(np.sum(np.abs(xr) < s * (1.0 - tol)))
    counts["onebit.mbi.fractional"] += n_frac
    if n_frac:
        counts["onebit.mbi.fractional_slots"] += 1
        signs = np.where(xr >= 0, s, -s)
        counts["onebit.mbi.improved"] += worst_objective(out, coeff) < worst_objective(signs, coeff)


def _count_apg(counts, out, args):
    counts["phase.apg.iters"] += out.n_iter
    counts["phase.apg.nonconverged"] += not out.converged


def _count_ao(counts, out, args):
    trace = out[2]
    counts["ao.rounds"] += len(trace)
    counts["ao.returned_worse_than_best"] += (
        trace[-1].worst_margin < max(r.worst_margin for r in trace))


def _count_sim(counts, out, args):
    counts["harness.decisions"] += out[3]


_HOOKS = {
    "onebit.mirror_descent": _count_md,
    "onebit.mbi_round": _count_mbi,
    "phase.apg_optimize": _count_apg,
    "ao.alternating_optimize": _count_ao,
    "harness.simulate_transmission": _count_sim,
}


class Tracer:
    """Context manager that records spans and counters while it is active."""

    def __init__(self):
        self.stats = {key: [0, 0.0] for key in SPAN_KEYS}  # calls, self seconds
        self.counts = dict.fromkeys(COUNTS, 0)
        self.covered_s = 0.0      # time inside top-level spans, bookkeeping included
        self.bookkeeping_s = 0.0
        self._stack = []          # per open span: seconds covered by its children
        self._undo = []

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "irsprecode" or name.startswith("irsprecode.")]
        for key in SPAN_KEYS:
            layer, fn_name = key.split(".")
            orig = getattr(importlib.import_module(f"irsprecode.{layer}"), fn_name)
            span = self._wrap(key, orig, _HOOKS.get(key))
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, span)
                        self._undo.append((mod, attr, orig))
        return self

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()
        return False

    def _wrap(self, key, fn, hook):
        stat = self.stats[key]
        stack = self._stack
        clock = time.perf_counter
        sig = inspect.signature(fn) if hook is _count_mbi else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            done = False
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                done = True
            finally:
                t1 = clock()
                stat[0] += 1
                stat[1] += t1 - t0 - stack.pop()
                t_end = t1
                if done and hook is not None:
                    if sig is not None:
                        bound = sig.bind(*args, **kwargs)
                        bound.apply_defaults()
                        hook(self.counts, out, bound.arguments)
                    else:
                        hook(self.counts, out, None)
                    t_end = clock()
                    self.bookkeeping_s += t_end - t1
                if stack:
                    stack[-1] += t_end - t0
                else:
                    self.covered_s += t_end - t0
            return out

        return span

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of one traced pass that took wall_s seconds."""
        out = {}
        for key, (calls, self_s) in self.stats.items():
            out[f"{key}.self_s"] = (self_s, "s")
            out[f"{key}.calls"] = (calls, "count")
        c = self.counts
        for name in ("onebit.md.iters", "onebit.md.nonconverged", "onebit.mbi.fractional",
                     "phase.apg.iters", "phase.apg.nonconverged",
                     "ao.returned_worse_than_best", "harness.decisions"):
            out[name] = (c[name], "count")
        slots = c["onebit.mbi.fractional_slots"]
        out["onebit.mbi.improved_frac"] = (c["onebit.mbi.improved"] / slots if slots else 0.0,
                                           "ratio")
        ao_calls = self.stats["ao.alternating_optimize"][0]
        out["ao.rounds_per_channel"] = (c["ao.rounds"] / ao_calls if ao_calls else 0.0, "count")
        unattributed = wall_s - self.covered_s
        out["harness.unattributed_s"] = (unattributed, "s")
        out["trace.bookkeeping_s"] = (self.bookkeeping_s, "s")
        for layer, fns in SPANS.items():
            layer_s = sum(self.stats[f"{layer}.{fn}"][1] for fn in fns)
            out[f"layer.{layer}.share"] = (100.0 * layer_s / wall_s, "%")
        out["layer.unattributed.share"] = (100.0 * unattributed / wall_s, "%")
        return out

    def reconcile_error(self, wall_s: float) -> float:
        """|sum of self times + bookkeeping + unattributed - wall| / wall."""
        total = (sum(s for _, s in self.stats.values()) + self.bookkeeping_s
                 + (wall_s - self.covered_s))
        return abs(total - wall_s) / wall_s


def expected_calls(cfg, ao_rounds: int) -> dict:
    """Span call counts implied by an experiment config and the AO rounds run.

    Valid for theta_policy "shared" with one design start, which is what the
    benchmark's workloads use.
    """
    if cfg.theta_policy != "shared" or cfg.solver.n_starts != 1:
        raise ValueError("call counts are derived for theta_policy 'shared', one start")
    specs = [SCHEMES[s] for s in cfg.schemes]
    ch, t, n_schemes = cfg.n_channels, cfg.t, len(specs)
    n_ao = sum(s.x_mode == "onebit" and s.with_irs for s in specs)
    n_direct = sum(s.x_mode == "onebit" and not s.with_irs for s in specs)
    # the harness caches one box solve per surface variant
    n_relaxed = len({s.with_irs for s in specs if s.x_mode in ("relaxed", "relaxed-quant")})
    n_zf = sum(s.x_mode == "zf-quant" for s in specs)
    n_rquant = sum(s.x_mode == "relaxed-quant" for s in specs)
    chain = 1 + sum(stage_mu > cfg.solver.mu for stage_mu, _ in MU_STAGES)
    sims = ch * n_schemes * len(cfg.noise_grid_db)
    margins = ao_rounds + ch * n_schemes
    one_bit_slots = t * (ao_rounds + ch * n_direct)
    return {
        "ao.alternating_optimize": ch * n_ao,
        "ao.frame_margins": margins,
        "phase.apg_optimize": ao_rounds,
        "phase.build_phase_coefficients": ao_rounds,
        "onebit.solve_symbol": one_bit_slots,
        "onebit.mbi_round": one_bit_slots,
        "onebit.mirror_descent": one_bit_slots + t * ch * n_relaxed * chain,
        "onebit.build_coefficients": one_bit_slots + t * ch * n_relaxed,
        "baselines.relaxed_slp": ch * n_relaxed,
        "baselines.zf_precode": ch * n_zf,
        "baselines.quantize_onebit": ch * (n_zf + n_rquant),
        "harness.channel_realization": ch,
        "harness.simulate_transmission": sims,
        "constellation.decide_index": sims,
        "constellation.bit_errors": sims,
        "channel.effective_matrix": ao_rounds + margins + ch * (n_relaxed + n_zf) + sims,
    }


def coverage_problems(tracer: Tracer, cfg) -> list:
    """Mismatches between traced call counts and those the run implies."""
    problems = []
    want = expected_calls(cfg, tracer.counts["ao.rounds"])
    for key, n in want.items():
        got = tracer.stats[key][0]
        if got != n:
            problems.append(f"span coverage: {key} traced {got} calls, run implies {n}")
    decisions = (len(cfg.schemes) * len(cfg.noise_grid_db) * cfg.n_channels
                 * cfg.n_noise * cfg.k * cfg.t)
    if tracer.counts["harness.decisions"] != decisions:
        problems.append(f"span coverage: harness.decisions {tracer.counts['harness.decisions']}"
                        f", run implies {decisions}")
    return problems


def median_metrics(passes: list) -> dict:
    """Metric-wise median over the metric dicts of several traced passes."""
    return {name: (statistics.median(p[name][0] for p in passes), unit)
            for name, (_, unit) in passes[0].items()}
