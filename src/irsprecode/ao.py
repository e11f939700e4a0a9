"""Alternating optimization of the transmit frame and the reflection phases.

Each outer round solves the T per-slot transmit designs against the current
effective channel, then re-optimizes the phase shifts against the new frame,
warm-starting from the previous round's (initially uniform random) phases.
Every slot solve starts cold, at its slot's onebit.model_start; a round takes
its T starts in one onebit.model_starts call. Each round's record keeps its
(T, 2K) block of dual points.

The objective is the worst-case margin over all (user, slot) pairs. Neither
inner solver is exact (rounding and a nonconvex projection are involved), so
a round can lower it. The loop stops on the first of three rules:
- margin: a round whose worst margin does not beat the previous round's by
  more than MARGIN_RTOL times its magnitude; the previous round's design is
  returned. The tolerance keeps last-bit rounding in either inner solver from
  deciding how many rounds run.
- fixed point: a round whose phase step returned, bit for bit, the phases
  its x-step ran at; that round's design is returned (or the previous one's,
  when the margin rule fires too).
- cap: ao_max_outer rounds; the last is returned.
After a margin or fixed-point stop the last round's x-step ran at the phases
the loop returns, so a box solve there from trace[-1].lams reproduces the
cold solve bit for bit (stopped_by_rule). The trace records every round that
ran, with its worst margin and inner-solver statuses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, PhaseShifts, effective_matrix
from .constellation import SymbolFrame, margin
from .onebit import (
    OneBitFrame,
    SolverConfig,
    build_coefficients,
    frame_array,
    model_starts,
    solve_symbol,
    start_mu,
)
from .phase import apg_optimize, build_phase_coefficients

# a round improves when its worst margin rises by more than this, relative:
# rounding in the inner solvers moves it by a few ulps, real progress by >1e-5
MARGIN_RTOL = 1e-12


@dataclass(eq=False)
class AoIterationRecord:
    """One outer round: its worst margin, inner-solver statuses, the (T, 2K)
    dual points its x-step ended at, one row per slot, and whether its phase
    step returned the phases its x-step ran at."""

    iteration: int
    worst_margin: float
    md_converged: list
    apg_converged: bool
    lams: np.ndarray
    fixed_point: bool

    @property
    def converged(self) -> bool:
        """Whether every inner solve of the round converged."""
        return all(self.md_converged) and self.apg_converged


def frame_margins(ch: ChannelSet, phases: PhaseShifts, frame,
                  symbols: SymbolFrame) -> np.ndarray:
    """Sector margins alpha for every (user, slot) of a concrete design."""
    h_eff = effective_matrix(ch, phases)
    z = (h_eff @ frame_array(frame).T) * np.conj(symbols.symbols)
    return margin(z, symbols.constellation)


def best_round(trace: list) -> AoIterationRecord:
    """The round a run returns: the last, unless it did not improve.

    Every earlier round beat its predecessor by more than MARGIN_RTOL
    relative, or the run would have stopped there. A NaN margin never counts
    as an improvement.
    """
    if len(trace) > 1:
        prev = trace[-2].worst_margin
        if not trace[-1].worst_margin > prev + MARGIN_RTOL * abs(prev):
            return trace[-2]
    return trace[-1]


def stopped_by_rule(trace: list) -> bool:
    """Whether a run stopped by the margin or fixed-point rule, not the round
    cap; then trace[-1]'s x-step ran at the phases the run returns."""
    return trace[-1].fixed_point or best_round(trace) is not trace[-1]


def alternating_optimize(ch: ChannelSet, symbols: SymbolFrame, power: float,
                         rng: np.random.Generator, opts: SolverConfig = SolverConfig()):
    """Run the outer loop at transmit power `power`; returns (frame, phases, trace).

    frame and phases are the design of the best round, best_round(trace):
    the round before the last when the last did not improve, else the last
    (at most opts.ao_max_outer rounds run). The trace holds every round that
    ran. frame is always a OneBitFrame. rng drives every random draw of the
    run (the harness passes per-channel substreams). The inner solvers read
    their own fields of opts.

    The run also stops after a fixed-point round (see the module docstring).
    With opts.mbi_restarts == 1 the x-step draws nothing from rng, so the
    next round would rebuild the same frame and phases and stop by the margin
    rule: the design returned is the one the loop returns without this rule.
    With more restarts, the stop skips a round whose MBI restarts would draw
    new random signs.

    opts.n_starts > 1 repeats the whole loop from independent random
    initializations and keeps the run with the best worst-case margin (ties
    go to the earliest start); the trace of the winning start is returned.
    """
    if not 0 < power < np.inf:
        raise ValueError(f"power must be positive and finite, got {power}")
    if opts.n_starts == 1:
        return _single_run(ch, symbols, power, opts, rng)
    best = None
    best_margin = -np.inf
    for seed in rng.integers(0, 2 ** 63, size=opts.n_starts):
        run = _single_run(ch, symbols, power, opts, np.random.default_rng(int(seed)))
        worst = best_round(run[2]).worst_margin
        if worst > best_margin:
            best_margin = worst
            best = run
    return best


def _single_run(ch: ChannelSet, symbols: SymbolFrame, power: float,
                opts: SolverConfig, rng: np.random.Generator):
    phases = PhaseShifts.random(ch.g.shape[0], rng)
    trace: list = []
    design = None  # (frame, phases) of the last round that improved

    for it in range(1, opts.ao_max_outer + 1):
        start = phases
        frame, lams, md_converged = _x_step(effective_matrix(ch, start), symbols,
                                            power, opts, rng)
        phases, apg_converged = _phase_step(ch, frame, symbols, start, opts)
        worst = float(frame_margins(ch, phases, frame, symbols).min())
        fixed_point = np.array_equal(phases.theta, start.theta)
        trace.append(AoIterationRecord(it, worst, md_converged, apg_converged, lams,
                                       fixed_point))
        if best_round(trace) is not trace[-1]:
            break
        design = frame, phases
        if fixed_point:
            break
    return (*design, trace)


def _x_step(h_eff, symbols: SymbolFrame, power: float, opts: SolverConfig, rng):
    """T independent cold per-slot one-bit designs, their starts taken in one
    call; returns (frame, (T, 2K) dual points, md statuses)."""
    coeffs = [build_coefficients(h_eff, symbols.symbols[:, t], symbols.constellation, power)
              for t in range(symbols.n_slots)]
    results = [solve_symbol(coeff, opts, rng, lam0)
               for coeff, lam0 in zip(coeffs, model_starts(coeffs, start_mu(opts.mu)))]
    return (OneBitFrame.from_slots([res.xbar for res in results], power),
            np.stack([res.md.lam for res in results]), [res.md.converged for res in results])


def _phase_step(ch: ChannelSet, frame, symbols: SymbolFrame,
                phases: PhaseShifts, opts: SolverConfig):
    coeffs = build_phase_coefficients(ch, frame, symbols)
    res = apg_optimize(coeffs, phases.theta_bar, opts)
    return PhaseShifts.from_theta_bar(res.theta_bar), res.converged
