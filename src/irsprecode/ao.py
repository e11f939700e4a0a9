"""Alternating optimization of the transmit frame and the reflection phases.

Each outer round solves the T per-slot transmit designs against the current
effective channel, then re-optimizes the phase shifts against the new frame,
warm-starting from the previous round's (initially uniform random) phases.
Every slot solve starts cold, at its slot's row of onebit.model_starts; a
round sets up its T slots and those starts in one onebit.frame_slots call.

The objective is the worst-case margin over all (user, slot) pairs. Neither
inner solver is exact (rounding and a nonconvex projection are involved), so
a round can lower it. The loop stops on the first of three rules:
- margin: a round whose worst margin does not beat the previous round's by
  more than MARGIN_RTOL times its magnitude; the previous round's design is
  returned. The tolerance keeps last-bit rounding in either inner solver from
  deciding how many rounds run.
- fixed point: a round whose phase step found nothing better than the
  phases its x-step ran at, and so returned them as they are; that round's
  design is returned (or the previous one's, when the margin rule fires too).
- cap: AO_MAX_OUTER rounds; the last is returned.
The trace records every round that ran, with its design, worst margin,
inner-solver statuses and (T, 2K) dual points; its last round names the rule
that stopped the run. After a margin or fixed-point stop (trace[-1].stop !=
"cap") the last round's x-step ran at the phases the loop returns, so a box
solve there from trace[-1].lams reproduces the cold solve bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, PhaseShifts, effective_matrix
from .checks import check_real
from .constellation import SymbolFrame, margin
from .onebit import OneBitFrame, SolverConfig, frame_array, frame_slots, solve_symbol
from .phase import apg_optimize, build_phase_coefficients, max_constraint

# a round improves when its worst margin rises by more than this, relative:
# rounding in the inner solvers moves it by a few ulps, real progress by >1e-5
MARGIN_RTOL = 1e-12
# the cap rule's round count; no run of desk seeds 0-4 took over 7
AO_MAX_OUTER = 20


@dataclass(eq=False)
class AoIterationRecord:
    """One outer round, trace[r - 1] for round r: its design (frame, phases),
    worst margin, inner-solver statuses and the (T, 2K) dual points its
    x-step ended at, one row per slot. stop is the rule that ended the run
    ("margin", "fixed point" or "cap") on the round that ended it, and None
    on every earlier round."""

    worst_margin: float
    md_converged: list
    apg_converged: bool
    lams: np.ndarray
    frame: OneBitFrame
    phases: PhaseShifts
    stop: str | None

    @property
    def converged(self) -> bool:
        """Whether every inner solve of the round converged."""
        return all(self.md_converged) and self.apg_converged


def receive_points(ch: ChannelSet, phases: PhaseShifts, frame,
                   symbols: SymbolFrame) -> np.ndarray:
    """Noise-free K x T receive points of a design for a K x T symbol frame."""
    z = effective_matrix(ch, phases) @ frame_array(frame).T
    if symbols.indices.shape != z.shape:
        raise ValueError(f"symbols are {symbols.indices.shape}, receive points {z.shape}")
    return z


def frame_margins(ch: ChannelSet, phases: PhaseShifts, frame,
                  symbols: SymbolFrame) -> np.ndarray:
    """Sector margins alpha for every (user, slot) of a concrete design."""
    z = receive_points(ch, phases, frame, symbols) * np.conj(symbols.symbols)
    return margin(z, symbols.constellation)


def best_round(trace: list) -> AoIterationRecord:
    """The round a run returns: the one before the last after a margin stop,
    else the last."""
    return trace[-2] if trace[-1].stop == "margin" else trace[-1]


def alternating_optimize(ch: ChannelSet, symbols: SymbolFrame, power: float,
                         rng: np.random.Generator, opts: SolverConfig = SolverConfig()):
    """Run the outer loop at transmit power `power`; returns (frame, phases, trace).

    frame and phases are the design of the best round, best_round(trace):
    the round before the last when the last did not improve, else the last
    (at most AO_MAX_OUTER rounds run). The trace holds every round that
    ran. frame is always a OneBitFrame. rng drives every random draw of the
    run (the harness passes per-channel substreams). The inner solvers read
    their own fields of opts.

    The run also stops after a fixed-point round (see the module docstring).
    The x-step draws nothing from rng, so the next round would rebuild the
    same frame and phases and stop by the margin rule: the design returned is
    the one the loop returns without this rule.

    opts.n_starts > 1 repeats the whole loop from independent random
    initializations and keeps the run with the best worst-case margin (ties
    go to the earliest start); the trace of the winning start is returned.
    """
    check_real("power", power, positive=True)
    if opts.n_starts == 1:
        rngs = [rng]
    else:
        rngs = [np.random.default_rng(int(seed))
                for seed in rng.integers(0, 2 ** 63, size=opts.n_starts)]
    trace = max((_single_run(ch, symbols, power, opts, r) for r in rngs),
                key=lambda run: best_round(run).worst_margin)
    best = best_round(trace)
    return best.frame, best.phases, trace


def _single_run(ch: ChannelSet, symbols: SymbolFrame, power: float,
                opts: SolverConfig, rng: np.random.Generator) -> list:
    """One run of the loop from a random start; returns its trace."""
    phases = PhaseShifts.random(ch.g.shape[0], rng)
    trace: list = []
    for it in range(1, AO_MAX_OUTER + 1):
        start = phases
        frame, lams, md_converged = _x_step(effective_matrix(ch, start), symbols,
                                            power, opts)
        phases, apg_converged = _phase_step(ch, frame, symbols, start, opts)
        worst = float(frame_margins(ch, phases, frame, symbols).min())
        # a NaN margin never counts as an improvement
        prev = trace[-1].worst_margin if trace else None
        if prev is not None and not worst > prev + MARGIN_RTOL * abs(prev):
            stop = "margin"
        elif np.array_equal(phases.theta, start.theta):
            stop = "fixed point"
        else:
            stop = "cap" if it == AO_MAX_OUTER else None
        trace.append(AoIterationRecord(worst, md_converged, apg_converged, lams,
                                       frame, phases, stop))
        if stop:
            break
    return trace


def _x_step(h_eff, symbols: SymbolFrame, power: float, opts: SolverConfig):
    """T independent cold per-slot one-bit designs, set up by frame_slots;
    returns (frame, (T, 2K) dual points, md statuses)."""
    results = [solve_symbol(coeff, opts, lam0)
               for coeff, lam0 in frame_slots(h_eff, symbols, power, opts)]
    return (OneBitFrame.from_slots([xbar for xbar, _ in results], power),
            np.stack([md.lam for _, md in results]), [md.converged for _, md in results])


def _phase_step(ch: ChannelSet, frame, symbols: SymbolFrame,
                phases: PhaseShifts, opts: SolverConfig):
    """APG from phases; returns (phases, converged), phases as given when no
    APG iterate beat their own objective (APG measures its start projected,
    an ulp off at times), so that rounding cannot hide a fixed point."""
    coeffs = build_phase_coefficients(ch, frame, symbols)
    res = apg_optimize(coeffs, phases.theta_bar, opts)
    if res.best_iter and res.value < max_constraint(phases.theta_bar, coeffs):
        phases = PhaseShifts.from_theta_bar(res.theta_bar)
    return phases, res.converged
