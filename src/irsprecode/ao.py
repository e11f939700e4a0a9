"""Alternating optimization of the transmit frame and the reflection phases.

Each outer round solves the T per-slot transmit designs against the current
effective channel, then re-optimizes the phase shifts against the new frame,
warm-starting from the previous round's (initially uniform random) phases.
From round 2 on, each slot's mirror descent starts at that slot's previous
dual point mixed with the uniform point, (1 - eps) lam + eps / 2K with
eps = WARM_START_MIX; round 1 starts at the uniform point.

The objective is the worst-case margin over all (user, slot) pairs. Neither
inner solver is exact (rounding and a nonconvex projection are involved), so
a round can lower it. The loop stops at the first round whose worst margin
does not beat the previous round's by more than MARGIN_RTOL times its
magnitude, and returns the previous round's design; otherwise it stops after
max_outer rounds and returns the last. The tolerance keeps last-bit rounding
in either inner solver from deciding how many rounds run. The trace records
every round that ran, with its worst margin and inner-solver statuses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelSet, PhaseShifts, effective_matrix
from .constellation import SymbolFrame, margin
from .onebit import OneBitFrame, SolveOptions, frame_array, solve_symbol
from .phase import ApgOptions, apg_optimize, build_phase_coefficients

# uniform-point weight of a warm start: an exact zero in lam stays zero under
# MD's multiplicative update, so its residual test could pass at a non-KKT point
WARM_START_MIX = 1e-6

# a round improves when its worst margin rises by more than this, relative:
# rounding in the inner solvers moves it by a few ulps, real progress by >1e-5
MARGIN_RTOL = 1e-12


@dataclass(frozen=True)
class AoConfig:
    """Outer-loop controls plus the options of both inner solvers.

    A run stops after the first round whose worst margin does not beat the
    previous round's by more than MARGIN_RTOL relative, or after max_outer
    rounds, and returns its best round's design, a OneBitFrame and its
    phases. Rounds after the first warm-start each slot's mirror descent from
    its previous dual point (module docstring).

    n_starts > 1 repeats the whole loop from independent random
    initializations and keeps the run with the best worst-case margin (ties
    go to the earliest start).
    """

    power: float
    max_outer: int = 20
    solve: SolveOptions = field(default_factory=SolveOptions)
    apg: ApgOptions = field(default_factory=ApgOptions)
    n_starts: int = 1

    def __post_init__(self):
        if not 0 < self.power < np.inf:
            raise ValueError("power must be positive and finite")
        if not isinstance(self.max_outer, int) or self.max_outer < 1:
            raise ValueError("need at least one outer round, as an integer")
        if not isinstance(self.n_starts, int) or self.n_starts < 1:
            raise ValueError("need at least one start, as an integer")


@dataclass
class AoIterationRecord:
    iteration: int
    worst_margin: float
    md_converged: list
    apg_converged: bool

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


def alternating_optimize(ch: ChannelSet, symbols: SymbolFrame, cfg: AoConfig,
                         rng: np.random.Generator):
    """Run the outer loop; returns (frame, phases, trace).

    frame and phases are the design of the best round, best_round(trace):
    the round before the last when the last did not improve, else the last.
    The trace holds every round that ran. frame is always a OneBitFrame. rng
    drives every random draw of the run (the harness passes per-channel
    substreams). With n_starts > 1 the trace of the winning start is
    returned.
    """
    if cfg.n_starts == 1:
        return _single_run(ch, symbols, cfg, rng)
    best = None
    best_margin = -np.inf
    for seed in rng.integers(0, 2 ** 63, size=cfg.n_starts):
        run = _single_run(ch, symbols, cfg, np.random.default_rng(int(seed)))
        worst = best_round(run[2]).worst_margin
        if worst > best_margin:
            best_margin = worst
            best = run
    return best


def _single_run(ch: ChannelSet, symbols: SymbolFrame, cfg: AoConfig,
                rng: np.random.Generator):
    phases = PhaseShifts.random(ch.g.shape[0], rng)
    lams = [None] * symbols.n_slots
    trace: list = []
    design = None  # (frame, phases) of the last round that improved

    for it in range(1, cfg.max_outer + 1):
        frame, lams, md_converged = _x_step(effective_matrix(ch, phases), symbols,
                                            cfg, rng, lams)
        phases, apg_converged = _phase_step(ch, frame, symbols, phases, cfg)
        worst = float(frame_margins(ch, phases, frame, symbols).min())
        trace.append(AoIterationRecord(it, worst, md_converged, apg_converged))
        if best_round(trace) is not trace[-1]:
            break
        design = frame, phases
    return (*design, trace)


def _x_step(h_eff, symbols: SymbolFrame, cfg: AoConfig, rng, lams: list):
    """T independent per-slot one-bit designs, slot t warm-started from
    lams[t] (None for a cold start); returns (frame, dual points, md statuses)."""
    results = [solve_symbol(h_eff, symbols.symbols[:, t], symbols.constellation,
                            cfg.power, cfg.solve, rng,
                            None if lam is None
                            else (1.0 - WARM_START_MIX) * lam + WARM_START_MIX / lam.size)
               for t, lam in enumerate(lams)]
    return (OneBitFrame.from_slots([res.xbar for res in results], cfg.power),
            [res.lam for res in results], [res.md.converged for res in results])


def _phase_step(ch: ChannelSet, frame, symbols: SymbolFrame,
                phases: PhaseShifts, cfg: AoConfig):
    coeffs = build_phase_coefficients(ch, frame, symbols)
    res = apg_optimize(coeffs, phases.theta_bar, cfg.apg)
    return PhaseShifts.from_theta_bar(res.theta_bar), res.converged
