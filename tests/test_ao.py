"""Alternating-optimization driver tests."""

import dataclasses
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from onebit_oracles import cold_start

from irsprecode import ao, harness, onebit, phase
from irsprecode.ao import (
    MARGIN_RTOL,
    SolverConfig,
    alternating_optimize,
    best_round,
    frame_margins,
)
from irsprecode.baselines import no_irs_variant
from irsprecode.channel import (
    PhaseShifts,
    drop_users,
    effective_matrix,
    sample_channels,
)
from irsprecode.constellation import PskConstellation, SymbolFrame, margin
from irsprecode.onebit import build_coefficients, onebit_frame, solve_symbol
from irsprecode.phase import apg_optimize, build_phase_coefficients, max_constraint

QPSK = PskConstellation(4)
POWER = 100.0


def instance(seed, m=4, n=4, k=2, t=2, order=4):
    rng = np.random.default_rng(seed)
    c = PskConstellation(order)
    ch = sample_channels(drop_users(k, rng), m, n, rng)
    sym = SymbolFrame.random(c, k, t, rng)
    return ch, sym


def test_single_round_runs_each_step_once(monkeypatch):
    ch, sym = instance(0)
    monkeypatch.setattr(ao, "AO_MAX_OUTER", 1)
    frame, phases, trace = alternating_optimize(ch, sym, POWER, np.random.default_rng(1))
    assert len(trace) == 1
    assert isinstance(frame, np.ndarray) and frame.dtype == complex
    assert frame.shape == (sym.n_slots, 4) and not frame.flags.writeable
    assert isinstance(phases, PhaseShifts)
    assert len(trace[0].md_converged) == sym.n_slots
    assert isinstance(trace[0].apg_converged, bool)


def test_deterministic_given_seed():
    ch, sym = instance(1)
    f1, p1, t1 = alternating_optimize(ch, sym, POWER, np.random.default_rng(7))
    f2, p2, t2 = alternating_optimize(ch, sym, POWER, np.random.default_rng(7))
    assert np.array_equal(f1, f2)
    assert np.array_equal(p1.theta, p2.theta)
    assert [r.worst_margin for r in t1] == [r.worst_margin for r in t2]


def test_feasibility_of_outputs():
    ch, sym = instance(2)
    frame, phases, _ = alternating_optimize(ch, sym, POWER, np.random.default_rng(3))
    s = np.sqrt(POWER / (2 * 4))
    assert np.all(np.abs(frame.real) == s) and np.all(np.abs(frame.imag) == s)
    assert np.abs(np.abs(phases.theta) - 1.0).max() <= 1e-12
    assert np.sum(np.abs(frame) ** 2, axis=1) == pytest.approx(POWER)


def improves(worst, prev):
    return worst > prev + MARGIN_RTOL * abs(prev)


def test_a_rise_of_one_ulp_stops_the_loop(monkeypatch):
    # round 2 reads one ulp above round 1: rounding, not progress, so the
    # loop stops there and returns round 1's design
    ch, sym = instance(3)
    monkeypatch.setattr(ao, "AO_MAX_OUTER", 1)
    first, first_phases, _ = alternating_optimize(ch, sym, POWER, np.random.default_rng(5))
    monkeypatch.setattr(ao, "AO_MAX_OUTER", 5)
    seen = []

    def fake(*args):
        margins = frame_margins(*args)
        seen.append(float(margins.min()))
        if len(seen) == 2:
            return np.full_like(margins, np.nextafter(seen[0], np.inf))
        return margins

    monkeypatch.setattr(ao, "frame_margins", fake)
    frame, phases, trace = alternating_optimize(ch, sym, POWER, np.random.default_rng(5))
    assert len(trace) == 2
    assert trace[1].worst_margin == np.nextafter(trace[0].worst_margin, np.inf)
    assert [rec.stop for rec in trace] == [None, "margin"]
    assert best_round(trace) is trace[0]
    assert np.array_equal(frame, first)
    assert np.array_equal(phases.theta, first_phases.theta)


def test_trace_replicates_hand_driven_steps():
    # drive the two inner solvers by hand with the same rng stream, every
    # slot of every round solved cold: the loop must report exactly the same
    # rounds with their designs, record the rule that stopped it on the round
    # where the rules say, and return the last round that improved
    ch, sym = instance(4)
    cfg = SolverConfig()
    frame, phases, trace = alternating_optimize(ch, sym, POWER, np.random.default_rng(11))

    rng = np.random.default_rng(11)
    ph = PhaseShifts.random(4, rng)
    returned = None  # (frame, phases) of the last round that improved
    prev = None
    for i, rec in enumerate(trace, start=1):
        h_eff = effective_matrix(ch, ph)
        coeffs = [build_coefficients(h_eff, sym.symbols[:, t], QPSK, POWER)
                  for t in range(sym.n_slots)]
        results = [solve_symbol(coeff, cfg.mu, cold_start(coeff, cfg.mu)) for coeff in coeffs]
        assert rec.md_converged == [md.converged for _, md in results]
        assert np.array_equal(rec.lams, np.stack([md.lam for _, md in results]))
        fr = onebit_frame([xbar for xbar, _ in results], POWER)  # every entry at +/-s
        coeffs = build_phase_coefficients(ch, fr, sym)
        apg = apg_optimize(coeffs, ph.theta_bar, cfg.delta)
        start, ph = ph, PhaseShifts.from_theta_bar(apg.theta_bar)
        worst = float(frame_margins(ch, ph, fr, sym).min())
        assert rec.worst_margin == worst
        assert np.array_equal(rec.frame, fr)
        assert np.array_equal(rec.phases.theta, ph.theta)
        improved = prev is None or improves(worst, prev)
        if improved:
            returned = (fr, ph)
        if not improved:
            stop = "margin"
        elif np.array_equal(ph.theta, start.theta):
            stop = "fixed point"
        else:
            stop = "cap" if i == ao.AO_MAX_OUTER else None
        assert rec.stop == stop
        assert (stop is not None) == (i == len(trace))
        prev = worst
    # this instance stops on a round that did not improve, well before the
    # cap, and that round is not the one returned
    assert 1 < len(trace) < ao.AO_MAX_OUTER and not improved
    assert not np.array_equal(fr, returned[0])
    assert np.array_equal(frame, returned[0])
    assert np.array_equal(phases.theta, returned[1].theta)


def initial_phases(ch, seed):
    """The phases a run with np.random.default_rng(seed) starts from: its first draw."""
    return PhaseShifts.random(ch.g.shape[0], np.random.default_rng(seed))


def stop_rule(trace, max_outer, start):
    """The rule that ended a run, "margin", "fixed point" or "cap", derived
    from its margins, its phases and its round count (start: the phases it
    started from); checks that its last round records this rule and no
    earlier round records one. The margin rule wins when a fixed-point round
    also did not improve."""
    before = trace[-2].phases if len(trace) > 1 else start
    if len(trace) > 1 and not improves(trace[-1].worst_margin, trace[-2].worst_margin):
        rule = "margin"
    elif np.array_equal(trace[-1].phases.theta, before.theta):
        rule = "fixed point"
    else:
        assert len(trace) == max_outer
        rule = "cap"
    assert [rec.stop for rec in trace] == [None] * (len(trace) - 1) + [rule]
    return rule


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 4), n=st.integers(1, 4),
       k=st.integers(1, 2), t=st.integers(1, 3), order=st.sampled_from([2, 4, 8]),
       max_outer=st.integers(1, 6))
@example(seed=36, m=4, n=4, k=2, t=2, order=4, max_outer=6)
@example(seed=2, m=4, n=4, k=2, t=2, order=4, max_outer=6)
@example(seed=0, m=4, n=4, k=2, t=2, order=4, max_outer=2)
def test_returns_best_round_and_stops_on_the_first_stop_rule(seed, m, n, k, t, order,
                                                             max_outer):
    ch, sym = instance(seed, m=m, n=n, k=k, t=t, order=order)
    moved = []  # per round, whether its phase step changed the phases

    def phase_spy(ch, frame, symbols, phases, delta, real=ao._phase_step):
        out = real(ch, frame, symbols, phases, delta)
        moved.append(not np.array_equal(out[0].theta, phases.theta))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ao, "_phase_step", phase_spy)
        mp.setattr(ao, "AO_MAX_OUTER", max_outer)
        frame, phases, trace = alternating_optimize(ch, sym, POWER, np.random.default_rng(seed))
    margins = [rec.worst_margin for rec in trace]
    assert 1 <= len(trace) <= max_outer
    assert len(moved) == len(trace)
    # every round but the last beat its predecessor by more than the
    # tolerance and moved the phases
    for i in range(len(trace) - 1):
        assert i == 0 or improves(margins[i], margins[i - 1])
        assert moved[i]
    # the last round did not improve, and the one before it is returned; or
    # it returned the phases it started from, or hit the cap, and is returned
    rule = stop_rule(trace, max_outer, initial_phases(ch, seed))
    event(rule)
    assert (rule == "fixed point") == (not moved[-1] and rule != "margin")
    if rule == "margin":
        assert len(trace) > 1 and not improves(margins[-1], margins[-2])
        assert best_round(trace) is trace[-2]
    else:
        assert len(trace) == 1 or improves(margins[-1], margins[-2])
        assert best_round(trace) is trace[-1]
    assert frame is best_round(trace).frame and phases is best_round(trace).phases
    assert float(frame_margins(ch, phases, frame, sym).min()) == best_round(trace).worst_margin


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 4), n=st.integers(1, 4),
       k=st.integers(1, 2), t=st.integers(1, 3), order=st.sampled_from([2, 4, 8]),
       max_outer=st.integers(1, 6), n_starts=st.integers(1, 2))
def test_each_round_records_its_own_design(seed, m, n, k, t, order, max_outer, n_starts):
    # a record is the whole account of its round: its design scores exactly
    # the worst margin it records, and only the last round names a stop rule
    ch, sym = instance(seed, m=m, n=n, k=k, t=t, order=order)
    with patch.object(ao, "AO_MAX_OUTER", max_outer):
        _, _, trace = alternating_optimize(ch, sym, POWER, np.random.default_rng(seed),
                                           SolverConfig(n_starts=n_starts))
    for rec in trace:
        assert frame_margins(ch, rec.phases, rec.frame, sym).min() == rec.worst_margin
    assert [rec.stop is None for rec in trace] == [True] * (len(trace) - 1) + [False]


@pytest.mark.parametrize("seed, max_outer, rule",
                         [(36, 6, "fixed point"), (2, 6, "margin"), (0, 2, "cap")])
def test_stop_rule_examples_cover_each_rule(monkeypatch, seed, max_outer, rule):
    # the explicit examples of the property above, so that each stop rule is
    # exercised whatever hypothesis draws
    ch, sym = instance(seed)
    monkeypatch.setattr(ao, "AO_MAX_OUTER", max_outer)
    _, _, trace = alternating_optimize(ch, sym, POWER, np.random.default_rng(seed))
    assert stop_rule(trace, max_outer, initial_phases(ch, seed)) == rule


# test-local copy of the AO loop before the fixed-point rule: it stops only
# by the margin rule or the round cap
def _ref_single_run(ch, symbols, power, opts, rng):
    phases = PhaseShifts.random(ch.g.shape[0], rng)
    rounds = []  # (worst margin, md statuses, apg status, dual points)
    design = None
    for _ in range(ao.AO_MAX_OUTER):
        frame, lams, md_converged = ao._x_step(effective_matrix(ch, phases), symbols,
                                               power, opts.mu)
        phases, apg_converged = ao._phase_step(ch, frame, symbols, phases, opts.delta)
        worst = float(frame_margins(ch, phases, frame, symbols).min())
        rounds.append((worst, md_converged, apg_converged, lams))
        if len(rounds) > 1 and not improves(worst, rounds[-2][0]):
            break
        design = frame, phases
    return (*design, rounds)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 4), n=st.integers(1, 4),
       k=st.integers(1, 2), t=st.integers(1, 3), order=st.sampled_from([2, 4, 8]),
       max_outer=st.integers(1, 6))
@example(seed=36, m=4, n=4, k=2, t=2, order=4, max_outer=6)
@example(seed=8, m=4, n=4, k=2, t=2, order=4, max_outer=6)
def test_fixed_point_stop_returns_the_design_of_the_loop_without_it(seed, m, n, k, t,
                                                                    order, max_outer):
    # the x-step draws nothing from the rng, so the round after a fixed
    # point repeats it and the margin rule returns it: the loop
    # without the fixed-point rule returns the same design bit for bit, and
    # its trace is one repeat round longer exactly where a fixed point
    # stopped the new loop. APG runs without its patience stop on both sides
    ch, sym = instance(seed, m=m, n=n, k=k, t=t, order=order)
    cfg = SolverConfig()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ao, "AO_MAX_OUTER", max_outer)
        mp.setattr(phase, "APG_PATIENCE", phase.APG_MAX_ITER + 1)
        frame, phases, trace = alternating_optimize(ch, sym, POWER,
                                                    np.random.default_rng(seed), cfg)
        want_frame, want_phases, want = _ref_single_run(ch, sym, POWER, cfg,
                                                        np.random.default_rng(seed))
    assert np.array_equal(frame, want_frame)
    assert np.array_equal(phases.theta, want_phases.theta)
    rule = stop_rule(trace, max_outer, initial_phases(ch, seed))
    repeat = rule == "fixed point" and len(trace) < max_outer
    event("repeat round dropped" if repeat else "same rounds")
    assert len(want) == len(trace) + repeat
    for rec, (worst, md_converged, apg_converged, lams) in zip(trace + trace[-1:] * repeat,
                                                             want):
        assert (rec.worst_margin, rec.md_converged, rec.apg_converged) == (
            worst, md_converged, apg_converged)
        assert np.array_equal(rec.lams, lams)


def test_zero_reflected_path_stops_at_a_fixed_point_after_round_one(monkeypatch):
    # without a reflected path eta = 0, so the phase step returns its start:
    # round 1 is a fixed point, the loop stops there with one x-step and
    # returns round 1's design
    ch, sym = instance(12, m=8, n=4, k=2, t=6)
    bare = no_irs_variant(ch)
    start = PhaseShifts.random(4, np.random.default_rng(13))
    with monkeypatch.context() as mp:
        mp.setattr(ao, "AO_MAX_OUTER", 1)
        first, _, _ = alternating_optimize(bare, sym, POWER, np.random.default_rng(13))
    steps, apgs = [], []

    def step_spy(*args, real=ao._x_step):
        steps.append(real(*args))
        return steps[-1]

    def apg_spy(*args, real=ao.apg_optimize):
        apgs.append(real(*args))
        return apgs[-1]

    monkeypatch.setattr(ao, "_x_step", step_spy)
    monkeypatch.setattr(ao, "apg_optimize", apg_spy)
    frame, phases, trace = alternating_optimize(bare, sym, POWER, np.random.default_rng(13))
    assert len(trace) == len(steps) == len(apgs) == 1
    assert apgs[0].n_iter == apgs[0].best_iter == 0 and apgs[0].converged
    assert trace[0].stop == "fixed point"
    assert best_round(trace) is trace[0]
    assert np.array_equal(phases.theta, start.theta)
    assert np.array_equal(frame, first)
    assert np.array_equal(steps[0][0], first)


def test_a_phase_step_that_keeps_its_start_stops_the_loop_there():
    # desk channel 15 of seed 314 (the benchmark's desk run): round 1's APG
    # finds nothing better than its start, whose re-projection differs from
    # it in the last bits. Handed back that re-projection, the loop ran a
    # second x-step at phases only rounding had moved and stopped there by
    # the margin rule with the same worst margin; handed back the start, it
    # stops at a fixed point after round 1
    seed, index = 314, 15
    ch = harness.channel_realization(seed, index, 32, 16, 4)
    sym = SymbolFrame.random(QPSK, 4, 50, harness._substream(seed, index, harness._TAG_SYMBOLS))
    start = PhaseShifts.random(16, harness._substream(seed, index, harness._TAG_AO))
    assert not np.array_equal(phase.project_unit_modulus(start.theta_bar), start.theta_bar)
    frame, phases, trace = alternating_optimize(
        ch, sym, POWER, harness._substream(seed, index, harness._TAG_AO))
    assert [rec.stop for rec in trace] == ["fixed point"]
    assert np.array_equal(phases.theta, start.theta)
    assert trace[0].worst_margin == pytest.approx(0.012396955458872603, rel=1e-9)
    assert float(frame_margins(ch, phases, frame, sym).min()) == trace[0].worst_margin


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 4), n=st.integers(1, 4),
       k=st.integers(1, 2), t=st.integers(1, 3), order=st.sampled_from([2, 4, 8]))
@example(seed=36, m=4, n=4, k=2, t=2, order=4)
@example(seed=2175, m=1, n=1, k=1, t=1, order=2)
def test_phase_step_hands_back_its_start_exactly_when_apg_kept_it(seed, m, n, k, t, order):
    # two rounds of the loop by hand: the first phase step starts at random
    # phases, the second at the first's result, where APG often keeps its
    # start. The step returns the very object it was given exactly when no
    # APG iterate (best_iter 0 is the start) beat those phases' own
    # objective, and otherwise phases strictly better than them. APG
    # measures its start after projecting it; in the second example's round
    # 2 that projection is an ulp worse, APG's iteration 1 beats it
    # (best_iter 1) and only ties the phases given, which must come back
    ch, sym = instance(seed, m=m, n=n, k=k, t=t, order=order)
    opts = SolverConfig()
    phases = PhaseShifts.random(n, np.random.default_rng(seed))
    for _ in range(2):
        frame = ao._x_step(effective_matrix(ch, phases), sym, POWER, opts.mu)[0]
        coeffs = build_phase_coefficients(ch, frame, sym)
        res = apg_optimize(coeffs, phases.theta_bar, opts.delta)
        kept = not (res.best_iter and res.value < max_constraint(phases.theta_bar, coeffs))
        event("kept its start" if kept else "moved")
        if kept and res.best_iter:
            event("APG moved by an ulp of its projected start")
        out, _ = ao._phase_step(ch, frame, sym, phases, opts.delta)
        assert (out is phases) == kept
        if not kept:
            assert max_constraint(out.theta_bar, coeffs) < max_constraint(phases.theta_bar,
                                                                          coeffs)
        phases = out


def test_phase_step_never_hurts_margin(monkeypatch):
    # the starting phases are the first draw of the seeded rng, so the margin
    # before the first phase step is known; best-iterate tracking makes the
    # step at least as good
    monkeypatch.setattr(ao, "AO_MAX_OUTER", 1)
    for seed in range(5):
        ch, sym = instance(seed, m=6, n=6)
        frame, phases, trace = alternating_optimize(ch, sym, POWER, np.random.default_rng(seed))
        start = PhaseShifts.random(6, np.random.default_rng(seed))
        before = float(frame_margins(ch, start, frame, sym).min())
        assert trace[0].worst_margin >= before - 1e-12


def test_inner_nonconvergence_propagates_as_status(monkeypatch):
    ch, sym = instance(6)
    monkeypatch.setattr(onebit, "MD_MAX_ITER", 2)
    monkeypatch.setattr(onebit, "MD_TOL", 1e-16)
    monkeypatch.setattr(ao, "AO_MAX_OUTER", 2)
    frame, phases, trace = alternating_optimize(ch, sym, POWER, np.random.default_rng(9),
                                                SolverConfig())
    assert any(not c for rec in trace for c in rec.md_converged)
    s = np.sqrt(POWER / (2 * 4))  # output still feasible
    assert np.all(np.abs(frame.real) == s) and np.all(np.abs(frame.imag) == s)


def test_multi_start_selects_best_of_its_runs():
    ch, sym = instance(9)
    cfg = SolverConfig(n_starts=4)
    frame, phases, trace = alternating_optimize(ch, sym, POWER, np.random.default_rng(21), cfg)
    got = float(frame_margins(ch, phases, frame, sym).min())

    single = dataclasses.replace(cfg, n_starts=1)
    rng = np.random.default_rng(21)
    margins = []
    for s in rng.integers(0, 2 ** 63, size=4):
        f, p, _ = alternating_optimize(ch, sym, POWER, np.random.default_rng(int(s)), single)
        margins.append(float(frame_margins(ch, p, f, sym).min()))
    assert got == max(margins)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.sampled_from([2, 4, 8]),
       max_outer=st.integers(2, 6), n_starts=st.integers(2, 3))
@example(seed=5, order=4, max_outer=6, n_starts=3)  # the last rounds rank another start first
def test_multi_start_keeps_the_start_whose_returned_round_is_best(seed, order, max_outer,
                                                                 n_starts):
    # starts are ranked by the round each returns, not by their last rounds;
    # ties go to the earliest start
    ch, sym = instance(seed, order=order)
    cfg = SolverConfig(n_starts=n_starts)
    single = dataclasses.replace(cfg, n_starts=1)
    seeds = np.random.default_rng(seed).integers(0, 2 ** 63, size=n_starts)
    with patch.object(ao, "AO_MAX_OUTER", max_outer):
        frame, phases, trace = alternating_optimize(ch, sym, POWER,
                                                    np.random.default_rng(seed), cfg)
        runs = [alternating_optimize(ch, sym, POWER, np.random.default_rng(int(s)), single)
                for s in seeds]
    margins = [best_round(run[2]).worst_margin for run in runs]
    want_frame, want_phases, want = runs[margins.index(max(margins))]
    event("a start stopped by the margin rule"
          if any(run[2][-1].stop == "margin" for run in runs) else "no margin stop")
    assert [rec.worst_margin for rec in trace] == [rec.worst_margin for rec in want]
    assert np.array_equal(frame, want_frame)
    assert np.array_equal(phases.theta, want_phases.theta)


def test_frame_margins_matches_direct_computation():
    ch, sym = instance(10, m=5, n=3, k=3, t=4)
    rng = np.random.default_rng(0)
    phases = PhaseShifts.random(3, rng)
    s = np.sqrt(POWER / 10)
    frame = onebit_frame(s * rng.choice([-1.0, 1.0], size=(4, 10)), POWER)
    got = frame_margins(ch, phases, frame, sym)
    h_eff = effective_matrix(ch, phases)
    z = (h_eff @ frame.T) * np.conj(sym.symbols)
    assert got.shape == (3, 4)
    assert np.allclose(got, margin(z, QPSK), atol=1e-14)


def test_config_validation():
    ch, sym = instance(0)
    for power in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="power must be a finite positive number"):
            alternating_optimize(ch, sym, power, np.random.default_rng(0))
    with pytest.raises(ValueError):
        SolverConfig(n_starts=0)
    # the round cap is ao.AO_MAX_OUTER, no longer a setting
    with pytest.raises(ValueError, match=r"unknown solver config keys: \['ao_max_outer'\]"):
        SolverConfig.from_dict({"ao_max_outer": 20})
    # 1-slot and 1-user symbols used to be broadcast against the 2 x 2
    # receive points
    frame = onebit_frame(np.ones((2, 8)), 8.0)  # s = sqrt(8 / 8) = 1
    for bad in (sym.indices[:, :1], sym.indices[:1]):
        with pytest.raises(ValueError, match="symbols"):
            frame_margins(ch, PhaseShifts.ones(4), frame, SymbolFrame(bad, QPSK))


def test_small_joint_instances_near_grid_oracle():
    # scaled-down version of the joint-quality acceptance check
    c4 = QPSK
    m, n = 2, 2
    s = np.sqrt(POWER / (2 * m))
    codes = np.arange(1 << (2 * m))
    signs = ((codes[:, None] >> np.arange(2 * m)) & 1) * 2 - 1
    xs = s * (signs[:, :m] + 1j * signs[:, m:])
    ang = 2 * np.pi * np.arange(16) / 16
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        ch = sample_channels(drop_users(1, rng), m, n, rng)
        sym = SymbolFrame.random(c4, 1, 1, rng)
        best = -np.inf
        for i in range(16):
            for j in range(16):
                theta = np.exp(1j * np.array([ang[i], ang[j]]))
                h_eff = np.conj(ch.h_d) + (theta * np.conj(ch.h_r)) @ ch.g
                z = (xs @ h_eff[0]) * np.conj(sym.symbols[0, 0])
                best = max(best, float(margin(z, c4).max()))
        cfg = SolverConfig(n_starts=3, delta=1e-3)
        frame, phases, _ = alternating_optimize(ch, sym, POWER,
                                                np.random.default_rng(10000 + seed), cfg)
        got = float(frame_margins(ch, phases, frame, sym).min())
        if got >= best - 0.05 * abs(best):
            hits += 1
    assert hits >= 6
