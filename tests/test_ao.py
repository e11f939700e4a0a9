"""Alternating-optimization driver tests."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsprecode import ao, onebit
from irsprecode.ao import (
    MARGIN_RTOL,
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
from irsprecode.onebit import OneBitFrame, SolverConfig, build_coefficients, solve_symbol
from irsprecode.phase import apg_optimize, build_phase_coefficients

QPSK = PskConstellation(4)
POWER = 100.0


def instance(seed, m=4, n=4, k=2, t=2, order=4):
    rng = np.random.default_rng(seed)
    c = PskConstellation(order)
    ch = sample_channels(drop_users(k, rng), m, n, rng)
    sym = SymbolFrame.random(c, k, t, rng)
    return ch, sym


def test_single_round_runs_each_step_once():
    ch, sym = instance(0)
    cfg = SolverConfig(ao_max_outer=1)
    frame, phases, trace = alternating_optimize(ch, sym, POWER, np.random.default_rng(1), cfg)
    assert len(trace) == 1
    assert isinstance(frame, OneBitFrame)
    assert isinstance(phases, PhaseShifts)
    assert len(trace[0].md_converged) == sym.n_slots
    assert isinstance(trace[0].apg_converged, bool)


def test_deterministic_given_seed():
    ch, sym = instance(1)
    f1, p1, t1 = alternating_optimize(ch, sym, POWER, np.random.default_rng(7))
    f2, p2, t2 = alternating_optimize(ch, sym, POWER, np.random.default_rng(7))
    assert np.array_equal(f1.xbar, f2.xbar)
    assert np.array_equal(p1.theta, p2.theta)
    assert [r.worst_margin for r in t1] == [r.worst_margin for r in t2]


def test_feasibility_of_outputs():
    ch, sym = instance(2)
    frame, phases, _ = alternating_optimize(ch, sym, POWER, np.random.default_rng(3))
    s = np.sqrt(POWER / (2 * 4))
    assert np.all(np.abs(frame.xbar) == s)
    assert np.abs(np.abs(phases.theta) - 1.0).max() <= 1e-12
    assert frame.power == pytest.approx(POWER)


def improves(worst, prev):
    return worst > prev + MARGIN_RTOL * abs(prev)


def test_a_rise_of_one_ulp_stops_the_loop(monkeypatch):
    # round 2 reads one ulp above round 1: rounding, not progress, so the
    # loop stops there and returns round 1's design
    ch, sym = instance(3)
    cfg = SolverConfig(ao_max_outer=5)
    first, first_phases, _ = alternating_optimize(
        ch, sym, POWER, np.random.default_rng(5), dataclasses.replace(cfg, ao_max_outer=1))
    seen = []

    def fake(*args):
        margins = frame_margins(*args)
        seen.append(float(margins.min()))
        if len(seen) == 2:
            return np.full_like(margins, np.nextafter(seen[0], np.inf))
        return margins

    monkeypatch.setattr(ao, "frame_margins", fake)
    frame, phases, trace = alternating_optimize(ch, sym, POWER, np.random.default_rng(5), cfg)
    assert len(trace) == 2
    assert trace[1].worst_margin == np.nextafter(trace[0].worst_margin, np.inf)
    assert best_round(trace) is trace[0]
    assert np.array_equal(frame.xbar, first.xbar)
    assert np.array_equal(phases.theta, first_phases.theta)


def test_trace_replicates_hand_driven_steps():
    # drive the two inner solvers by hand with the same rng stream, every
    # slot of every round solved cold: the loop must report exactly the same
    # rounds, stop where the rule says and return the last round that improved
    ch, sym = instance(4)
    m = 4
    cfg = SolverConfig()
    frame, phases, trace = alternating_optimize(ch, sym, POWER, np.random.default_rng(11))

    rng = np.random.default_rng(11)
    ph = PhaseShifts.random(4, rng)
    amplitude = float(np.sqrt(POWER / (2 * m)))
    returned = None  # (frame, phases) of the last round that improved
    prev = None
    for i, rec in enumerate(trace, start=1):
        h_eff = effective_matrix(ch, ph)
        results = [solve_symbol(build_coefficients(h_eff, sym.symbols[:, t], QPSK, POWER),
                                cfg, rng)
                   for t in range(sym.n_slots)]
        assert rec.md_converged == [res.md.converged for res in results]
        assert np.array_equal(rec.lams, np.stack([res.md.lam for res in results]))
        fr = OneBitFrame(xbar=np.stack([res.xbar for res in results]), amplitude=amplitude)
        coeffs = build_phase_coefficients(ch, fr, sym)
        apg = apg_optimize(coeffs, ph.theta_bar, cfg)
        ph = PhaseShifts.from_theta_bar(apg.theta_bar)
        worst = float(frame_margins(ch, ph, fr, sym).min())
        assert rec.iteration == i
        assert rec.worst_margin == worst
        improved = prev is None or improves(worst, prev)
        if improved:
            returned = (fr, ph)
        stop = not improved or i == cfg.ao_max_outer
        assert stop == (i == len(trace))
        prev = worst
    # this instance stops on a round that did not improve, well before the
    # cap, and that round is not the one returned
    assert 1 < len(trace) < cfg.ao_max_outer and not improved
    assert not np.array_equal(fr.xbar, returned[0].xbar)
    assert np.array_equal(frame.xbar, returned[0].xbar)
    assert np.array_equal(phases.theta, returned[1].theta)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 4), n=st.integers(1, 4),
       k=st.integers(1, 2), t=st.integers(1, 3), order=st.sampled_from([2, 4, 8]),
       max_outer=st.integers(1, 6))
def test_returns_best_round_and_stops_at_first_non_improving(seed, m, n, k, t, order,
                                                             max_outer):
    ch, sym = instance(seed, m=m, n=n, k=k, t=t, order=order)
    frame, phases, trace = alternating_optimize(ch, sym, POWER, np.random.default_rng(seed),
                                                SolverConfig(ao_max_outer=max_outer))
    margins = [rec.worst_margin for rec in trace]
    assert 1 <= len(trace) <= max_outer
    # every round but the last beat its predecessor by more than the tolerance
    for i in range(1, len(trace) - 1):
        assert improves(margins[i], margins[i - 1])
    # the last round either did not, and the one before it is returned, or
    # the run hit the cap
    if len(trace) > 1 and not improves(margins[-1], margins[-2]):
        assert best_round(trace) is trace[-2]
    else:
        assert len(trace) == max_outer
        assert best_round(trace) is trace[-1]
    assert float(frame_margins(ch, phases, frame, sym).min()) == best_round(trace).worst_margin


def test_zero_reflected_path_repeats_round_one(monkeypatch):
    # without a reflected path the phases cannot change the channel, so
    # round 2 re-solves round 1's slots from the same cold start: it
    # reproduces round 1's frame and dual points bit for bit with no MD
    # iteration, the worst margin does not rise and round 1 is returned
    ch, sym = instance(12, m=8, n=4, k=2, t=6)
    bare = no_irs_variant(ch)
    first, _, _ = alternating_optimize(bare, sym, POWER, np.random.default_rng(13),
                                       SolverConfig(ao_max_outer=1))
    steps, iters = [], []

    def step_spy(*args, real=ao._x_step):
        steps.append(real(*args))
        return steps[-1]

    def md_spy(*args, real=onebit.mirror_descent, **kwargs):
        md = real(*args, **kwargs)
        iters.append(md.n_iter)
        return md

    monkeypatch.setattr(ao, "_x_step", step_spy)
    monkeypatch.setattr(onebit, "mirror_descent", md_spy)
    frame, _, trace = alternating_optimize(bare, sym, POWER, np.random.default_rng(13))
    assert len(trace) == len(steps) == 2 and len(iters) == 2 * sym.n_slots
    assert np.array_equal(steps[1][0].xbar, steps[0][0].xbar)
    assert np.array_equal(trace[1].lams, trace[0].lams)
    assert iters[sym.n_slots:] == [0] * sym.n_slots
    assert trace[1].worst_margin == trace[0].worst_margin
    assert best_round(trace) is trace[0]
    assert np.array_equal(frame.xbar, first.xbar)


def test_phase_step_never_hurts_margin():
    # the starting phases are the first draw of the seeded rng, so the margin
    # before the first phase step is known; best-iterate tracking makes the
    # step at least as good
    for seed in range(5):
        ch, sym = instance(seed, m=6, n=6)
        frame, phases, trace = alternating_optimize(ch, sym, POWER, np.random.default_rng(seed),
                                                    SolverConfig(ao_max_outer=1))
        start = PhaseShifts.random(6, np.random.default_rng(seed))
        before = float(frame_margins(ch, start, frame, sym).min())
        assert trace[0].worst_margin >= before - 1e-12


def test_inner_nonconvergence_propagates_as_status():
    ch, sym = instance(6)
    weak = SolverConfig(md_max_iter=2, md_tol=1e-16, ao_max_outer=2)
    frame, phases, trace = alternating_optimize(ch, sym, POWER, np.random.default_rng(9), weak)
    assert any(not c for rec in trace for c in rec.md_converged)
    assert isinstance(frame, OneBitFrame)  # output still feasible


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


def test_frame_margins_matches_direct_computation():
    ch, sym = instance(10, m=5, n=3, k=3, t=4)
    rng = np.random.default_rng(0)
    phases = PhaseShifts.random(3, rng)
    s = np.sqrt(POWER / 10)
    frame = OneBitFrame(xbar=s * rng.choice([-1.0, 1.0], size=(4, 10)), amplitude=s)
    got = frame_margins(ch, phases, frame, sym)
    h_eff = effective_matrix(ch, phases)
    z = (h_eff @ frame.x.T) * np.conj(sym.symbols)
    assert got.shape == (3, 4)
    assert np.allclose(got, margin(z, QPSK), atol=1e-14)


def test_config_validation():
    ch, sym = instance(0)
    for power in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="power must be positive and finite"):
            alternating_optimize(ch, sym, power, np.random.default_rng(0))
    with pytest.raises(ValueError):
        SolverConfig(ao_max_outer=0)
    with pytest.raises(ValueError):
        SolverConfig(n_starts=0)


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
