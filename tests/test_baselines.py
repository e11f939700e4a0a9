"""Tests for the comparison schemes."""

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from onebit_oracles import brute_force_onebit, cold_start, md_value, relaxed_with_duals

from irsprecode import onebit
from irsprecode.ao import SolverConfig, alternating_optimize
from irsprecode.baselines import (
    SCHEMES,
    no_irs_variant,
    quantize_onebit,
    relaxed_slp,
    rescale_to_power,
    zf_precode,
)
from irsprecode.channel import (
    PhaseShifts,
    crandn,
    drop_users,
    effective_matrix,
    sample_channels,
)
from irsprecode.constellation import PskConstellation, SymbolFrame
from irsprecode.onebit import (
    build_coefficients,
    mbi_round,
    solve_relaxed,
    solve_symbol,
    worst_objective,
)

QPSK = PskConstellation(4)
MU = SolverConfig().mu  # the joint design's default mu


def channels(seed, m=8, n=4, k=3):
    rng = np.random.default_rng(seed)
    return sample_channels(drop_users(k, rng), m, n, rng), rng


def test_zf_scalar_channel():
    sym = SymbolFrame(np.zeros((1, 1), dtype=int), QPSK)
    x, full_rank = zf_precode(np.array([[1.0 + 0j]]), sym, power=9.0)
    assert full_rank
    assert x == pytest.approx(np.array([[3.0 + 0j]]))


def test_zf_inverts_channel():
    rng = np.random.default_rng(0)
    for _ in range(10):
        h = crandn(rng, (3, 8))
        sym = SymbolFrame.random(QPSK, 3, 5, rng)
        x, full_rank = zf_precode(h, sym, power=4.0)
        assert full_rank
        # noiseless receive point is a positive multiple of the sent symbol
        y = h @ x.T
        ratio = y / sym.symbols
        assert np.allclose(ratio.imag, 0.0, atol=1e-10)
        assert np.allclose(ratio, ratio[0:1, :], atol=1e-10)
        assert ratio.real.min() > 0
        assert np.allclose(np.linalg.norm(x, axis=1) ** 2, 4.0)


def test_zf_rank_deficient_flagged():
    h = np.array([[1.0 + 0j, 2.0], [2.0, 4.0]])  # rank 1
    sym = SymbolFrame.random(QPSK, 2, 3, np.random.default_rng(1))
    x, full_rank = zf_precode(h, sym, power=1.0)
    assert not full_rank
    assert np.all(np.isfinite(x))


def test_zf_more_users_than_antennas_flagged():
    rng = np.random.default_rng(2)
    h = crandn(rng, (4, 2))
    sym = SymbolFrame.random(QPSK, 4, 2, rng)
    assert not zf_precode(h, sym, power=1.0)[1]


def test_zf_rejects_a_frame_of_another_user_count():
    h = crandn(np.random.default_rng(3), (2, 4))
    sym = SymbolFrame.random(QPSK, 3, 2, np.random.default_rng(3))
    with pytest.raises(ValueError, match="symbol frame has 3 users, channel has 2"):
        zf_precode(h, sym, power=1.0)


def test_quantize_signs_and_amplitude():
    x = np.array([[3.0 - 2.0j, -0.5 + 4.0j]])
    frame = quantize_onebit(x, power=16.0)
    s = np.sqrt(16.0 / 4)
    assert np.array_equal(frame, np.array([[s - 1j * s, -s + 1j * s]]))


def test_quantize_idempotent_and_zero_convention():
    s = np.sqrt(9.0 / 4)
    x = np.array([[s + 1j * s, -s - 1j * s]])
    again = quantize_onebit(x, power=9.0)
    assert np.array_equal(again, x)
    zero = quantize_onebit(np.zeros((2, 2), dtype=complex), power=9.0)
    assert np.array_equal(zero, np.full((2, 2), s + 1j * s))


@pytest.mark.parametrize("power", [np.nan, np.inf, -np.inf, 0.0])
def test_power_must_be_positive_and_finite(power):
    # a NaN power used to run mirror descent to its iteration cap and return
    # NaN frames, and an infinite one built a one-bit frame of amplitude inf
    ch, rng = channels(0)
    h_eff = effective_matrix(ch, PhaseShifts.ones(4))
    sym = SymbolFrame.random(QPSK, 3, 2, rng)
    x = crandn(rng, (2, 8))
    calls = [lambda: relaxed_slp(h_eff, sym, power, MU), lambda: zf_precode(h_eff, sym, power),
             lambda: quantize_onebit(x, power), lambda: rescale_to_power(x, power),
             lambda: build_coefficients(h_eff, sym.symbols[:, 0], QPSK, power)]
    for call in calls:
        with pytest.raises(ValueError, match="power must be a finite positive number"):
            call()


def test_relaxed_bound_dominates_brute_force():
    # weak duality: relax_value - mu*P/2 can never exceed the best one-bit
    # objective, and no box point can beat relax_value in regularized terms
    power = 100.0
    for seed in range(20):
        ch, rng = channels(seed, m=4, n=2, k=2)
        phases = PhaseShifts.random(2, rng)
        h_eff = effective_matrix(ch, phases)
        sym = SymbolFrame.random(QPSK, 2, 1, rng)
        (x, _), duals = relaxed_with_duals(relaxed_slp, h_eff, sym, power, mu=MU)
        relax_value = -duals[0]
        coeff = build_coefficients(h_eff, sym.symbols[:, 0], QPSK, power)
        _, bf_val = brute_force_onebit(coeff)
        assert relax_value - MU * power / 2 <= bf_val + 1e-12
        xbar = np.concatenate([x[0].real, x[0].imag])
        reg = worst_objective(xbar, coeff) + MU * (xbar @ xbar) / 2
        assert reg >= relax_value - 1e-12
        s = coeff.amplitude
        assert np.abs(xbar).max() <= s + 1e-12


def test_relaxed_rejects_a_start_block_of_another_shape():
    # T = 3 slots of K = 3 users need a (3, 6) block: extra rows were once
    # ignored and missing ones died with an IndexError
    ch, rng = channels(0)
    h_eff = effective_matrix(ch, PhaseShifts.ones(4))
    sym = SymbolFrame.random(QPSK, 3, 3, rng)
    for rows in (5, 2):
        with pytest.raises(ValueError, match=r"\(T, 2K\) = \(3, 6\)"):
            relaxed_slp(h_eff, sym, 100.0, MU, lam0=np.full((rows, 6), 1.0 / 6))
    with pytest.raises(ValueError, match=r"\(3, 6\)"):
        relaxed_slp(h_eff, sym, 100.0, MU, lam0=np.full((3, 4), 0.25))


def test_relaxed_large_mu_shrinks_solution():
    ch, rng = channels(100, m=4, n=2, k=2)
    h_eff = effective_matrix(ch, PhaseShifts.ones(2))
    sym = SymbolFrame.random(QPSK, 2, 1, rng)
    small, _ = relaxed_slp(h_eff, sym, power=100.0, mu=1e-4)
    big, _ = relaxed_slp(h_eff, sym, power=100.0, mu=1e6)
    assert np.linalg.norm(big) < 1e-3 * np.linalg.norm(small)


@pytest.mark.parametrize("mu", [5e-4, 1e-4, 2e-5])
def test_relaxed_matches_onebit_solver_internal_stage(mu):
    ch, rng = channels(101, m=6, n=3, k=3)
    phases = PhaseShifts.random(3, rng)
    h_eff = effective_matrix(ch, phases)
    sym = SymbolFrame.random(QPSK, 3, 4, rng)
    (x, converged), duals = relaxed_with_duals(relaxed_slp, h_eff, sym, power=100.0, mu=mu)
    m = 6
    for t in range(4):
        coeff = build_coefficients(h_eff, sym.symbols[:, t], QPSK, 100.0)
        lam0 = cold_start(coeff, mu)
        xbar, md = solve_symbol(coeff, mu, lam0)
        xrel, _ = solve_relaxed(coeff, mu, lam0)
        assert np.array_equal(xbar, mbi_round(xrel, coeff))  # the one-bit solver's stage
        assert np.array_equal(x[t], xrel[:m] + 1j * xrel[m:])
        assert duals[t] == md_value(md, coeff, mu)
        assert converged[t] == md.converged


def check_warm_box_after_ao(order, seed):
    """Assert that AO's last dual points start the box solve at AO's phases
    at the cold solve's result; return the rule that stopped AO."""
    # after a margin-rule stop AO's last x-step ran at the phases it returns
    # (the previous round's); after a fixed-point stop the last round's phase
    # step returned the phases its x-step ran at. Either way its last dual
    # points, passed as they are, start the box solve at the cold solve's
    # result: equal bit for bit, with no MD iteration
    ch, rng = channels(seed)
    sym = SymbolFrame.random(PskConstellation(order), 3, 6, rng)
    power, cfg = 100.0, SolverConfig()
    _, phases, trace = alternating_optimize(ch, sym, power, rng, cfg)
    rule = trace[-1].stop
    assert rule in ("margin", "fixed point")  # not the round cap
    h_eff = effective_matrix(ch, phases)
    runs = []
    real = onebit.mirror_descent

    def spy(*args, **kwargs):
        md = real(*args, **kwargs)
        runs.append(md)
        return md

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(onebit, "mirror_descent", spy)
        cold, cold_duals = relaxed_with_duals(relaxed_slp, h_eff, sym, power, cfg.mu)
        runs.clear()
        warm, warm_duals = relaxed_with_duals(relaxed_slp, h_eff, sym, power, cfg.mu,
                                              trace[-1].lams)
    assert len(runs) == sym.n_slots  # one MD call per slot at the default mu
    assert all(md.n_iter == 0 for md in runs)
    assert np.array_equal(warm_duals, cold_duals)
    for got, want in zip(warm, cold):  # x and converged
        assert np.array_equal(got, want)
    return rule


@settings(max_examples=20, deadline=None)
@given(order=st.sampled_from([2, 4, 8]), seed=st.integers(0, 2 ** 32 - 1))
@example(order=4, seed=0)
@example(order=4, seed=19)
def test_warm_start_from_ao_matches_a_cold_solve(order, seed):
    event(check_warm_box_after_ao(order, seed))


@pytest.mark.parametrize("order, seed, rule", [(4, 0, "margin"), (4, 19, "fixed point")])
def test_warm_box_examples_cover_both_rule_stops(order, seed, rule):
    # the explicit examples above, one for each rule stop, so that both are
    # checked whatever hypothesis draws; the fixed-point one runs 3 rounds
    assert check_warm_box_after_ao(order, seed) == rule


def test_no_irs_zeroes_reflected_path():
    ch, rng = channels(102)
    bare = no_irs_variant(ch)
    assert np.array_equal(bare.h_d, ch.h_d)
    assert np.array_equal(bare.h_r, ch.h_r)
    assert np.all(bare.g == 0)
    for theta in (PhaseShifts.ones(4), PhaseShifts.random(4, rng)):
        h_eff = effective_matrix(bare, theta)
        assert np.array_equal(h_eff, np.conj(ch.h_d))


def test_no_irs_phase_coefficients_vanish():
    from irsprecode.onebit import onebit_frame
    from irsprecode.phase import build_phase_coefficients

    ch, rng = channels(103, m=4, n=3, k=2)
    sym = SymbolFrame.random(QPSK, 2, 2, rng)
    s = np.sqrt(100.0 / 8)
    frame = onebit_frame(s * rng.choice([-1.0, 1.0], size=(2, 8)), 100.0)
    coeffs = build_phase_coefficients(no_irs_variant(ch), frame, sym)
    assert np.all(coeffs.eta == 0)
    assert np.all(np.isfinite(coeffs.vbar))


def test_scheme_registry():
    expected = {
        "onebit-md", "relaxed", "relaxed-quant", "zf-quant",
        "onebit-md-noirs", "relaxed-noirs", "relaxed-quant-noirs", "zf-quant-noirs",
    }
    assert set(SCHEMES) == expected
    for name, spec in SCHEMES.items():
        assert spec.with_irs == (not name.endswith("-noirs"))
