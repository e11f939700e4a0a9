"""Phase-design tests: coefficients, smoothing, projection, momentum, APG."""

import numpy as np
import pytest

from irsprecode.channel import (
    ChannelSet,
    GeometryConfig,
    PhaseShifts,
    effective_matrix,
    sample_channels,
    sample_scenario,
)
from irsprecode.constellation import PskConstellation, SymbolFrame, margin
from irsprecode.onebit import OneBitFrame
from irsprecode.phase import (
    ApgOptions,
    PhaseCoefficients,
    apg_optimize,
    build_phase_coefficients,
    lse_gradient,
    lse_value,
    max_constraint,
    momentum_sequence,
    project_unit_modulus,
)

QPSK = PskConstellation(4)


def random_setup(rng, m=6, n=4, k=2, t=3, order=4, power=100.0):
    c = PskConstellation(order)
    sc = sample_scenario(GeometryConfig(), k, rng)
    ch = sample_channels(sc, m, n, rng)
    sym = SymbolFrame.random(c, k, t, rng)
    s = np.sqrt(power / (2 * m))
    xbar = s * rng.choice([-1.0, 1.0], size=(t, 2 * m))
    return ch, OneBitFrame(xbar=xbar, amplitude=s), sym, c


def random_theta_bar(n, rng):
    return PhaseShifts.random(n, rng).theta_bar


# --- coefficient assembly ----------------------------------------------------

def test_phase_coefficients_hand_case():
    ch = ChannelSet(h_d=np.array([[2 + 1j]]), g=np.array([[0.5 - 0.25j]]),
                    h_r=np.array([[1 + 1j]]))
    frame = np.array([[1 + 1j]])
    sym = SymbolFrame.from_symbols(np.array([[1 + 0j]]), QPSK)
    coeffs = build_phase_coefficients(ch, frame, sym, QPSK)
    assert coeffs.eta.shape == (2, 2)
    assert np.allclose(coeffs.eta[:, 0], [-1.5, 0.5])
    assert np.allclose(coeffs.eta[:, 1], [-0.5, -1.5])
    assert np.allclose(coeffs.vbar, [-2.0, -4.0])


def test_phase_coefficients_match_direct_margin():
    # max over a pair's two columns equals the negated margin from the
    # effective channel, on random instances and random feasible phases
    rng = np.random.default_rng(0)
    for _ in range(100):
        k, t = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        order = int(rng.choice([2, 4, 8]))
        ch, frame, sym, c = random_setup(rng, m=5, n=4, k=k, t=t, order=order)
        coeffs = build_phase_coefficients(ch, frame, sym, c)
        phases = PhaseShifts.random(4, rng)
        h_eff = effective_matrix(ch, phases)
        z = (h_eff @ frame.x.T).T * np.conj(sym.symbols).T  # (T, K)
        alpha = margin(z, c)
        vals = phases.theta_bar @ coeffs.eta + coeffs.vbar
        kt = k * t
        pair_max = np.maximum(vals[:kt], vals[kt:]).reshape(t, k)
        assert np.allclose(pair_max, -alpha, atol=1e-10)


def test_phase_coefficients_zero_g_direct_only():
    rng = np.random.default_rng(1)
    ch, frame, sym, c = random_setup(rng)
    ch0 = ChannelSet(h_d=ch.h_d, g=np.zeros_like(ch.g), h_r=ch.h_r)
    coeffs = build_phase_coefficients(ch0, frame, sym, c)
    assert np.all(coeffs.eta == 0)
    # vbar alone carries the direct-link margins
    h_eff = np.conj(ch.h_d)
    z = (h_eff @ frame.x.T).T * np.conj(sym.symbols).T
    alpha = margin(z, c)
    kt = sym.n_users * sym.n_slots
    pair_max = np.maximum(coeffs.vbar[:kt], coeffs.vbar[kt:])
    assert np.allclose(pair_max.reshape(sym.n_slots, sym.n_users), -alpha, atol=1e-12)


def test_phase_coefficients_dimension_errors():
    rng = np.random.default_rng(2)
    ch, frame, sym, c = random_setup(rng, m=6, t=3)
    bad = np.ones((3, 5), dtype=complex)  # wrong antenna count
    with pytest.raises(ValueError):
        build_phase_coefficients(ch, bad, sym, c)
    sym_bad = SymbolFrame.random(c, 3, 3, np.random.default_rng(0))  # wrong K
    with pytest.raises(ValueError):
        build_phase_coefficients(ch, frame, sym_bad, c)
    with pytest.raises(ValueError):
        PhaseCoefficients(eta=np.ones((3, 2)), vbar=np.zeros(2))
    with pytest.raises(ValueError):
        PhaseCoefficients(eta=np.ones((2, 2)), vbar=np.zeros(3))


# --- log-sum-exp smoothing ---------------------------------------------------

def test_lse_single_effective_term():
    # second column pushed far below: h equals the surviving term
    coeffs = PhaseCoefficients(eta=np.array([[1.0, 0.0], [0.0, 0.0]]),
                               vbar=np.array([0.5, -1e6]))
    tb = np.array([0.6, 0.8])
    assert lse_value(tb, coeffs, 1e-2) == pytest.approx(1.1, abs=1e-15)


def test_lse_equal_terms_closed_form():
    coeffs = PhaseCoefficients(eta=np.zeros((4, 6)), vbar=np.full(6, 0.37))
    tb = random_theta_bar(2, np.random.default_rng(3))
    for delta in (1e-3, 1e-2, 0.5):
        want = 0.37 + delta * np.log(6)
        assert lse_value(tb, coeffs, delta) == pytest.approx(want, rel=1e-14)


def test_lse_sandwich_on_random_probes():
    rng = np.random.default_rng(4)
    ch, frame, sym, c = random_setup(rng, m=6, n=4, k=2, t=3)
    coeffs = build_phase_coefficients(ch, frame, sym, c)
    delta = 1e-2
    slack = delta * np.log(coeffs.n_constraints)
    for _ in range(1000):
        tb = random_theta_bar(4, rng)
        true = max_constraint(tb, coeffs)
        smoothed = lse_value(tb, coeffs, delta)
        assert true <= smoothed <= true + slack


def test_lse_overflow_safe():
    coeffs = PhaseCoefficients(eta=np.array([[1e4, -1e4], [0.0, 0.0]]),
                               vbar=np.array([0.0, 0.0]))
    tb = np.array([1.0, 0.0])
    v = lse_value(tb, coeffs, 1e-6)
    assert np.isfinite(v)
    assert v == pytest.approx(max_constraint(tb, coeffs), rel=1e-12)


def test_lse_gradient_zero_eta():
    coeffs = PhaseCoefficients(eta=np.zeros((4, 8)), vbar=np.arange(8.0))
    g = lse_gradient(np.zeros(4), coeffs, 1e-2)
    assert np.array_equal(g, np.zeros(4))


def test_lse_gradient_is_softmax_combination():
    rng = np.random.default_rng(5)
    ch, frame, sym, c = random_setup(rng)
    coeffs = build_phase_coefficients(ch, frame, sym, c)
    tb = random_theta_bar(4, rng)
    delta = 1e-2
    vals = tb @ coeffs.eta + coeffs.vbar
    w = np.exp((vals - vals.max()) / delta)
    w /= w.sum()
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(lse_gradient(tb, coeffs, delta), coeffs.eta @ w, atol=1e-15)


def test_lse_gradient_finite_difference():
    rng = np.random.default_rng(6)
    for _ in range(20):
        ch, frame, sym, c = random_setup(rng, m=5, n=3, k=2, t=2)
        coeffs = build_phase_coefficients(ch, frame, sym, c)
        tb = random_theta_bar(3, rng)
        delta = 1e-2
        g = lse_gradient(tb, coeffs, delta)
        h = 1e-6
        fd = np.empty_like(g)
        for i in range(tb.size):
            e = np.zeros_like(tb)
            e[i] = h
            fd[i] = (lse_value(tb + e, coeffs, delta)
                     - lse_value(tb - e, coeffs, delta)) / (2 * h)
        err = np.abs(fd - g).max()
        assert err <= 1e-5 * max(np.abs(g).max(), 1e-10)


def test_lse_positive_delta_required():
    coeffs = PhaseCoefficients(eta=np.zeros((2, 2)), vbar=np.zeros(2))
    with pytest.raises(ValueError):
        lse_value(np.zeros(2), coeffs, 0.0)
    with pytest.raises(ValueError):
        lse_gradient(np.zeros(2), coeffs, -1.0)


# --- projection --------------------------------------------------------------

def test_project_three_four_five():
    got = project_unit_modulus(np.array([3.0, 4.0]))
    assert np.allclose(got, [0.6, 0.8], atol=1e-15)


def test_project_feasible_point_unchanged():
    rng = np.random.default_rng(7)
    tb = random_theta_bar(8, rng)
    assert np.abs(project_unit_modulus(tb) - tb).max() <= 1e-15


def test_project_zero_pair_convention():
    got = project_unit_modulus(np.array([0.0, 3.0, 0.0, 4.0]))
    # first pair (0, 0) -> (1, 0); second pair (3, 4) -> (0.6, 0.8)
    assert np.allclose(got, [1.0, 0.6, 0.0, 0.8], atol=1e-15)


def test_project_unit_norms():
    rng = np.random.default_rng(8)
    tb = project_unit_modulus(rng.standard_normal(20) * 100)
    n = 10
    assert np.abs(tb[:n] ** 2 + tb[n:] ** 2 - 1.0).max() <= 1e-12


def test_project_rejects_odd_length():
    with pytest.raises(ValueError):
        project_unit_modulus(np.ones(3))


# --- momentum schedule -------------------------------------------------------

def test_momentum_closed_forms():
    zeta, psi = momentum_sequence(2)
    assert zeta[0] == 1.0
    assert psi[0] == 0.0
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    assert abs(zeta[1] - golden) <= 1e-12
    assert abs(psi[1] - (golden - 1.0) / golden) <= 1e-12
    assert abs(psi[1] - 0.3819660112501051) <= 1e-12


def test_momentum_recursion_and_growth():
    zeta, psi = momentum_sequence(101)
    prev = 0.0
    for r in range(101):
        want = (1.0 + np.sqrt(1.0 + 4.0 * prev * prev)) / 2.0
        assert abs(zeta[r] - want) <= 1e-12 * max(1.0, want)
        assert abs(psi[r] - (zeta[r] - 1.0) / zeta[r]) <= 1e-12
        assert zeta[r] >= (r + 1) / 2.0
        prev = zeta[r]


# --- APG ---------------------------------------------------------------------

def test_apg_iterates_feasible_and_best_tracked():
    rng = np.random.default_rng(9)
    ch, frame, sym, c = random_setup(rng, m=6, n=4, k=2, t=3)
    coeffs = build_phase_coefficients(ch, frame, sym, c)
    init = random_theta_bar(4, rng)
    res = apg_optimize(coeffs, init, ApgOptions(record_trace=True))
    n = 4
    for rec in res.trace:
        tb = rec.theta_bar
        assert np.abs(tb[:n] ** 2 + tb[n:] ** 2 - 1.0).max() <= 1e-12
    assert np.abs(res.theta_bar[:n] ** 2 + res.theta_bar[n:] ** 2 - 1.0).max() <= 1e-12
    # best-seen includes the init and every iterate
    vals = [max_constraint(init, coeffs)] + [r.true_value for r in res.trace]
    assert res.value == pytest.approx(min(vals), abs=1e-15)
    assert res.value <= vals[0]


def test_apg_sandwich_at_returned_point():
    rng = np.random.default_rng(10)
    ch, frame, sym, c = random_setup(rng)
    coeffs = build_phase_coefficients(ch, frame, sym, c)
    opts = ApgOptions(delta=1e-2)
    res = apg_optimize(coeffs, random_theta_bar(4, rng), opts)
    slack = opts.delta * np.log(coeffs.n_constraints)
    assert res.value <= res.smoothed <= res.value + slack


def test_apg_single_direction_circle_oracle():
    # one active constraint: optimum aligns the phase pair against eta
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = rng.standard_normal(2)
        eta = np.stack([g, np.zeros(2)], axis=1)
        coeffs = PhaseCoefficients(eta=eta, vbar=np.array([0.0, -1e3]))
        res = apg_optimize(coeffs, random_theta_bar(1, rng),
                           ApgOptions(delta=1e-2, max_iter=2000, tol=1e-12))
        ang = np.linspace(0, 2 * np.pi, 20001)
        grid = np.min(np.cos(ang) * g[0] + np.sin(ang) * g[1])
        want = -np.hypot(g[0], g[1])
        assert grid == pytest.approx(want, abs=1e-8)
        assert res.value <= grid + 1e-3 * (1 + abs(grid))


def test_apg_zero_eta_immediate():
    coeffs = PhaseCoefficients(eta=np.zeros((4, 6)), vbar=np.linspace(-1, 1, 6))
    init = np.array([1.0, 0.0, 0.0, 1.0])
    res = apg_optimize(coeffs, init, ApgOptions())
    assert res.converged and res.n_iter == 0
    assert res.value == pytest.approx(1.0)
    assert np.array_equal(res.theta_bar, init)


def test_apg_deterministic():
    rng = np.random.default_rng(12)
    ch, frame, sym, c = random_setup(rng)
    coeffs = build_phase_coefficients(ch, frame, sym, c)
    init = random_theta_bar(4, rng)
    a = apg_optimize(coeffs, init, ApgOptions())
    b = apg_optimize(coeffs, init, ApgOptions())
    assert np.array_equal(a.theta_bar, b.theta_bar)
    assert a.value == b.value and a.n_iter == b.n_iter


def test_apg_improves_over_init_on_protocol_instances():
    rng = np.random.default_rng(13)
    better = 0
    for _ in range(20):
        ch, frame, sym, c = random_setup(rng, m=8, n=8, k=2, t=4)
        coeffs = build_phase_coefficients(ch, frame, sym, c)
        init = random_theta_bar(8, rng)
        res = apg_optimize(coeffs, init, ApgOptions())
        assert res.value <= max_constraint(init, coeffs) + 1e-15
        if res.value < max_constraint(init, coeffs) - 1e-12:
            better += 1
    assert better >= 15  # random init is almost never already optimal


def test_apg_option_validation():
    with pytest.raises(ValueError):
        ApgOptions(delta=0.0)
    with pytest.raises(ValueError):
        ApgOptions(max_iter=0)
    coeffs = PhaseCoefficients(eta=np.ones((4, 2)), vbar=np.zeros(2))
    with pytest.raises(ValueError):
        apg_optimize(coeffs, np.ones(6), ApgOptions())
