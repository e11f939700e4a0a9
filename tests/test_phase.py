"""Phase-design tests: coefficients, smoothing, projection, momentum, APG."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, softmax

from irsprecode.channel import (
    ChannelSet,
    PhaseShifts,
    drop_users,
    effective_matrix,
    sample_channels,
)
from irsprecode.constellation import PskConstellation, SymbolFrame, margin
from irsprecode.onebit import OneBitFrame, SolverConfig, _sigma_max_sq
from irsprecode.phase import (
    ApgResult,
    ApgTraceRecord,
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
    ch = sample_channels(drop_users(k, rng), m, n, rng)
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
    coeffs = build_phase_coefficients(ch, frame, sym)
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
        coeffs = build_phase_coefficients(ch, frame, sym)
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
    coeffs = build_phase_coefficients(ch0, frame, sym)
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
        build_phase_coefficients(ch, bad, sym)
    sym_bad = SymbolFrame.random(c, 3, 3, np.random.default_rng(0))  # wrong K
    with pytest.raises(ValueError):
        build_phase_coefficients(ch, frame, sym_bad)
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
    coeffs = build_phase_coefficients(ch, frame, sym)
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
    coeffs = build_phase_coefficients(ch, frame, sym)
    tb = random_theta_bar(4, rng)
    delta = 1e-2
    vals = tb @ coeffs.eta + coeffs.vbar
    w = np.exp((vals - vals.max()) / delta)
    w /= w.sum()
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(lse_gradient(tb, coeffs, delta), coeffs.eta @ w, atol=1e-15)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6), n_cols=st.integers(1, 60),
       log_scale=st.floats(-3.0, 8.0), delta=st.sampled_from([1e-4, 1e-2, 1.0]),
       n_max=st.integers(1, 5), integer_eta=st.booleans())
def test_lse_bit_exact_against_scipy(seed, n, n_cols, log_scale, delta, n_max,
                                     integer_eta):
    # integer eta and theta make products and sums exact, so copies of the
    # largest column give exactly repeated maxima; |vals / delta| reaches 1e8
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale * delta
    if integer_eta:
        eta = rng.integers(-3, 4, size=(2 * n, 2 * n_cols)).astype(float)
        tb = rng.integers(-2, 3, size=2 * n).astype(float)
        vbar = np.round(rng.uniform(-1, 1, 2 * n_cols) * 8) * scale / 8
    else:
        eta = rng.standard_normal((2 * n, 2 * n_cols)) * scale
        tb = random_theta_bar(n, rng)
        vbar = rng.uniform(-1, 1, 2 * n_cols) * scale
    j = int(np.argmax(tb @ eta + vbar))
    others = np.delete(np.arange(2 * n_cols), j)
    for i in rng.choice(others, size=min(n_max - 1, others.size), replace=False):
        eta[:, i], vbar[i] = eta[:, j], vbar[j]
    coeffs = PhaseCoefficients(eta=eta, vbar=vbar)
    a = (tb @ coeffs.eta + coeffs.vbar) / delta
    if integer_eta:
        assert np.count_nonzero(a == a.max()) >= min(n_max, 2 * n_cols)
    assert lse_value(tb, coeffs, delta) == float(delta * logsumexp(a))
    assert np.array_equal(lse_gradient(tb, coeffs, delta), coeffs.eta @ softmax(a))


def test_lse_gradient_finite_difference():
    rng = np.random.default_rng(6)
    for _ in range(20):
        ch, frame, sym, c = random_setup(rng, m=5, n=3, k=2, t=2)
        coeffs = build_phase_coefficients(ch, frame, sym)
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


@settings(max_examples=300, deadline=None)
@given(theta_bar=st.integers(1, 8).flatmap(
    lambda n: st.lists(st.floats(-1e6, 1e6, allow_subnormal=False),
                       min_size=2 * n, max_size=2 * n)))
def test_project_feasible_and_idempotent(theta_bar):
    got = project_unit_modulus(np.array(theta_bar))
    n = got.size // 2
    assert np.abs(np.hypot(got[:n], got[n:]) - 1.0).max() <= 1e-12
    assert np.abs(project_unit_modulus(got) - got).max() <= 1e-15


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
    coeffs = build_phase_coefficients(ch, frame, sym)
    init = random_theta_bar(4, rng)
    res = apg_optimize(coeffs, init, record_trace=True)
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
    coeffs = build_phase_coefficients(ch, frame, sym)
    opts = SolverConfig(delta=1e-2)
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
                           SolverConfig(delta=1e-2, apg_max_iter=2000, apg_tol=1e-12))
        ang = np.linspace(0, 2 * np.pi, 20001)
        grid = np.min(np.cos(ang) * g[0] + np.sin(ang) * g[1])
        want = -np.hypot(g[0], g[1])
        assert grid == pytest.approx(want, abs=1e-8)
        assert res.value <= grid + 1e-3 * (1 + abs(grid))


def test_apg_zero_eta_immediate():
    coeffs = PhaseCoefficients(eta=np.zeros((4, 6)), vbar=np.linspace(-1, 1, 6))
    init = np.array([1.0, 0.0, 0.0, 1.0])
    res = apg_optimize(coeffs, init, SolverConfig())
    assert res.converged and res.n_iter == 0
    assert res.value == pytest.approx(1.0)
    assert np.array_equal(res.theta_bar, init)


def test_apg_deterministic():
    rng = np.random.default_rng(12)
    ch, frame, sym, c = random_setup(rng)
    coeffs = build_phase_coefficients(ch, frame, sym)
    init = random_theta_bar(4, rng)
    a = apg_optimize(coeffs, init, SolverConfig())
    b = apg_optimize(coeffs, init, SolverConfig())
    assert np.array_equal(a.theta_bar, b.theta_bar)
    assert a.value == b.value and a.n_iter == b.n_iter


def test_apg_improves_over_init_on_protocol_instances():
    rng = np.random.default_rng(13)
    better = 0
    for _ in range(20):
        ch, frame, sym, c = random_setup(rng, m=8, n=8, k=2, t=4)
        coeffs = build_phase_coefficients(ch, frame, sym)
        init = random_theta_bar(8, rng)
        res = apg_optimize(coeffs, init, SolverConfig())
        assert res.value <= max_constraint(init, coeffs) + 1e-15
        if res.value < max_constraint(init, coeffs) - 1e-12:
            better += 1
    assert better >= 15  # random init is almost never already optimal


def test_apg_option_validation():
    for bad in (dict(delta=0.0), dict(delta=np.nan), dict(delta=np.inf),
                dict(apg_tol=-1.0), dict(apg_tol=np.nan), dict(apg_max_iter=0)):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    coeffs = PhaseCoefficients(eta=np.ones((4, 2)), vbar=np.zeros(2))
    with pytest.raises(ValueError):
        apg_optimize(coeffs, np.ones(6), SolverConfig())


# test-local copy of the APG loop before value, gradient and true objective
# shared one constraint-value product per point: each kernel call forms
# theta_bar @ eta + vbar afresh
def _ref_values(tb, coeffs):
    return np.asarray(tb, dtype=float) @ coeffs.eta + coeffs.vbar


def _ref_max(tb, coeffs):
    return float(np.max(_ref_values(tb, coeffs)))


def _ref_lse(tb, coeffs, delta):
    a = _ref_values(tb, coeffs) / delta
    a_max = a.max(keepdims=True)
    at_max = a == a_max
    m = np.sum(at_max, keepdims=True, dtype=float)
    e = np.exp(a - a_max)
    e[at_max] = 0.0
    s = e.sum(keepdims=True) / m
    return float(delta * (np.log1p(s) + np.log(m) + a_max)[0])


def _ref_grad(tb, coeffs, delta):
    a = _ref_values(tb, coeffs) / delta
    e = np.exp(a - a.max())
    return coeffs.eta @ (e / e.sum())


def _ref_apg(coeffs, theta_bar_init, opts, record_trace):
    delta = opts.delta
    theta = project_unit_modulus(theta_bar_init)
    lipschitz = _sigma_max_sq(coeffs.eta) / delta
    if lipschitz == 0.0:
        return ApgResult(theta_bar=theta, value=_ref_max(theta, coeffs),
                         smoothed=_ref_lse(theta, coeffs, delta),
                         converged=True, n_iter=0, trace=[])
    _, psis = momentum_sequence(opts.apg_max_iter)
    best_theta = theta
    best_val = _ref_max(theta, coeffs)
    theta_prev = theta
    r = 0
    h_prev = _ref_lse(theta, coeffs, delta)
    tau = lipschitz
    converged = False
    trace = []
    it = 0
    for it in range(1, opts.apg_max_iter + 1):
        z = theta + psis[r] * (theta - theta_prev)
        r += 1
        g = _ref_grad(z, coeffs, delta)
        h_z = _ref_lse(z, coeffs, delta)
        tau = max(tau * 0.5, lipschitz * 2.0 ** -52)
        while True:
            theta_new = project_unit_modulus(z - g / tau)
            h_new = _ref_lse(theta_new, coeffs, delta)
            if tau >= lipschitz:
                break
            d = theta_new - z
            if h_new <= h_z + float(g @ d) + 0.5 * tau * float(d @ d):
                break
            tau = min(tau * 2.0, lipschitz)
        val = _ref_max(theta_new, coeffs)
        if val < best_val:
            best_val = val
            best_theta = theta_new
        if record_trace:
            trace.append(ApgTraceRecord(it, h_new, val, 1.0 / tau, theta_new))
        if h_new > h_prev:
            r = 0
        change = float(np.linalg.norm(theta_new - theta))
        theta_prev, theta = theta, theta_new
        h_prev = h_new
        if change <= opts.apg_tol:
            converged = True
            break
    return ApgResult(theta_bar=best_theta, value=best_val,
                     smoothed=_ref_lse(best_theta, coeffs, delta),
                     converged=converged, n_iter=it, trace=trace)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["bpsk", "qpsk", "16psk", "repeated-max", "zero-eta"]),
       n=st.integers(1, 5), n_cols=st.integers(1, 12),
       delta=st.sampled_from([1e-3, 1e-2, 1.0]), max_iter=st.integers(1, 80),
       tol=st.sampled_from([0.0, 1e-6, 1e-2]))
def test_apg_bit_exact_against_reference_loop(seed, kind, n, n_cols, delta, max_iter,
                                              tol):
    # protocol coefficients (BPSK has cot = 0), integer data whose copied
    # columns tie exactly for the maximum at the start and along the way,
    # and an all-zero eta (constant objective, immediate return)
    rng = np.random.default_rng(seed)
    if kind in ("bpsk", "qpsk", "16psk"):
        order = {"bpsk": 2, "qpsk": 4, "16psk": 16}[kind]
        ch, frame, sym, c = random_setup(rng, m=4, n=n, k=2, t=max(1, n_cols // 4),
                                         order=order)
        coeffs = build_phase_coefficients(ch, frame, sym)
    elif kind == "repeated-max":
        eta = rng.integers(-3, 4, size=(2 * n, 2 * n_cols)).astype(float)
        vbar = rng.integers(-2, 3, size=2 * n_cols).astype(float)
        eta[:, n_cols:] = eta[:, :n_cols]
        vbar[n_cols:] = vbar[:n_cols]
        coeffs = PhaseCoefficients(eta=eta, vbar=vbar)
    else:
        coeffs = PhaseCoefficients(eta=np.zeros((2 * n, 2 * n_cols)),
                                   vbar=rng.uniform(-1, 1, 2 * n_cols))
    init = random_theta_bar(coeffs.n_lifted // 2, rng)
    if kind == "repeated-max":
        init = np.round(init)  # integer start: exact constraint values
    opts = SolverConfig(delta=delta, apg_max_iter=max_iter, apg_tol=tol)
    got = apg_optimize(coeffs, init, opts, record_trace=True)
    want = _ref_apg(coeffs, init, opts, record_trace=True)
    assert np.array_equal(got.theta_bar, want.theta_bar)
    assert (got.value, got.smoothed, got.converged, got.n_iter) == (
        want.value, want.smoothed, want.converged, want.n_iter)
    assert len(got.trace) == len(want.trace)
    for a, b in zip(got.trace, want.trace):
        assert (a.iteration, a.smoothed, a.true_value, a.step) == (
            b.iteration, b.smoothed, b.true_value, b.step)
        assert np.array_equal(a.theta_bar, b.theta_bar)
