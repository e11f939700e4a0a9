"""Phase-design tests: coefficients, smoothing, projection, momentum, APG."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, softmax

from irsprecode import phase
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
    APG_MAX_ITER,
    APG_PATIENCE,
    ApgResult,
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
    sym = SymbolFrame(np.array([[0]]), QPSK)  # the symbol 1
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
    # delta = inf used to pass the kernels' own test and give an inf value
    coeffs = PhaseCoefficients(eta=np.zeros((2, 2)), vbar=np.zeros(2))
    for delta in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="delta"):
            lse_value(np.zeros(2), coeffs, delta)
        with pytest.raises(ValueError, match="delta"):
            lse_gradient(np.zeros(2), coeffs, delta)


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


def _ref_project(theta_bar):
    """Test-local copy of project_unit_modulus as three np.where over every
    pair, the formula before its fast path for vectors with no zero pair."""
    theta_bar = np.asarray(theta_bar, dtype=float)
    n = theta_bar.size // 2
    a, b = theta_bar[:n], theta_bar[n:]
    r = np.hypot(a, b)
    zero = r == 0
    safe = np.where(zero, 1.0, r)
    return np.concatenate([np.where(zero, 1.0, a / safe),
                           np.where(zero, 0.0, b / safe)])


_LARGEST = np.finfo(float).max
_PROJECT_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, np.nan, -np.nan,
                     _LARGEST, -_LARGEST, np.inf, -np.inf]),
    st.floats(width=64),  # subnormals, NaN and infinities included
    st.floats(-1e3, 1e3),
    st.floats(0.5 * _LARGEST, _LARGEST).flatmap(lambda v: st.sampled_from([v, -v])))


@settings(max_examples=500, deadline=None)
@given(pairs=st.lists(st.tuples(_PROJECT_ENTRY, _PROJECT_ENTRY), min_size=1, max_size=8),
       zero=st.one_of(st.none(), st.tuples(st.integers(0, 7), st.sampled_from([0.0, -0.0]),
                                           st.sampled_from([0.0, -0.0]))))
def test_project_bit_exact_against_three_where_formula(pairs, zero):
    # pairs of exact zeros of either sign (the (1, 0) convention), subnormals,
    # entries near the largest float (hypot overflows to inf), infinities and
    # NaN, in vectors with and without a zero pair: the fast path for vectors
    # with no zero pair gives the same bits as the three-where formula
    if zero is not None:
        at, a, b = zero
        pairs[at % len(pairs)] = (a, b)
    theta = np.array([a for a, _ in pairs] + [b for _, b in pairs])
    n = len(pairs)
    event("zero pair" if ((theta[:n] == 0) & (theta[n:] == 0)).any() else "no zero pair")
    with np.errstate(all="ignore"):
        got, want = project_unit_modulus(theta), _ref_project(theta)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


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
    # the accepted iterates come from the reference loop, which
    # test_apg_bit_exact_against_reference_loop proves runs apg_optimize's
    # iterations bit for bit
    rng = np.random.default_rng(9)
    ch, frame, sym, c = random_setup(rng, m=6, n=4, k=2, t=3)
    coeffs = build_phase_coefficients(ch, frame, sym)
    init = random_theta_bar(4, rng)
    res = apg_optimize(coeffs, init)
    want, _, iterates = _ref_apg(coeffs, init, SolverConfig(), APG_MAX_ITER)
    assert res.n_iter == want.n_iter == len(iterates)
    n = 4
    for tb, _ in iterates:
        assert np.abs(tb[:n] ** 2 + tb[n:] ** 2 - 1.0).max() <= 1e-12
    assert np.abs(res.theta_bar[:n] ** 2 + res.theta_bar[n:] ** 2 - 1.0).max() <= 1e-12
    # best-seen includes the init and every iterate
    vals = [max_constraint(init, coeffs)] + [val for _, val in iterates]
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
        res = apg_optimize(coeffs, random_theta_bar(1, rng), SolverConfig(delta=1e-2))
        ang = np.linspace(0, 2 * np.pi, 20001)
        grid = np.min(np.cos(ang) * g[0] + np.sin(ang) * g[1])
        want = -np.hypot(g[0], g[1])
        assert grid == pytest.approx(want, abs=1e-8)
        assert res.value <= grid + 1e-3 * (1 + abs(grid))


def test_apg_zero_eta_immediate():
    coeffs = PhaseCoefficients(eta=np.zeros((4, 6)), vbar=np.linspace(-1, 1, 6))
    init = np.array([1.0, 0.0, 0.0, 1.0])
    res = apg_optimize(coeffs, init, SolverConfig())
    assert res.converged and res.n_iter == res.best_iter == 0
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
    for bad in (dict(delta=0.0), dict(delta=np.nan), dict(delta=np.inf)):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    # APG stops by patience or at its cap only; the iterate-change tolerance
    # is gone, and the cap is phase.APG_MAX_ITER
    for key, value in (("apg_tol", 1e-6), ("apg_max_iter", 500)):
        with pytest.raises(ValueError, match=rf"unknown solver config keys: \['{key}'\]"):
            SolverConfig.from_dict({key: value})
    coeffs = PhaseCoefficients(eta=np.ones((4, 2)), vbar=np.zeros(2))
    with pytest.raises(ValueError):
        apg_optimize(coeffs, np.ones(6), SolverConfig())


# test-local copy of the APG loop before value, gradient and true objective
# shared one constraint-value product per point: each kernel call forms
# theta_bar @ eta + vbar afresh. It also returns why it stopped: "patience"
# (APG_PATIENCE iterations without a new best true objective), "cap" or
# "constant"
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


def _ref_apg(coeffs, theta_bar_init, opts, max_iter):
    """The APG loop written out plainly: (result, why it stopped, the
    (iterate, true objective) of every iteration). Every projection goes
    through phase.project_unit_modulus, as apg_optimize's do, so one spy
    sees both loops' projected points."""
    delta = opts.delta
    theta = phase.project_unit_modulus(theta_bar_init)
    lipschitz = _sigma_max_sq(coeffs.eta) / delta
    if lipschitz == 0.0:
        return ApgResult(theta_bar=theta, value=_ref_max(theta, coeffs),
                         smoothed=_ref_lse(theta, coeffs, delta),
                         converged=True, n_iter=0, best_iter=0), "constant", []
    _, psis = momentum_sequence(max_iter)
    best_theta = theta
    best_val = _ref_max(theta, coeffs)
    best_it = 0
    theta_prev = theta
    r = 0
    h_prev = _ref_lse(theta, coeffs, delta)
    tau = lipschitz
    reason = "cap"
    iterates = []
    it = 0
    for it in range(1, max_iter + 1):
        z = theta + psis[r] * (theta - theta_prev)
        r += 1
        g = _ref_grad(z, coeffs, delta)
        h_z = _ref_lse(z, coeffs, delta)
        tau = max(tau * 0.5, lipschitz * 2.0 ** -52)
        while True:
            theta_new = phase.project_unit_modulus(z - g / tau)
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
            best_it = it
        iterates.append((theta_new, val))
        if h_new > h_prev:
            r = 0
        theta_prev, theta = theta, theta_new
        h_prev = h_new
        if it - best_it == APG_PATIENCE:
            reason = "patience"
            break
    return ApgResult(theta_bar=best_theta, value=best_val,
                     smoothed=_ref_lse(best_theta, coeffs, delta),
                     converged=reason != "cap", n_iter=it,
                     best_iter=best_it), reason, iterates


def _projected_points(run):
    """(run(), a copy of every point passed to phase.project_unit_modulus
    during it, in call order)."""
    project = phase.project_unit_modulus
    points = []

    def spy(theta_bar):
        points.append(np.array(theta_bar, dtype=float))
        return project(theta_bar)

    with patch.object(phase, "project_unit_modulus", spy):
        return run(), points


def _check_against_reference(seed, kind, n, n_cols, delta, max_iter):
    """Run apg_optimize and the reference loop on one generated case, assert
    that they agree bit for bit and return why the reference stopped."""
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
    opts = SolverConfig(delta=delta)
    with patch.object(phase, "APG_MAX_ITER", max_iter):
        got, got_points = _projected_points(lambda: apg_optimize(coeffs, init, opts))
    (want, reason, iterates), want_points = _projected_points(
        lambda: _ref_apg(coeffs, init, opts, max_iter))
    assert np.array_equal(got.theta_bar, want.theta_bar)
    assert (got.value, got.smoothed, got.converged, got.n_iter, got.best_iter) == (
        want.value, want.smoothed, want.converged, want.n_iter, want.best_iter)
    # the start, then every trial point of every iteration, backtracking
    # included: the same points in the same order, bit for bit
    assert len(got_points) == len(want_points) >= 1 + len(iterates)
    for a, b in zip(got_points, want_points):
        assert np.array_equal(a, b)
    return reason


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["bpsk", "qpsk", "16psk", "repeated-max", "zero-eta"]),
       n=st.integers(1, 5), n_cols=st.integers(1, 12),
       delta=st.sampled_from([1e-3, 1e-2, 1.0]), max_iter=st.integers(1, 80))
@example(seed=0, kind="qpsk", n=4, n_cols=8, delta=1e-2, max_iter=80)
@example(seed=26, kind="bpsk", n=4, n_cols=8, delta=1e-2, max_iter=APG_PATIENCE)
def test_apg_bit_exact_against_reference_loop(seed, kind, n, n_cols, delta, max_iter):
    event(_check_against_reference(seed, kind, n, n_cols, delta, max_iter))


@pytest.mark.parametrize("kind, seed, max_iter", [("qpsk", 0, 80),
                                                  ("bpsk", 26, APG_PATIENCE)])
def test_apg_reference_examples_stop_on_patience(kind, seed, max_iter):
    # the explicit examples above stop on the patience rule, so it is checked
    # against the reference whatever hypothesis draws; in the second the
    # start stays the best until the cap, and the patience stop there still
    # counts as converged
    assert _check_against_reference(seed, kind, 4, 8, 1e-2, max_iter) == "patience"
