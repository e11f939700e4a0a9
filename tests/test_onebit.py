"""One-bit precoder tests: coefficients, Huber dual, mirror descent, MBI.

Expected values marked as oracle results were produced by independent
computations (finite differences, dense grids, exhaustive enumeration)
implemented inside the tests themselves.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from onebit_oracles import brute_force_onebit, dual_value, huber, quadratic_model_start

from irsprecode import onebit
from irsprecode.channel import (
    PhaseShifts,
    drop_users,
    effective_matrix,
    sample_channels,
)
from irsprecode.constellation import PskConstellation, margin
from irsprecode.onebit import (
    MU_STAGES,
    START_GAP_RTOL,
    WARM_START_MIX,
    CoefficientMatrix,
    OneBitFrame,
    SolverConfig,
    _sigma_max_sq,
    build_coefficients,
    dual_gradient,
    mbi_round,
    mirror_descent,
    model_start,
    model_starts,
    recover_x,
    solve_relaxed,
    solve_symbol,
    worst_objective,
)

QPSK = PskConstellation(4)


def random_instance(rng, m=8, k=2, order=4, power=100.0, n=4):
    """Protocol-scaled random slot instance (geometry + fading + random phases)."""
    c = PskConstellation(order)
    ch = sample_channels(drop_users(k, rng), m, n, rng)
    h_eff = effective_matrix(ch, PhaseShifts.random(n, rng))
    sym = c.points[rng.integers(0, order, k)]
    return build_coefficients(h_eff, sym, c, power), h_eff, sym, c


# --- coefficient assembly ----------------------------------------------------

def test_build_coefficients_hand_case():
    # M=1, K=1, h=1, s=1, L=4: a=[1,0], b=[0,1], c1=-a+b, c2=-a-b
    coeff = build_coefficients(np.array([[1.0 + 0j]]), np.array([1.0 + 0j]), QPSK, 2.0)
    assert coeff.c.shape == (2, 2)
    assert np.allclose(coeff.c[:, 0], [-1.0, 1.0])
    assert np.allclose(coeff.c[:, 1], [-1.0, -1.0])
    assert coeff.amplitude == pytest.approx(1.0)


def test_build_coefficients_amplitude_and_shape():
    rng = np.random.default_rng(0)
    coeff, h_eff, sym, c = random_instance(rng, m=6, k=3, power=12.0)
    assert coeff.c.shape == (12, 6)
    assert coeff.amplitude == pytest.approx(np.sqrt(12.0 / 12.0))
    assert coeff.n_lifted == 12 and coeff.n_constraints == 6


def test_bpsk_b_part_is_zero():
    # for L=2 the +/- constraint columns coincide (b_k = 0)
    rng = np.random.default_rng(1)
    coeff, _, _, _ = random_instance(rng, m=4, k=2, order=2)
    k = coeff.n_constraints // 2
    assert np.array_equal(coeff.c[:, :k], coeff.c[:, k:])


def test_worst_objective_is_negated_margin():
    # max_k c_k^T xbar == -(min_k margin) for random one-bit signals
    rng = np.random.default_rng(2)
    for _ in range(100):
        coeff, h_eff, sym, c = random_instance(rng, m=5, k=3,
                                               order=int(rng.choice([2, 4, 8])))
        s = coeff.amplitude
        xbar = s * rng.choice([-1.0, 1.0], size=coeff.n_lifted)
        m = h_eff.shape[1]
        x = xbar[:m] + 1j * xbar[m:]
        z = (h_eff @ x) * np.conj(sym)
        assert worst_objective(xbar, coeff) == pytest.approx(-margin(z, c).min(), rel=1e-10)


def test_onebit_frame_validation():
    OneBitFrame(xbar=[[2.0, -2.0]], amplitude=2.0)
    for xbar, amplitude in (([[2.0, -2.0]], 0.0), ([[2.0, 1.0]], 2.0), ([[2.0]], 2.0),
                            ([[np.nan, np.nan]], np.nan), ([[np.inf, -np.inf]], np.inf)):
        with pytest.raises(ValueError):
            OneBitFrame(xbar=xbar, amplitude=amplitude)


def test_coefficient_matrix_validation():
    with pytest.raises(ValueError):
        CoefficientMatrix(c=np.ones((3, 2)), amplitude=1.0)
    with pytest.raises(ValueError):
        CoefficientMatrix(c=np.ones((2, 2)), amplitude=0.0)
    with pytest.raises(ValueError):
        CoefficientMatrix(c=np.array([[np.nan, 1.0], [0.0, 1.0]]), amplitude=1.0)
    for amplitude in (np.nan, np.inf):  # NaN must fail the range check too
        with pytest.raises(ValueError):
            CoefficientMatrix(c=np.ones((2, 2)), amplitude=amplitude)
    with pytest.raises(ValueError):
        build_coefficients(np.ones((1, 1)), np.ones(1), QPSK, -1.0)
    with pytest.raises(ValueError):
        build_coefficients(np.ones((2, 3)), np.ones(3), QPSK, 1.0)


# --- huber -------------------------------------------------------------------

def test_huber_branches_and_continuity():
    rho = 0.3
    assert huber(0.0, rho) == 0.0
    assert huber(0.15, rho) == pytest.approx(0.15**2 / (2 * rho))
    assert huber(-0.15, rho) == pytest.approx(0.15**2 / (2 * rho))
    assert huber(2.0, rho) == pytest.approx(2.0 - rho / 2)
    assert huber(-2.0, rho) == pytest.approx(2.0 - rho / 2)
    # continuity and derivative continuity at the knee
    assert huber(rho, rho) == pytest.approx(rho / 2)
    eps = 1e-9
    assert huber(rho + eps, rho) == pytest.approx(huber(rho - eps, rho), abs=1e-8)
    with pytest.raises(ValueError):
        huber(1.0, 0.0)


def test_huber_vectorized_matches_scalar():
    rng = np.random.default_rng(3)
    y = rng.standard_normal(50)
    rho = 0.7
    vec = huber(y, rho)
    for i, yi in enumerate(y):
        assert vec[i] == pytest.approx(float(huber(yi, rho)))


# --- dual value / gradient / recovery ---------------------------------------

def test_dual_value_identity_with_inner_minimum():
    # f_mu(lam) = -(lam^T C^T xbar* + mu/2 ||xbar*||^2) for any simplex lam
    rng = np.random.default_rng(4)
    for _ in range(50):
        coeff, _, _, _ = random_instance(rng, m=6, k=2)
        mu = 10.0 ** rng.uniform(-5, -2)
        lam = rng.dirichlet(np.ones(coeff.n_constraints))
        x = recover_x(lam, coeff, mu)
        inner = float(lam @ (coeff.c.T @ x) + mu / 2 * (x @ x))
        assert dual_value(lam, coeff, mu) == pytest.approx(-inner, rel=1e-10, abs=1e-18)


def test_dual_gradient_equals_minus_ct_x():
    rng = np.random.default_rng(5)
    for _ in range(50):
        coeff, _, _, _ = random_instance(rng, m=5, k=3)
        mu = 5e-4
        lam = rng.dirichlet(np.ones(coeff.n_constraints))
        g = dual_gradient(lam, coeff, mu)
        x = recover_x(lam, coeff, mu)
        assert np.allclose(g, -(coeff.c.T @ x), atol=1e-10 * max(1, np.abs(g).max()))


def test_dual_gradient_finite_difference():
    # central differences, relative error <= 1e-5, away from Huber knees
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 20:
        coeff, _, _, _ = random_instance(rng, m=6, k=2)
        mu = 5e-4
        rho = mu * coeff.amplitude
        lam = rng.dirichlet(np.ones(coeff.n_constraints))
        y = coeff.c @ lam
        if np.any(np.abs(np.abs(y) - rho) <= 1e-3 * rho):
            continue  # knee exclusion zone
        g = dual_gradient(lam, coeff, mu)
        h = 1e-7
        fd = np.empty_like(g)
        for i in range(lam.size):
            e = np.zeros_like(lam)
            e[i] = h
            fd[i] = (dual_value(lam + e, coeff, mu) - dual_value(lam - e, coeff, mu)) / (2 * h)
        assert np.abs(fd - g).max() <= 1e-5 * max(1.0, np.abs(g).max())
        checked += 1


def md_gradient_reference(lam, coeff, mu):
    """mirror_descent's in-loop gradient arithmetic, written out."""
    s = coeff.amplitude
    rho = mu * s
    ct = np.ascontiguousarray(coeff.c.T)
    y = coeff.c @ lam
    np.clip(y, -rho, rho, out=y)
    grad = ct @ y
    grad *= s / rho
    return grad


def test_dual_gradient_is_the_gradient_mirror_descent_runs():
    # the gradient oracles (criterion 2) check dual_gradient, so it must be
    # bit-equal to what mirror descent steps with, on desk-sized slots
    rng = np.random.default_rng(8)
    mu = 5e-4
    for _ in range(100):
        coeff, _, _, _ = random_instance(rng, m=32, k=4, n=16)
        lam = rng.dirichlet(np.ones(coeff.n_constraints))
        assert np.array_equal(dual_gradient(lam, coeff, mu),
                              md_gradient_reference(lam, coeff, mu))
        # mirror descent's residual at the uniform start comes from that
        # gradient
        n = coeff.n_constraints
        uniform = np.full(n, 1.0 / n)
        w = np.log(uniform) - dual_gradient(uniform, coeff, mu)
        w -= w.max()
        e = np.exp(w)
        md = mirror_descent(coeff, mu, SolverConfig(md_max_iter=0))
        assert md.residual == float(np.abs(e / e.sum() - uniform).sum())


def test_recover_x_branch_cases():
    c = np.array([[1.0, 0.0], [0.0, 1.0]])
    coeff = CoefficientMatrix(c=c, amplitude=2.0)
    mu = 0.1
    rho = mu * coeff.amplitude
    # (C lam)_1 = 10*mu*s -> saturated at -s; (C lam)_2 = 0.5*mu*s -> -0.5 s
    lam = np.array([10 * rho, 0.5 * rho])
    x = recover_x(lam, coeff, mu)
    assert x[0] == pytest.approx(-2.0)
    assert x[1] == pytest.approx(-1.0)
    assert np.all(np.abs(recover_x(np.array([5.0, 5.0]), coeff, mu)) <= coeff.amplitude)


def test_dual_value_convex_on_segments():
    rng = np.random.default_rng(7)
    coeff, _, _, _ = random_instance(rng, m=6, k=3)
    mu = 5e-4
    for _ in range(50):
        a = rng.dirichlet(np.ones(coeff.n_constraints))
        b = rng.dirichlet(np.ones(coeff.n_constraints))
        fa, fb = dual_value(a, coeff, mu), dual_value(b, coeff, mu)
        fm = dual_value((a + b) / 2, coeff, mu)
        assert fm <= (fa + fb) / 2 + 1e-12 * (1 + abs(fa) + abs(fb))


def test_positive_mu_required():
    coeff = CoefficientMatrix(c=np.ones((2, 2)), amplitude=1.0)
    lam = np.array([0.5, 0.5])
    for fn in (dual_value, dual_gradient, recover_x):
        for mu in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                fn(lam, coeff, mu)


def test_solver_option_validation():
    # mirror descent's and the per-slot solve's settings
    for bad in (dict(md_max_iter=-1), dict(md_tol=-1.0), dict(md_tol=np.nan),
                dict(md_tol=np.inf), dict(mu=0.0), dict(mu=np.nan), dict(mu=np.inf),
                dict(mbi_restarts=0)):
        with pytest.raises(ValueError):
            SolverConfig(**bad)


# --- mirror descent ----------------------------------------------------------

def test_md_zero_matrix_stays_uniform():
    coeff = CoefficientMatrix(c=np.zeros((4, 4)), amplitude=1.0)
    res = mirror_descent(coeff, 1e-3, SolverConfig())
    assert res.converged and res.n_iter == 0
    assert np.allclose(res.lam, 0.25)


def test_md_iterates_stay_on_simplex():
    rng = np.random.default_rng(8)
    coeff, _, _, _ = random_instance(rng, m=8, k=3)
    res = mirror_descent(coeff, 5e-4, SolverConfig(md_tol=1e-8))
    assert res.converged
    assert res.lam.min() >= 0
    assert abs(res.lam.sum() - 1.0) <= 1e-12


def test_md_two_column_grid_oracle():
    # 2K=2: compare against a dense grid over the 1-simplex
    rng = np.random.default_rng(9)
    for _ in range(10):
        coeff, _, _, _ = random_instance(rng, m=6, k=1, order=2)
        # K=1, L=2 gives duplicated columns; perturb to make them distinct
        c2 = coeff.c.copy()
        c2[:, 1] = np.roll(c2[:, 1], 1) + 0.3 * c2[:, 0]
        coeff = CoefficientMatrix(c=c2, amplitude=coeff.amplitude)
        mu = 5e-4
        res = mirror_descent(coeff, mu, SolverConfig(md_tol=1e-9))
        p = np.linspace(0.0, 1.0, 10001)
        grid = np.stack([p, 1 - p])
        vals = coeff.amplitude * huber(coeff.c @ grid, mu * coeff.amplitude).sum(axis=0)
        assert res.value <= vals.min() + 1e-4 * (1 + abs(vals.min()))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.sampled_from([2, 4, 8, 16]),
       size=st.sampled_from([(32, 4, 16), (128, 14, 32), (8, 3, 4)]),
       start=st.sampled_from(["cold", "mixed", "zeros"]))
def test_md_monotone_objective_trace(seed, order, size, start):
    # every accepted step passes the sufficient-decrease test or sits at the
    # safe step, whichever step the previous iteration ended on. Spies on the
    # two kernels read the values off: the value of the accepted point is the
    # last one computed before each gradient.
    rng = np.random.default_rng(seed)
    m, k, n = size
    coeff, _, _, _ = random_instance(rng, m=m, k=k, order=order, n=n)
    opts = SolverConfig(md_max_iter=400, md_tol=1e-8)
    clipped_value, dual_grad = onebit._clipped_value, onebit._dual_grad
    last, accepted = [], []

    def value_spy(*args):
        out = clipped_value(*args)
        last[:] = [out[1]]
        return out

    def grad_spy(*args):
        accepted.append(last[0])
        return dual_grad(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(onebit, "_clipped_value", value_spy)
        mp.setattr(onebit, "_dual_grad", grad_spy)
        res = mirror_descent(coeff, SolverConfig().mu, opts, lam0=_start(rng, coeff, start))
    values = np.array(accepted)
    assert values.size == res.n_iter + 1 and values[-1] == res.value
    assert np.all(np.diff(values) <= 1e-12 * np.abs(values[:-1]))
    if res.converged:
        assert res.residual <= opts.md_tol


def test_md_reports_nonconvergence_instead_of_failing():
    rng = np.random.default_rng(11)
    coeff, _, _, _ = random_instance(rng, m=8, k=3)
    res = mirror_descent(coeff, 5e-4, SolverConfig(md_max_iter=2, md_tol=1e-14))
    assert not res.converged
    assert res.n_iter == 2
    assert np.isfinite(res.value)


@pytest.mark.parametrize("shape", [(64, 8), (8, 64), (256, 28), (32, 400), (64, 2800),
                                   (6, 6), (1, 5)])
def test_sigma_max_sq_matches_the_svd_norm(shape):
    rng = np.random.default_rng(12)
    a = rng.standard_normal(shape)
    a[:, -1] = a[:, 0]  # rank deficient, so the Gram matrix is singular
    want = np.linalg.norm(a, 2) ** 2
    assert abs(_sigma_max_sq(a) - want) <= 1e-12 * want
    assert _sigma_max_sq(np.zeros(shape)) == 0.0


def _start(rng, coeff, start):
    """Start point of kind "cold" (None: uniform), "mixed" (a Dirichlet
    draw mixed as AO mixes) or "zeros" (a Dirichlet draw, half zeroed)."""
    if start == "cold":
        return None
    lam0 = rng.dirichlet(np.ones(coeff.n_constraints))
    if start == "mixed":
        return _mixed(lam0)
    lam0[rng.permutation(lam0.size)[:lam0.size // 2]] = 0.0
    return lam0 / lam0.sum()


def _md_reference(coeff, mu, opts, lam0=None, double_always=False):
    """The mirror-descent loop with the Bregman model from its definition:
    masked KL sum, Huber value from huber(), safe step from the SVD norm.
    Each iteration doubles the previous step if the previous iteration took
    its first trial point (or always, with double_always) and then halves
    it until the test holds."""
    n = coeff.n_constraints
    s = coeff.amplitude
    rho = mu * s
    c = coeff.c
    ct = np.ascontiguousarray(c.T)
    lam = np.full(n, 1.0 / n) if lam0 is None else np.asarray(lam0, dtype=float).copy()
    y = c @ lam
    f = float(s * huber(y, rho).sum())
    sigma = float(np.linalg.norm(c, 2))
    safe_step = mu / (sigma * sigma) if sigma > 0 else 1.0
    step = safe_step
    with np.errstate(divide="ignore"):
        log_lam = np.log(lam)
    converged = False
    residual = np.inf
    it = 0
    grow = True
    for it in range(opts.md_max_iter + 1):
        grad = (ct @ np.clip(y, -rho, rho)) * (s / rho)
        w = log_lam - grad
        w -= w.max()
        e = np.exp(w)
        residual = float(np.abs(e / e.sum() - lam).sum())
        if residual <= opts.md_tol:
            converged = True
            break
        if it == opts.md_max_iter:
            break
        if grow or double_always:
            step *= 2.0
        grow = True
        while True:
            w = log_lam - step * grad
            w -= w.max()
            e = np.exp(w)
            se = e.sum()
            lam_new = e / se
            y_new = c @ lam_new
            f_new = float(s * huber(y_new, rho).sum())
            if step <= safe_step:
                break
            mask = lam_new > 0
            kl = float(np.sum(lam_new[mask] * ((w[mask] - np.log(se)) - log_lam[mask])))
            model = f + float(grad @ (lam_new - lam)) + kl / step
            if f_new <= model:
                break
            step *= 0.5
            grow = False
        lam, y, f = lam_new, y_new, f_new
        log_lam = w - np.log(se)
    return lam, f, converged, it, residual


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.sampled_from([2, 4, 8, 16]),
       size=st.sampled_from([(32, 4, 16), (128, 14, 32), (8, 3, 4)]),
       start=st.sampled_from(["cold", "mixed", "zeros", "zero-matrix"]),
       mu=st.sampled_from([stage_mu for stage_mu, _ in MU_STAGES] + [1e-6]))
def test_md_matches_the_reference_loop(seed, order, size, start, mu):
    # the closed-form model, the clipped Huber value and the Gram-matrix
    # safe step change rounding only: the same step decisions, so the same
    # iteration count and iterates, at the solver's mu (the first stage).
    # Below it the loop amplifies any last-bit difference over non-converged
    # iterations, the reference's own included: at mu = 2e-5, scaling one
    # entry of its start by 1 + 4e-16 moved its lam by 3.6e-7 in l1 after 400
    # iterations (seed 356, 16-PSK, 64x8, zero-holding start), so there the
    # iterates are not compared. At mu = 1e-6 the same perturbation also
    # moved the reference's iteration of convergence (seed 0, 16-PSK, 64x8,
    # zero-holding start: 320 -> 315), so there only md's own value is checked
    assert MU_STAGES[0][0] == SolverConfig().mu
    rng = np.random.default_rng(seed)
    m, k, n = size
    coeff, _, _, _ = random_instance(rng, m=m, k=k, order=order, n=n)
    if start == "zero-matrix":
        coeff = CoefficientMatrix(c=np.zeros_like(coeff.c), amplitude=coeff.amplitude)
    lam0 = _start(rng, coeff, "mixed" if start == "zero-matrix" else start)
    opts = SolverConfig(md_max_iter=400)
    md = mirror_descent(coeff, mu, opts, lam0=lam0)
    assert abs(md.value - dual_value(md.lam, coeff, mu)) <= 1e-12 * abs(md.value)
    if mu < MU_STAGES[-1][0]:
        return
    lam, value, converged, n_iter, residual = _md_reference(coeff, mu, opts, lam0)
    assert (md.n_iter, md.converged) == (n_iter, converged)
    if mu < SolverConfig().mu:
        return
    assert np.abs(md.lam - lam).sum() <= 1e-12
    assert abs(md.value - value) <= 1e-12 * abs(value)


def test_md_step_rule_tries_fewer_points(monkeypatch):
    # Doubling the step only after an iteration that took its first trial
    # point, against doubling it every iteration, on desk-size (64x8) and
    # paper-size (256x28) QPSK slots from cold and mixed starts at the
    # solver's mu and tolerance. A spy on the reference loop's Huber value
    # counts its trial points: one call per trial point plus one at the
    # start. Measured: 4615 trial points with the rule, 7040 doubling always
    calls = []

    def spy(y, rho, real=huber):
        calls.append(None)
        return real(y, rho)

    monkeypatch.setitem(globals(), "huber", spy)
    opts = SolverConfig()
    totals = {True: 0, False: 0}
    for _, coeff, mixed in _step_rule_slots():
        for lam0 in (None, mixed):
            for double_always in totals:
                calls.clear()
                _, _, converged, _, _ = _md_reference(
                    coeff, SolverConfig().mu, opts, lam0, double_always)
                assert converged
                totals[double_always] += len(calls) - 1
    assert totals[False] < totals[True], totals


def _step_rule_slots():
    """(m, coeff, mixed start) of the fixed set of 40 desk-size (64x8) and 8
    paper-size (256x28) QPSK slots, in the order they are drawn."""
    rng = np.random.default_rng(20)
    for m, k, n, count in ((32, 4, 16, 40), (128, 14, 32, 8)):
        for _ in range(count):
            coeff, _, _, _ = random_instance(rng, m=m, k=k, n=n)
            yield m, coeff, _start(rng, coeff, "mixed")


# --- MBI rounding ------------------------------------------------------------

def test_mbi_exhaustive_oracle_small_fractional_sets():
    # against enumeration over all completions of the fractional set
    rng = np.random.default_rng(12)
    optimal = 0
    for _ in range(100):
        coeff, _, _, _ = random_instance(rng, m=4, k=2)
        s = coeff.amplitude
        xrel = s * rng.uniform(-1, 1, size=coeff.n_lifted)
        # force some entries to look saturated
        sat = rng.random(coeff.n_lifted) < 0.4
        xrel[sat] = s * np.sign(xrel[sat] + 0.5)
        got = mbi_round(xrel, coeff, restarts=5, rng=rng)
        frac = np.flatnonzero(np.abs(xrel) < s * (1 - 1e-6))
        base = np.where(xrel >= 0, s, -s)
        best = np.inf
        for code in range(1 << frac.size):
            x = base.copy()
            for j, idx in enumerate(frac):
                x[idx] = s if (code >> j) & 1 else -s
            best = min(best, worst_objective(x, coeff))
        val = worst_objective(got, coeff)
        # the result is one of the enumerated completions, so the exhaustive
        # optimum bounds it from below; single-flip search is local, so it
        # may miss that optimum occasionally but must hit it most of the time
        assert val >= best - 1e-12
        assert val <= worst_objective(base, coeff) + 1e-12
        assert np.all(np.abs(got) == s)
        if val <= best + 1e-12:
            optimal += 1
    assert optimal >= 90


def test_mbi_never_worse_than_sign_rounding():
    rng = np.random.default_rng(13)
    for _ in range(50):
        coeff, _, _, _ = random_instance(rng, m=8, k=3)
        s = coeff.amplitude
        xrel = s * np.clip(rng.standard_normal(coeff.n_lifted), -1, 1)
        naive = np.where(xrel >= 0, s, -s)
        got = mbi_round(xrel, coeff, restarts=5, rng=rng)
        assert worst_objective(got, coeff) <= worst_objective(naive, coeff) + 1e-12


def test_mbi_saturated_input_returned_as_signs():
    rng = np.random.default_rng(14)
    coeff, _, _, _ = random_instance(rng, m=4, k=2)
    s = coeff.amplitude
    xrel = s * rng.choice([-1.0, 1.0], size=coeff.n_lifted)
    got = mbi_round(xrel, coeff, restarts=1)
    assert np.array_equal(got, xrel)


def test_mbi_zero_rounds_to_plus():
    coeff = CoefficientMatrix(c=np.zeros((2, 2)), amplitude=1.0)
    got = mbi_round(np.zeros(2), coeff, restarts=1)
    assert np.array_equal(got, np.ones(2))


def test_mbi_restart_monotone_improvement():
    rng = np.random.default_rng(15)
    coeff, _, _, _ = random_instance(rng, m=8, k=3)
    s = coeff.amplitude
    xrel = s * np.clip(rng.standard_normal(coeff.n_lifted) * 0.3, -1, 1)
    vals = []
    for r in range(1, 6):
        got = mbi_round(xrel, coeff, restarts=r, rng=np.random.default_rng(99))
        vals.append(worst_objective(got, coeff))
    assert all(vals[i + 1] <= vals[i] + 1e-15 for i in range(len(vals) - 1))


def test_mbi_requires_rng_for_random_restarts():
    coeff = CoefficientMatrix(c=np.eye(2), amplitude=1.0)
    with pytest.raises(ValueError):
        mbi_round(np.array([0.0, 0.5]), coeff, restarts=2, rng=None)
    with pytest.raises(ValueError):
        mbi_round(np.array([0.0, 0.5]), coeff, restarts=0, rng=None)


def _mbi_round_reference(xbar_relaxed, coeff, restarts, rng=None,
                         fractional_tol=1e-6):
    """The rounding loop that rebuilds every flip delta on each pass."""
    s = coeff.amplitude
    xbar_relaxed = np.asarray(xbar_relaxed, dtype=float)
    base = np.where(xbar_relaxed >= 0, s, -s)
    frac = np.flatnonzero(np.abs(xbar_relaxed) < s * (1.0 - fractional_tol))
    if frac.size == 0:
        return base
    ct = coeff.c.T
    ct_frac = ct[:, frac]
    best_x = None
    best_val = np.inf
    for r in range(restarts):
        x = base.copy()
        if r > 0:
            x[frac] = s * (2.0 * rng.integers(0, 2, size=frac.size) - 1.0)
        w = ct @ x
        while True:
            cur = w.max()
            cand = w[:, None] - 2.0 * (ct_frac * x[frac][None, :])
            cand_max = cand.max(axis=0)
            j = int(np.argmin(cand_max))
            if cand_max[j] >= cur:
                break
            x[frac[j]] = -x[frac[j]]
            w = cand[:, j].copy()
        val = w.max()
        if val < best_val:
            best_val = val
            best_x = x
    return best_x


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 8), k=st.integers(1, 3),
       order=st.sampled_from([2, 4, 8]), restarts=st.sampled_from([1, 5]),
       saturated=st.sampled_from([0.0, 0.4, 1.0]),
       integer_c=st.booleans(), coarse_x=st.booleans())
def test_mbi_bit_exact_against_reference_loop(seed, m, k, order, restarts, saturated,
                                             integer_c, coarse_x):
    # BPSK (order 2, cot = 0), integer coefficients and three-level relaxed
    # points make exact ties in the best-flip choice common
    rng = np.random.default_rng(seed)
    coeff, _, _, _ = random_instance(rng, m=m, k=k, order=order)
    if integer_c:
        coeff = CoefficientMatrix(c=rng.integers(-2, 3, size=coeff.c.shape).astype(float),
                                  amplitude=coeff.amplitude)
    s = coeff.amplitude
    if coarse_x:
        xrel = s * rng.choice([-0.5, 0.0, 0.5], size=coeff.n_lifted)
    else:
        xrel = s * rng.uniform(-1, 1, size=coeff.n_lifted)
    sat = rng.random(coeff.n_lifted) < saturated
    xrel[sat] = s * rng.choice([-1.0, 1.0], size=int(sat.sum()))
    rng_got, rng_want = (np.random.default_rng(seed + 1) for _ in range(2))
    got = mbi_round(xrel, coeff, restarts, rng_got)
    want = _mbi_round_reference(xrel, coeff, restarts, rng_want)
    assert np.array_equal(got, want)
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


# --- solve_symbol ------------------------------------------------------------

def test_solve_symbol_trivial_single_antenna_bpsk():
    c2 = PskConstellation(2)
    res = solve_symbol(build_coefficients(np.array([[1.0 + 0j]]), np.array([1.0 + 0j]), c2,
                                          2.0), SolverConfig(), np.random.default_rng(0))
    s = 1.0  # sqrt(2/2)
    assert res.xbar[0] == pytest.approx(s)
    assert -res.objective == pytest.approx(s)  # margin = s
    assert abs(res.xbar[1]) == pytest.approx(s)  # either imaginary sign


def test_solve_symbol_band_against_brute_force():
    rng = np.random.default_rng(16)
    hits = 0
    for _ in range(30):
        coeff, _, _, _ = random_instance(rng, m=4, k=2)
        res = solve_symbol(coeff, SolverConfig(), rng)
        _, bf = brute_force_onebit(coeff)
        assert res.onebit_lower_bound <= bf + 1e-12
        if res.objective <= bf + 0.05 * (bf - res.onebit_lower_bound) + 1e-12:
            hits += 1
    assert hits >= 27


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 6), k=st.integers(1, 3),
       order=st.sampled_from([2, 4, 8, 16]), power=st.sampled_from([1.0, 100.0]))
def test_solve_symbol_between_lower_bound_and_sign_rounding(seed, m, k, order, power):
    # weak duality makes the certificate a lower bound at any dual point, and
    # MBI starts from the sign rounding of the relaxed point and only keeps
    # improving flips
    rng = np.random.default_rng(seed)
    coeff, _, _, _ = random_instance(rng, m=m, k=k, order=order, power=power)
    res = solve_symbol(coeff, SolverConfig(), rng)
    s = coeff.amplitude
    signs = np.where(res.xbar_relaxed >= 0, s, -s)
    tol = 1e-12 * (1.0 + s * np.abs(coeff.c).sum())
    assert res.onebit_lower_bound <= res.objective + tol
    assert res.objective <= worst_objective(signs, coeff) + tol


def test_solve_symbol_deterministic_given_seed():
    rng = np.random.default_rng(17)
    coeff, _, _, _ = random_instance(rng, m=6, k=2)
    a = solve_symbol(coeff, SolverConfig(), np.random.default_rng(5))
    b = solve_symbol(coeff, SolverConfig(), np.random.default_rng(5))
    assert np.array_equal(a.xbar, b.xbar)
    assert a.objective == b.objective


def test_solve_relaxed_shared_path_bit_exact():
    rng = np.random.default_rng(18)
    coeff, _, _, _ = random_instance(rng, m=6, k=2)
    opts = SolverConfig()
    res = solve_symbol(coeff, opts, np.random.default_rng(1))
    xrel, md = solve_relaxed(coeff, opts.mu, opts)
    assert np.array_equal(res.xbar_relaxed, xrel)
    assert res.relax_value == -md.value


# --- warm starts -------------------------------------------------------------

def _mixed(lam):
    """lam mixed with the uniform point by WARM_START_MIX, as model_start mixes."""
    return (1.0 - WARM_START_MIX) * lam + WARM_START_MIX / lam.size


def _fw_gap(lam, coeff, mu):
    """Frank-Wolfe gap g.lam - min g: by convexity it bounds f_mu(lam) - min f_mu."""
    g = dual_gradient(lam, coeff, mu)
    return float(g @ lam - g.min())


def test_mixed_warm_start_recovers_a_zeroed_optimal_entry():
    # an exact zero stays zero under the multiplicative update: unmixed, MD
    # certifies the optimum of a face as converged; mixed, it reaches the
    # cold relax value -f_mu
    rng = np.random.default_rng(20)
    mu = SolverConfig().mu
    for _ in range(5):
        coeff, _, _, _ = random_instance(rng, m=8, k=3)
        _, cold = solve_relaxed(coeff, mu)
        i = int(np.argmax(cold.lam))
        assert cold.lam[i] > 0.1
        lam0 = cold.lam.copy()
        lam0[i] = 0.0
        lam0 /= lam0.sum()
        _, raw = solve_relaxed(coeff, mu, lam0=lam0)
        assert raw.converged and raw.lam[i] == 0.0
        assert -raw.value < -cold.value - _fw_gap(cold.lam, coeff, mu)
        _, warm = solve_relaxed(coeff, mu, lam0=_mixed(lam0))
        assert warm.converged and warm.lam[i] > 0.1
        bound = max(_fw_gap(warm.lam, coeff, mu), _fw_gap(cold.lam, coeff, mu))
        assert abs(warm.value - cold.value) <= bound


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), drift=st.sampled_from([0.01, 0.3, np.pi]))
def test_mixed_warm_start_agrees_with_cold_start_on_desk_slots(seed, drift):
    # the mixed dual point of one phase setting warm-starts the slot at phases
    # moved by up to drift radians per element
    rng = np.random.default_rng(seed)
    c = QPSK
    mu = SolverConfig().mu
    ch = sample_channels(drop_users(4, rng), 32, 16, rng)
    theta = np.exp(2j * np.pi * rng.random(16))
    moved = theta * np.exp(1j * drift * rng.uniform(-1, 1, 16))
    sym = c.points[rng.integers(0, 4, 4)]
    _, prev = solve_relaxed(
        build_coefficients(effective_matrix(ch, PhaseShifts(theta)), sym, c, 100.0), mu)
    coeff = build_coefficients(effective_matrix(ch, PhaseShifts(moved)), sym, c, 100.0)
    _, cold = solve_relaxed(coeff, mu)
    _, warm = solve_relaxed(coeff, mu, lam0=_mixed(prev.lam))
    assert cold.converged and warm.converged
    bound = max(_fw_gap(warm.lam, coeff, mu), _fw_gap(cold.lam, coeff, mu))
    assert abs(warm.value - cold.value) <= bound


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.sampled_from([2, 4, 16]),
       size=st.sampled_from([(32, 4, 16), (4, 6, 4), (1, 3, 2), (8, 3, 4)]),
       zero=st.booleans())
def test_model_start_is_an_interior_simplex_point(seed, order, size, zero):
    # BPSK duplicates each user's column pair (singular G), m <= k makes G
    # rank deficient, and a zero C falls back to the uniform point
    m, k, n = size
    coeff, _, _, _ = random_instance(np.random.default_rng(seed), m=m, k=k, order=order,
                                     n=n)
    if zero:
        coeff = CoefficientMatrix(c=np.zeros_like(coeff.c), amplitude=coeff.amplitude)
    lam = model_start(coeff, SolverConfig().mu)
    assert lam.shape == (2 * k,) and np.isfinite(lam).all() and lam.min() > 0
    assert abs(lam.sum() - 1.0) <= 1e-12
    if zero:
        assert np.array_equal(lam, np.full(2 * k, 1.0 / (2 * k)))


def test_model_start_falls_back_to_uniform_on_an_overflowing_gram():
    coeff = CoefficientMatrix(c=np.full((4, 4), 1e200), amplitude=1.0)
    with np.errstate(over="ignore"):
        assert np.array_equal(model_start(coeff, SolverConfig().mu), np.full(4, 0.25))


def test_model_start_minimizes_the_quadratic_model():
    # with C lam inside the Huber window f_mu is the quadratic model. With
    # orthogonal columns its minimizer weighs column j by 1 / ||c_j||^2, and MD
    # from the start stops at its first residual test. A column whose
    # projection on another goes past that one's length (c_0 . c_1 >= ||c_0||^2)
    # gets weight 0: its entry of v turns negative and is dropped
    q, _ = np.linalg.qr(np.random.default_rng(22).standard_normal((12, 4)))
    d = np.array([1.0, 2.0, 3.0, 4.0])
    coeff = CoefficientMatrix(c=q * d, amplitude=1.0)
    want = d ** -2 / np.sum(d ** -2)
    lam = model_start(coeff, 10.0)
    assert np.abs(lam - _mixed(want)).max() <= 1e-8  # the ridge eps moves it
    md = mirror_descent(coeff, 10.0, SolverConfig(), lam0=lam)
    assert np.abs(coeff.c @ md.lam).max() < 10.0 * coeff.amplitude
    assert md.converged and md.n_iter == 0
    dominated = CoefficientMatrix(c=np.array([[1.0, 1.2], [0.0, 0.5]]), amplitude=1.0)
    assert np.array_equal(model_start(dominated, 10.0), _mixed(np.array([1.0, 0.0])))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.sampled_from([2, 4, 8, 16]),
       size=st.sampled_from([(32, 4, 16), (4, 6, 4), (1, 3, 2), (8, 3, 4), (2, 2, 2)]),
       zero=st.booleans(), mu=st.sampled_from([1e-6, 5e-4, 10.0]))
def test_model_start_properties(seed, order, size, zero, mu):
    # any order, K >= M (rank-deficient G), a zero C and a window that holds
    # almost nothing (1e-6), part of the entries (the solver's 5e-4) or all of
    # them (10): a finite, strictly interior simplex point. Where the quadratic
    # model's minimizer keeps every entry of C lam inside the window it is the
    # piecewise model's too, and the start equals the oracle up to the ridge
    # solve's rounding, n eps cond(G + eps' I): 1e-16 on a full-rank G, up to
    # 3e-8 measured on BPSK's singular one. If the oracle dropped an entry
    # (mixing leaves it at exactly WARM_START_MIX / 2K), model_start checks the
    # point, and one that fails the START_GAP_RTOL test of f_mu gives the
    # uniform point instead: a dropped entry can be optimal
    m, k, n = size
    coeff, _, _, _ = random_instance(np.random.default_rng(seed), m=m, k=k, order=order,
                                     n=n)
    if zero:
        coeff = CoefficientMatrix(c=np.zeros_like(coeff.c), amplitude=coeff.amplitude)
    lam = model_start(coeff, mu)
    assert lam.shape == (2 * k,) and np.isfinite(lam).all() and lam.min() > 0
    assert abs(lam.sum() - 1.0) <= 1e-12
    if zero:
        assert np.array_equal(lam, np.full(2 * k, 1.0 / (2 * k)))
        return
    oracle = quadratic_model_start(coeff)
    unmixed = (oracle - WARM_START_MIX / (2 * k)) / (1.0 - WARM_START_MIX)
    s = coeff.amplitude
    if np.abs(coeff.c @ unmixed).max() <= mu * s * (1.0 - 1e-6):
        dropped = (oracle == WARM_START_MIX / (2 * k)).any()
        if dropped and (_fw_gap(unmixed, coeff, mu)
                        > START_GAP_RTOL * (dual_value(unmixed, coeff, mu) + s * mu * s)):
            assert np.array_equal(lam, np.full(2 * k, 1.0 / (2 * k)))
            return
        g = coeff.c.T @ coeff.c
        ridged = g + 1e-9 * g.diagonal().max() * np.eye(2 * k)
        tol = 2 * k * np.finfo(float).eps * np.linalg.cond(ridged)
        assert np.abs(lam - oracle).max() <= tol


START_SIZES = [(32, 4, 16), (4, 6, 4), (1, 3, 2), (8, 3, 4), (2, 2, 2)]


def _start_stack(rng, size, slots):
    """One frame's coefficient matrices of shape size = (M, K, N): a slot per
    (order, power, zero) in slots, with C all zeros where zero is set."""
    m, k, n = size
    coeffs = []
    for order, power, zero in slots:
        coeff = random_instance(rng, m=m, k=k, order=order, power=power, n=n)[0]
        if zero:
            coeff = CoefficientMatrix(c=np.zeros_like(coeff.c), amplitude=coeff.amplitude)
        coeffs.append(coeff)
    return coeffs


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), size=st.sampled_from(START_SIZES),
       mu=st.sampled_from([1e-6, 5e-4, 10.0]),
       slots=st.lists(st.tuples(st.sampled_from([2, 4, 8, 16]), st.sampled_from([1.0, 100.0]),
                                st.sampled_from([False, False, False, True])),
                      min_size=1, max_size=12))
def test_model_starts_rows_depend_only_on_their_own_slot(seed, size, mu, slots):
    # stacks that mix orders, powers, K >= M, zero C and, as the witness test
    # below shows of this generator, slots that drop entries and slots that
    # fall back to the uniform point: every row equals its slot's T = 1 start
    # bit for bit, and a permuted stack or a subset gives the same rows
    rng = np.random.default_rng(seed)
    coeffs = _start_stack(rng, size, slots)
    rows = model_starts(coeffs, mu)
    assert rows.shape == (len(coeffs), 2 * size[1])
    for row, coeff in zip(rows, coeffs):
        assert np.array_equal(row, model_start(coeff, mu))
    perm = rng.permutation(len(coeffs))
    assert np.array_equal(model_starts([coeffs[i] for i in perm], mu), rows[perm])
    keep = rng.random(len(coeffs)) < 0.5
    keep[rng.integers(len(coeffs))] = True
    subset = np.flatnonzero(keep)
    assert np.array_equal(model_starts([coeffs[i] for i in subset], mu), rows[subset])


def test_model_starts_stacks_hold_every_kind_of_start():
    # the property above draws its stacks this way; on fixed seeds they hold
    # zero C, points with a dropped entry (left at exactly WARM_START_MIX / 2K
    # by the mixing) and points that fail the START_GAP_RTOL check (the
    # uniform point, unmixed), and the rows still equal their T = 1 starts
    kinds = dict.fromkeys(("zero", "dropped", "fallback"), 0)
    rng = np.random.default_rng(24)
    for size in START_SIZES:
        for mu in (1e-6, 5e-4, 10.0):
            slots = [(order, power, (order, power) == (2, 1.0))
                     for order in (2, 4, 8, 16) for power in (1.0, 100.0)]
            coeffs = _start_stack(rng, size, slots)
            n = 2 * size[1]
            for row, coeff in zip(model_starts(coeffs, mu), coeffs):
                assert np.array_equal(row, model_start(coeff, mu))
                if not coeff.c.any():
                    kinds["zero"] += 1
                elif np.array_equal(row, np.full(n, 1.0 / n)):
                    kinds["fallback"] += 1
                elif (row == WARM_START_MIX / n).any():
                    kinds["dropped"] += 1
    assert min(kinds.values()) > 0, kinds


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.sampled_from([2, 4, 8, 16]),
       size=st.sampled_from([(32, 4, 16), (128, 14, 32)]))
def test_model_start_agrees_with_a_uniform_start(seed, order, size):
    # at desk and paper size
    m, k, n = size
    coeff, _, _, _ = random_instance(np.random.default_rng(seed), m=m, k=k, order=order,
                                     n=n)
    mu = SolverConfig().mu
    _, cold = solve_relaxed(coeff, mu)
    _, uniform = solve_relaxed(coeff, mu, lam0=np.full(2 * k, 1.0 / (2 * k)))
    assert cold.converged and uniform.converged
    bound = max(_fw_gap(cold.lam, coeff, mu), _fw_gap(uniform.lam, coeff, mu))
    assert abs(cold.value - uniform.value) <= bound


def test_model_start_takes_fewer_md_iterations(monkeypatch):
    # cold solve_relaxed, which starts at model_start, against the same solve
    # from the quadratic model's minimizer (the oracle) and from the uniform
    # point, at the solver's mu and tolerance; every MD call of a solve
    # counts. Measured (model_start, oracle, uniform): the step-rule slot set
    # at desk size 0, 571, 965 and at paper size 0, 218, 430; on 30 desk-size
    # slots of each order, BPSK 0, 239, 364, 8-PSK 0, 881, 1546 and 16-PSK 0,
    # 2855, 5256; the desk-size step-rule slots solved at mu = 2e-5, through
    # the 5e-4 stage, 4750, 5888, 6515
    iters = []

    def spy(*args, real=mirror_descent, **kwargs):
        md = real(*args, **kwargs)
        iters.append(md.n_iter)
        return md

    monkeypatch.setattr(onebit, "mirror_descent", spy)
    slots = [(m, coeff, SolverConfig().mu) for m, coeff, _ in _step_rule_slots()]
    rng = np.random.default_rng(21)
    for order in (2, 8, 16):
        slots += [(order, random_instance(rng, m=32, k=4, order=order, n=16)[0],
                   SolverConfig().mu) for _ in range(30)]
    slots += [("staged", coeff, 2e-5) for m, coeff, _ in _step_rule_slots() if m == 32]
    totals = {}
    for key, coeff, mu in slots:
        n = coeff.n_constraints
        total = totals.setdefault(key, [0, 0, 0])
        for i, lam0 in enumerate((None, quadratic_model_start(coeff), np.full(n, 1.0 / n))):
            iters.clear()
            assert solve_relaxed(coeff, mu, lam0=lam0)[1].converged
            total[i] += sum(iters)
    assert all(new < oracle < uniform for new, oracle, uniform in totals.values()), totals


def test_solve_relaxed_rejects_warm_start_off_the_simplex():
    rng = np.random.default_rng(21)
    coeff, _, _, _ = random_instance(rng, m=6, k=2)
    n = coeff.n_constraints
    # NaN passes both the sign and the sum test, so finiteness is its own check
    bad = (np.full(n, 0.5), np.r_[-0.1, np.full(n - 1, 1.1 / (n - 1))],
           np.full(n + 1, 1.0 / (n + 1)), np.r_[np.nan, np.full(n - 1, 1.0 / (n - 1))],
           np.r_[np.inf, np.zeros(n - 1)])
    for lam0 in bad:
        for mu in (SolverConfig().mu, 1e-5):  # with and without the mu stages
            with pytest.raises(ValueError, match="simplex"):
                solve_relaxed(coeff, mu, lam0=lam0)


# --- brute force -------------------------------------------------------------

def test_brute_force_two_component_enumeration():
    # 2M = 2: four candidates; minimize max(c^T x)
    c = np.array([[1.0, -0.5], [0.2, 0.3]])
    coeff = CoefficientMatrix(c=c, amplitude=1.0)
    xs = [np.array([a, b], dtype=float) for a in (-1, 1) for b in (-1, 1)]
    want = min(worst_objective(x, coeff) for x in xs)
    x_opt, val = brute_force_onebit(coeff)
    assert val == pytest.approx(want)
    assert worst_objective(x_opt, coeff) == pytest.approx(val)


def test_brute_force_beats_random_signs_and_relaxation_bound():
    rng = np.random.default_rng(19)
    coeff, _, _, _ = random_instance(rng, m=4, k=2)
    s = coeff.amplitude
    _, bf = brute_force_onebit(coeff)
    for _ in range(1000):
        x = s * rng.choice([-1.0, 1.0], coeff.n_lifted)
        assert bf <= worst_objective(x, coeff) + 1e-12
    # box relaxation optimum lower-bounds the one-bit optimum
    xrel, md = solve_relaxed(coeff, 5e-4, SolverConfig(md_tol=1e-9))
    power = coeff.n_lifted * s**2
    assert -md.value - 5e-4 * power / 2 <= bf + 1e-12


def test_brute_force_dimension_guard():
    with pytest.raises(ValueError):
        brute_force_onebit(CoefficientMatrix(c=np.ones((26, 2)), amplitude=1.0))
