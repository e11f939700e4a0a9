"""One-bit precoder tests: coefficients, Huber dual, mirror descent, MBI.

Expected values marked as oracle results were produced by independent
computations (finite differences, dense grids, exhaustive enumeration)
implemented inside the tests themselves.
"""

import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from onebit_oracles import (
    brute_force_onebit,
    certificates,
    cold_start,
    dual_value,
    huber,
    quadratic_model_start,
)
from scipy.optimize import linprog

from irsprecode import onebit
from irsprecode.baselines import no_irs_variant
from irsprecode.channel import (
    PhaseShifts,
    drop_users,
    effective_matrix,
    sample_channels,
)
from irsprecode.constellation import PskConstellation, SymbolFrame, margin
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


def test_build_coefficients_needs_one_symbol_per_user():
    # a single symbol would broadcast over both users
    with pytest.raises(ValueError, match="one symbol per user"):
        build_coefficients(np.ones((2, 3), dtype=complex), np.array([1.0 + 0j]), QPSK, 1.0)


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
    # an empty xbar used to become a (1, 0) frame, and True an amplitude of 1
    for xbar in (np.array([]), np.zeros((0, 2)), np.zeros((2, 0))):
        with pytest.raises(ValueError, match="T, M >= 1"):
            OneBitFrame(xbar=xbar, amplitude=1.0)
    with pytest.raises(ValueError, match="amplitude"):
        OneBitFrame(xbar=[[1.0, -1.0]], amplitude=True)


def test_onebit_frame_from_slots_copies_its_rows_once():
    rows = [np.array([2.0, -2.0, -2.0, 2.0]), np.array([-2.0, -2.0, 2.0, 2.0])]
    frame = OneBitFrame.from_slots(rows, 16.0)  # s = sqrt(16 / 4) = 2
    rows[0][0] = -2.0  # the frame keeps its own copy
    assert np.array_equal(frame.xbar, [[2.0, -2.0, -2.0, 2.0], [-2.0, -2.0, 2.0, 2.0]])
    assert frame.amplitude == 2.0 and not frame.xbar.flags.writeable
    with pytest.raises(ValueError, match="one slot"):
        OneBitFrame.from_slots([], 16.0)
    with pytest.raises(ValueError, match="magnitude"):
        OneBitFrame.from_slots(rows, 4.0)


def test_onebit_frame_x_is_built_once_and_read_only():
    xbar = np.array([[2.0, -2.0, -2.0, 2.0], [-2.0, -2.0, 2.0, 2.0]])
    frame = OneBitFrame(xbar=xbar, amplitude=2.0)
    xbar[0, 0] = -2.0  # the frame keeps its own copy
    x = frame.x
    assert x is frame.x
    assert np.array_equal(x, frame.xbar[:, :2] + 1j * frame.xbar[:, 2:])
    assert np.array_equal(x, [[2 - 2j, -2 + 2j], [-2 + 2j, -2 + 2j]])
    for array in (x, frame.xbar):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 0.0


def test_coefficient_matrix_validation():
    with pytest.raises(ValueError):
        CoefficientMatrix(c=np.ones((3, 2)), amplitude=1.0)
    with pytest.raises(ValueError):
        CoefficientMatrix(c=np.ones((2, 2)), amplitude=0.0)
    with pytest.raises(ValueError):
        CoefficientMatrix(c=np.array([[np.nan, 1.0], [0.0, 1.0]]), amplitude=1.0)
    for amplitude in (np.nan, np.inf, True):  # NaN must fail the range check too
        with pytest.raises(ValueError, match="amplitude"):
            CoefficientMatrix(c=np.ones((2, 2)), amplitude=amplitude)
    # a 0 x 0 matrix used to reach mirror_descent, which divided by zero
    for shape in ((0, 0), (0, 2), (2, 0)):
        with pytest.raises(ValueError, match="M, K >= 1"):
            CoefficientMatrix(c=np.zeros(shape), amplitude=1.0)
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
        with patch.object(onebit, "MD_MAX_ITER", 0):
            md = mirror_descent(coeff, SolverConfig(mu=mu), uniform)
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


def _recover_x_clip(lam, coeff, mu):
    """recover_x as the np.clip formula."""
    s = coeff.amplitude
    return -np.clip((coeff.c @ np.asarray(lam, dtype=float)) / mu, -s, s)


def _worst_objective_max(xbar, coeff):
    """worst_objective as the np.max formula."""
    return float(np.max(coeff.c.T @ np.asarray(xbar, dtype=float)))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.sampled_from([2, 4, 8, 16]),
       size=st.sampled_from([(32, 4, 16), (128, 14, 32), (8, 3, 4), (1, 1, 1)]),
       mu=st.sampled_from([1e-6, 2e-5, 5e-4, 1.0, 1e3]),
       lam_kind=st.sampled_from(["dirichlet", "zeros", "vertex"]),
       integer_c=st.booleans())
def test_recover_x_and_worst_objective_bit_exact_against_formulas(seed, order, size, mu,
                                                                  lam_kind, integer_c):
    # the in-place clip and the ufunc maximum give the formulas' bits, signed
    # zeros included: integer coefficients and vertex points make exact
    # zeros of C lam and of C^T xbar common
    rng = np.random.default_rng(seed)
    m, k, n = size
    coeff, _, _, _ = random_instance(rng, m=m, k=k, order=order, n=n)
    if integer_c:
        coeff = CoefficientMatrix(c=rng.integers(-2, 3, size=coeff.c.shape).astype(float),
                                  amplitude=coeff.amplitude)
    lam = rng.dirichlet(np.ones(coeff.n_constraints))
    if lam_kind == "zeros":
        lam[rng.permutation(lam.size)[:lam.size // 2]] = 0.0
        lam /= lam.sum()
    elif lam_kind == "vertex":
        lam = np.eye(coeff.n_constraints)[rng.integers(coeff.n_constraints)]
    xrel = recover_x(lam, coeff, mu)
    assert xrel.tobytes() == _recover_x_clip(lam, coeff, mu).tobytes()
    s = coeff.amplitude
    for xbar in (xrel, np.where(rng.random(coeff.n_lifted) < 0.5, s, -s),
                 s * rng.integers(-1, 2, size=coeff.n_lifted)):
        got, want = worst_objective(xbar, coeff), _worst_objective_max(xbar, coeff)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


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
    for bad in (dict(md_tol=-1.0), dict(md_tol=np.nan),
                dict(md_tol=np.inf), dict(mu=0.0), dict(mu=np.nan), dict(mu=np.inf)):
        with pytest.raises(ValueError):
            SolverConfig(**bad)


# --- mirror descent ----------------------------------------------------------

def test_md_zero_matrix_stays_uniform():
    coeff = CoefficientMatrix(c=np.zeros((4, 4)), amplitude=1.0)
    res = mirror_descent(coeff, SolverConfig(mu=1e-3), _uniform(coeff))
    assert res.converged and res.n_iter == 0
    assert np.allclose(res.lam, 0.25)


def test_md_iterates_stay_on_simplex():
    rng = np.random.default_rng(8)
    coeff, _, _, _ = random_instance(rng, m=8, k=3)
    res = mirror_descent(coeff, SolverConfig(mu=5e-4, md_tol=1e-8), _uniform(coeff))
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
        res = mirror_descent(coeff, SolverConfig(mu=mu, md_tol=1e-9), _uniform(coeff))
        p = np.linspace(0.0, 1.0, 10001)
        grid = np.stack([p, 1 - p])
        vals = coeff.amplitude * huber(coeff.c @ grid, mu * coeff.amplitude).sum(axis=0)
        assert res.value <= vals.min() + 1e-4 * (1 + abs(vals.min()))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.sampled_from([2, 4, 8, 16]),
       size=st.sampled_from([(32, 4, 16), (128, 14, 32), (8, 3, 4)]),
       start=st.sampled_from(["uniform", "mixed", "zeros"]))
def test_md_monotone_objective_trace(seed, order, size, start):
    # every accepted step passes the sufficient-decrease test or sits at the
    # safe step, whichever step the previous iteration ended on. Spies on the
    # two kernels read the values off: the value of the accepted point is the
    # last one computed before each gradient.
    rng = np.random.default_rng(seed)
    m, k, n = size
    coeff, _, _, _ = random_instance(rng, m=m, k=k, order=order, n=n)
    opts = SolverConfig(md_tol=1e-8)
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
        mp.setattr(onebit, "MD_MAX_ITER", 400)
        mp.setattr(onebit, "_clipped_value", value_spy)
        mp.setattr(onebit, "_dual_grad", grad_spy)
        res = mirror_descent(coeff, opts, lam0=_start(rng, coeff, start))
    values = np.array(accepted)
    assert values.size == res.n_iter + 1 and values[-1] == res.value
    assert np.all(np.diff(values) <= 1e-12 * np.abs(values[:-1]))
    if res.converged:
        assert res.residual <= opts.md_tol


def test_md_reports_nonconvergence_instead_of_failing(monkeypatch):
    rng = np.random.default_rng(11)
    coeff, _, _, _ = random_instance(rng, m=8, k=3)
    monkeypatch.setattr(onebit, "MD_MAX_ITER", 2)
    res = mirror_descent(coeff, SolverConfig(mu=5e-4, md_tol=1e-14), _uniform(coeff))
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


def _uniform(coeff):
    """The uniform point of the simplex of coeff's dual."""
    n = coeff.n_constraints
    return np.full(n, 1.0 / n)


def _start(rng, coeff, start):
    """Start point of kind "uniform", "mixed" (a Dirichlet draw mixed as AO
    mixes) or "zeros" (a Dirichlet draw, half zeroed)."""
    if start == "uniform":
        return _uniform(coeff)
    lam0 = rng.dirichlet(np.ones(coeff.n_constraints))
    if start == "mixed":
        return _mixed(lam0)
    lam0[rng.permutation(lam0.size)[:lam0.size // 2]] = 0.0
    return lam0 / lam0.sum()


def _md_reference(coeff, mu, opts, lam0, double_always=False):
    """The mirror-descent loop with the Bregman model from its definition:
    masked KL sum, Huber value from huber(), safe step from the SVD norm.
    Each iteration doubles the previous step if the previous iteration took
    its first trial point (or always, with double_always) and then halves
    it until the test holds. Stops at onebit.MD_MAX_ITER iterations."""
    n = coeff.n_constraints
    s = coeff.amplitude
    rho = mu * s
    c = coeff.c
    ct = np.ascontiguousarray(c.T)
    lam = np.asarray(lam0, dtype=float).copy()
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
    for it in range(onebit.MD_MAX_ITER + 1):
        grad = (ct @ np.clip(y, -rho, rho)) * (s / rho)
        w = log_lam - grad
        w -= w.max()
        e = np.exp(w)
        residual = float(np.abs(e / e.sum() - lam).sum())
        if residual <= opts.md_tol:
            converged = True
            break
        if it == onebit.MD_MAX_ITER:
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
       start=st.sampled_from(["uniform", "mixed", "zeros", "zero-matrix"]),
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
    opts = SolverConfig(mu=mu)
    with patch.object(onebit, "MD_MAX_ITER", 400):
        md = mirror_descent(coeff, opts, lam0=lam0)
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
    # paper-size (256x28) QPSK slots from uniform and mixed starts at the
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
        for lam0 in (_uniform(coeff), mixed):
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
    for _ in range(100):
        coeff, _, _, _ = random_instance(rng, m=4, k=2)
        s = coeff.amplitude
        xrel = s * rng.uniform(-1, 1, size=coeff.n_lifted)
        # force some entries to look saturated
        sat = rng.random(coeff.n_lifted) < 0.4
        xrel[sat] = s * np.sign(xrel[sat] + 0.5)
        got = mbi_round(xrel, coeff)
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
        # may miss that optimum (how often is pinned by acceptance criterion
        # 3 and test_solve_symbol_band_against_brute_force, on solved slots)
        assert val >= best - 1e-12
        assert val <= worst_objective(base, coeff) + 1e-12
        assert np.all(np.abs(got) == s)


def test_mbi_never_worse_than_sign_rounding():
    rng = np.random.default_rng(13)
    for _ in range(50):
        coeff, _, _, _ = random_instance(rng, m=8, k=3)
        s = coeff.amplitude
        xrel = s * np.clip(rng.standard_normal(coeff.n_lifted), -1, 1)
        naive = np.where(xrel >= 0, s, -s)
        got = mbi_round(xrel, coeff)
        assert worst_objective(got, coeff) <= worst_objective(naive, coeff) + 1e-12


def test_mbi_saturated_input_returned_as_signs():
    rng = np.random.default_rng(14)
    coeff, _, _, _ = random_instance(rng, m=4, k=2)
    s = coeff.amplitude
    xrel = s * rng.choice([-1.0, 1.0], size=coeff.n_lifted)
    got = mbi_round(xrel, coeff)
    assert np.array_equal(got, xrel)


def test_mbi_zero_rounds_to_plus():
    coeff = CoefficientMatrix(c=np.zeros((2, 2)), amplitude=1.0)
    got = mbi_round(np.zeros(2), coeff)
    assert np.array_equal(got, np.ones(2))


def test_mbi_rejects_a_stale_restart_count():
    # mbi_round once took (restarts, rng) after coeff; a call still passing
    # them positionally must fail, not land in fractional_tol
    coeff = CoefficientMatrix(c=np.eye(2), amplitude=1.0)
    with pytest.raises(TypeError):
        mbi_round(np.array([0.0, 0.5]), coeff, 1)
    with pytest.raises(TypeError):
        mbi_round(np.array([0.0, 0.5]), coeff, restarts=1)


def _mbi_round_reference(xbar_relaxed, coeff, fractional_tol=1e-6):
    """The rounding loop that rebuilds every flip delta on each pass."""
    s = coeff.amplitude
    xbar_relaxed = np.asarray(xbar_relaxed, dtype=float)
    x = np.where(xbar_relaxed >= 0, s, -s)
    frac = np.flatnonzero(np.abs(xbar_relaxed) < s * (1.0 - fractional_tol))
    if frac.size == 0:
        return x
    ct = coeff.c.T
    ct_frac = ct[:, frac]
    w = ct @ x
    while True:
        cur = w.max()
        cand = w[:, None] - 2.0 * (ct_frac * x[frac][None, :])
        cand_max = cand.max(axis=0)
        j = int(np.argmin(cand_max))
        if cand_max[j] >= cur:
            return x
        x[frac[j]] = -x[frac[j]]
        w = cand[:, j].copy()


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       size=st.one_of(st.tuples(st.integers(1, 8), st.integers(1, 3)),
                      st.sampled_from([(32, 4), (128, 14)])),
       order=st.sampled_from([2, 4, 8]), saturated=st.sampled_from([0.0, 0.4, 1.0]),
       integer_c=st.booleans(), coarse_x=st.booleans())
def test_mbi_bit_exact_against_reference_loop(seed, size, order, saturated, integer_c,
                                             coarse_x):
    # BPSK (order 2, cot = 0), integer coefficients and three-level relaxed
    # points make exact ties in the best-flip choice common. The desk
    # (M=32, K=4) and paper (M=128, K=14) sizes are drawn too, where the
    # delta block has 2K rows and up to 2M columns and, with no saturated
    # entries, every entry is fractional
    rng = np.random.default_rng(seed)
    m, k = size
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
    assert np.array_equal(mbi_round(xrel, coeff), _mbi_round_reference(xrel, coeff))


def test_mbi_bit_exact_at_every_fractional_count():
    # a desk slot (M=32, K=4) with 1 to 2M fractional entries, three relaxed
    # points each, so the delta block's rows take every length; at length 8
    # (a 64-byte column stride) NumPy 2.4's in-place np.negative of a column
    # reads the wrong entries
    rng = np.random.default_rng(30)
    coeff, _, _, _ = random_instance(rng, m=32, k=4)
    s = coeff.amplitude
    for n_frac in np.repeat(np.arange(1, coeff.n_lifted + 1), 3):
        xrel = s * rng.choice([-1.0, 1.0], size=coeff.n_lifted)
        xrel[rng.permutation(coeff.n_lifted)[:n_frac]] = s * rng.uniform(-0.5, 0.5, n_frac)
        assert np.array_equal(mbi_round(xrel, coeff), _mbi_round_reference(xrel, coeff)), n_frac


# --- solve_symbol ------------------------------------------------------------

def _solve_cold(coeff, opts=SolverConfig()):
    """solve_symbol of coeff from its cold start: (xbar, md)."""
    return solve_symbol(coeff, opts, cold_start(coeff, opts))


def test_solve_symbol_trivial_single_antenna_bpsk():
    c2 = PskConstellation(2)
    coeff = build_coefficients(np.array([[1.0 + 0j]]), np.array([1.0 + 0j]), c2, 2.0)
    xbar, _ = _solve_cold(coeff)
    s = 1.0  # sqrt(2/2)
    assert xbar[0] == pytest.approx(s)
    assert -worst_objective(xbar, coeff) == pytest.approx(s)  # margin = s
    assert abs(xbar[1]) == pytest.approx(s)  # either imaginary sign


def test_solve_symbol_band_against_brute_force():
    rng = np.random.default_rng(16)
    hits = 0
    for _ in range(30):
        coeff, _, _, _ = random_instance(rng, m=4, k=2)
        cert = certificates(*_solve_cold(coeff), coeff, SolverConfig())
        _, bf = brute_force_onebit(coeff)
        assert cert.onebit_lower_bound <= bf + 1e-12
        if cert.objective <= bf + 0.05 * (bf - cert.onebit_lower_bound) + 1e-12:
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
    opts = SolverConfig()
    lam0 = cold_start(coeff, opts)
    xrel, _ = solve_relaxed(coeff, opts, lam0)
    cert = certificates(*solve_symbol(coeff, opts, lam0), coeff, opts)
    s = coeff.amplitude
    signs = np.where(xrel >= 0, s, -s)
    tol = 1e-12 * (1.0 + s * np.abs(coeff.c).sum())
    assert cert.onebit_lower_bound <= cert.objective + tol
    assert cert.objective <= worst_objective(signs, coeff) + tol


def test_solve_symbol_deterministic_given_seed():
    # a pure function of the slot, the settings and the start: the seed that
    # drew the slot fixes the design
    rng = np.random.default_rng(17)
    coeff, _, _, _ = random_instance(rng, m=6, k=2)
    (xa, ma), (xb, mb) = _solve_cold(coeff), _solve_cold(coeff)
    assert np.array_equal(xa, xb)
    assert worst_objective(xa, coeff) == worst_objective(xb, coeff)
    assert np.array_equal(ma.lam, mb.lam) and ma.value == mb.value
    # solve_symbol once took an rng before lam0; one still passed there fails
    with pytest.raises(TypeError):
        solve_symbol(coeff, SolverConfig(), np.random.default_rng(5))
    # and every argument is required: a start is the caller's to give
    with pytest.raises(TypeError):
        solve_symbol(coeff, SolverConfig())


def test_solve_relaxed_shared_path_bit_exact():
    rng = np.random.default_rng(18)
    coeff, _, _, _ = random_instance(rng, m=6, k=2)
    opts = SolverConfig()
    lam0 = cold_start(coeff, opts)
    xbar, md_symbol = solve_symbol(coeff, opts, lam0)
    xrel, md = solve_relaxed(coeff, opts, lam0)
    assert np.array_equal(xbar, mbi_round(xrel, coeff))
    assert np.array_equal(md_symbol.lam, md.lam) and md_symbol.value == md.value


# --- box relaxation against an exact LP -------------------------------------

def box_lp_value(coeff):
    """v_box = min over x in [-s, s]^{2M} of max_k c_k^T x, solved exactly as
    the LP min t s.t. C^T x <= t by HiGHS."""
    n, n_con = coeff.c.shape
    s = coeff.amplitude
    res = linprog(np.r_[np.zeros(n), 1.0], A_ub=np.c_[coeff.c.T, -np.ones(n_con)],
                  b_ub=np.zeros(n_con), bounds=[(-s, s)] * n + [(None, None)],
                  method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def check_box_band(coeff, opts=SolverConfig()):
    """Check a cold solve_symbol's certificates and designs against v_box;
    returns (v_box, the certificates).

    Every one-bit point has ||xbar||^2 = P and lies in the box, so weak
    duality gives onebit_lower_bound <= v_box. v_box is at most the
    regularized box optimum, which relax_value reaches up to the dual point's
    suboptimality; that is at most its Frank-Wolfe gap, the only slack MD's
    tolerance leaves."""
    lam0 = cold_start(coeff, opts)
    xbar, md = solve_symbol(coeff, opts, lam0)
    cert = certificates(xbar, md, coeff, opts)
    v = box_lp_value(coeff)
    g = dual_gradient(md.lam, coeff, opts.mu)
    eps = float(g @ md.lam - g.min())
    lp_tol = 1e-9 * (1.0 + abs(v))  # HiGHS's optimality tolerance
    s = coeff.amplitude
    assert np.all(np.abs(solve_relaxed(coeff, opts, lam0)[0]) <= s)
    assert cert.onebit_lower_bound <= v + lp_tol
    assert v <= cert.relax_value + eps + lp_tol
    assert cert.objective >= v - lp_tol
    return v, cert


def _box_lp_slots():
    """(m, coeff) of the fixed set of 40 desk-size (M=32, K=4, N=16) and 10
    paper-size (M=128, K=14, N=32) QPSK slots, in the order they are drawn."""
    rng = np.random.default_rng(40)
    for m, k, n, count in ((32, 4, 16, 40), (128, 14, 32, 10)):
        for _ in range(count):
            yield m, random_instance(rng, m=m, k=k, n=n)[0]


def test_box_relaxation_against_exact_lp():
    ratios = {32: [], 128: []}
    for m, coeff in _box_lp_slots():
        v, cert = check_box_band(coeff)
        assert v < 0  # at these sizes the box reaches a positive worst margin
        ratios[m].append(cert.objective / v)  # MBI's worst margin over the box's
    assert [len(r) for r in ratios.values()] == [40, 10]
    assert all(0 < r <= 1 + 1e-9 for rs in ratios.values() for r in rs)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 6), k=st.integers(1, 4),
       order=st.sampled_from([2, 4, 16]), power=st.sampled_from([1.0, 100.0]),
       bare=st.booleans())
def test_box_relaxation_against_exact_lp_small(seed, m, k, order, power, bare):
    # K >= M, where the box may reach no positive margin (v_box = 0), BPSK
    # (cot = 0), 16-PSK and a channel with no reflected path are all drawn
    rng = np.random.default_rng(seed)
    c = PskConstellation(order)
    ch = sample_channels(drop_users(k, rng), m, 4, rng)
    if bare:
        ch = no_irs_variant(ch)
    h_eff = effective_matrix(ch, PhaseShifts.random(4, rng))
    coeff = build_coefficients(h_eff, c.points[rng.integers(0, order, k)], c, power)
    check_box_band(coeff)


# --- warm starts -------------------------------------------------------------

def _mixed(lam):
    """lam mixed with the uniform point by WARM_START_MIX, as model_starts mixes."""
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
    opts = SolverConfig()
    mu = opts.mu
    for _ in range(5):
        coeff, _, _, _ = random_instance(rng, m=8, k=3)
        _, cold = solve_relaxed(coeff, opts, cold_start(coeff, opts))
        i = int(np.argmax(cold.lam))
        assert cold.lam[i] > 0.1
        lam0 = cold.lam.copy()
        lam0[i] = 0.0
        lam0 /= lam0.sum()
        _, raw = solve_relaxed(coeff, opts, lam0)
        assert raw.converged and raw.lam[i] == 0.0
        assert -raw.value < -cold.value - _fw_gap(cold.lam, coeff, mu)
        _, warm = solve_relaxed(coeff, opts, _mixed(lam0))
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
    opts = SolverConfig()
    mu = opts.mu
    ch = sample_channels(drop_users(4, rng), 32, 16, rng)
    theta = np.exp(2j * np.pi * rng.random(16))
    moved = theta * np.exp(1j * drift * rng.uniform(-1, 1, 16))
    sym = c.points[rng.integers(0, 4, 4)]
    before = build_coefficients(effective_matrix(ch, PhaseShifts(theta)), sym, c, 100.0)
    _, prev = solve_relaxed(before, opts, cold_start(before, opts))
    coeff = build_coefficients(effective_matrix(ch, PhaseShifts(moved)), sym, c, 100.0)
    _, cold = solve_relaxed(coeff, opts, cold_start(coeff, opts))
    _, warm = solve_relaxed(coeff, opts, _mixed(prev.lam))
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
    lam = model_starts([coeff], SolverConfig().mu)[0]
    assert lam.shape == (2 * k,) and np.isfinite(lam).all() and lam.min() > 0
    assert abs(lam.sum() - 1.0) <= 1e-12
    if zero:
        assert np.array_equal(lam, np.full(2 * k, 1.0 / (2 * k)))


def _scaled_gaussian(seed, shape, e):
    return np.ldexp(np.random.default_rng(seed).standard_normal(shape), e)


# slots outside the range, each at a magnitude where the solvers' floats
# break: a Gram that overflows; model_starts' active-set weights that
# overflow; a subnormal G whose ridge underflows to 0, so the start's solve
# meets a singular matrix; and MD's Gram at 2^520, whose overflow leaves
# _sigma_max_sq's eigvalsh without convergence
OUT_OF_RANGE_SLOTS = {
    "gram-overflow-1e200": np.full((4, 4), 1e200),
    "weights-overflow-2^-505": _scaled_gaussian(0, (2, 6), -505),
    "singular-ridge-2^-536": _scaled_gaussian(0, (2, 2), -536),
    "md-eigvalsh-2^520": _scaled_gaussian(0, (8, 4), 520),
}


@pytest.mark.parametrize("name", OUT_OF_RANGE_SLOTS)
def test_coefficient_matrix_rejects_slots_outside_the_magnitude_range(name):
    with pytest.raises(ValueError, match=r"finite.*2\^\[-450, 450\]"):
        CoefficientMatrix(c=OUT_OF_RANGE_SLOTS[name], amplitude=1.0)


@pytest.mark.parametrize("seed", [0, 1])
def test_model_starts_take_a_slot_whose_weight_sum_overflows_without_a_warning(seed):
    # at entries near 2^-497 the first pass's active-set weights are finite
    # but their sum overflows, so such a slot is rejected at construction.
    # The same K > M slot at the range's low end, max |c| in [2^-450, 2^-449),
    # takes an interior simplex start with no warning (the suite's warning
    # filter turns one into an error)
    with pytest.raises(ValueError, match=r"finite.*2\^\[-450, 450\]"):
        CoefficientMatrix(c=_scaled_gaussian(seed, (2, 6), -497), amplitude=1.0)
    g = _scaled_gaussian(seed, (2, 6), 0)
    c = np.ldexp(g, -449 - np.frexp(np.abs(g).max())[1])
    lam = model_starts([CoefficientMatrix(c=c, amplitude=1.0)], SolverConfig().mu)[0]
    assert np.isfinite(lam).all() and lam.min() > 0 and abs(lam.sum() - 1.0) <= 1e-12


def test_model_starts_keep_a_singular_slot_apart_from_the_slot_stacked_with_it():
    # K > M leaves G = C^T C singular, so only the ridge makes its KKT
    # system solvable; each slot of the stack keeps its own one-slot start
    singular = CoefficientMatrix(c=np.random.default_rng(0).standard_normal((2, 6)),
                                 amplitude=1.0)
    plain, _, _, _ = random_instance(np.random.default_rng(1), m=1, k=3)
    mu = SolverConfig().mu
    rows = model_starts([singular, plain], mu)
    assert np.array_equal(rows[0], model_starts([singular], mu)[0])
    assert np.array_equal(rows[1], model_starts([plain], mu)[0])
    assert not np.array_equal(rows[0], rows[1])


def test_coefficient_matrix_admits_exactly_the_magnitude_range():
    # max |c| is 0 or in [2^-450, 2^450], whatever the sign of the entry
    # that sets it; a step of one ulp past either end is rejected
    assert onebit.COEFF_RANGE == 2.0 ** 450
    CoefficientMatrix(c=np.zeros((2, 2)), amplitude=1.0)
    for peak in (2.0 ** -450, 2.0 ** 450):
        for sign in (1.0, -1.0):
            CoefficientMatrix(c=np.array([[sign * peak, peak / 2], [0.0, -peak / 4]]),
                              amplitude=1.0)
    for peak in (np.nextafter(2.0 ** -450, 0.0), np.nextafter(2.0 ** 450, np.inf),
                 np.finfo(float).tiny / 4, np.inf, np.nan):
        for sign in (1.0, -1.0):
            with pytest.raises(ValueError, match=r"finite.*2\^\[-450, 450\]"):
                CoefficientMatrix(c=np.array([[0.0, sign * peak], [0.0, 0.0]]), amplitude=1.0)


SCALE_EXPONENT = int(np.log2(onebit.COEFF_RANGE))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.sampled_from([2, 4, 8]),
       size=st.sampled_from([(4, 2, 4), (1, 3, 2), (2, 2, 2)]),
       k=st.integers(-SCALE_EXPONENT, SCALE_EXPONENT - 1), unit_s=st.booleans())
@example(seed=0, order=2, size=(1, 3, 2), k=-SCALE_EXPONENT, unit_s=True)
@example(seed=0, order=4, size=(4, 2, 4), k=SCALE_EXPONENT - 1, unit_s=True)
@example(seed=0, order=2, size=(2, 2, 2), k=SCALE_EXPONENT - 1, unit_s=False)
def test_slot_solvers_run_clean_and_scale_free_over_the_magnitude_range(seed, order, size, k,
                                                                          unit_s):
    # a slot whose max |c| is drawn from [1, 2) and scaled by 2^j lies in the
    # admitted range for j = k and both ends, BPSK and K > M (singular G)
    # included. model_starts warns nothing with s = 1 or with s scaled by
    # 2^j, and its row at (2^j C, 2^j s) equals the row at (C, s) bit for
    # bit, as every product of the start scales exactly. solve_symbol warns
    # nothing at 2^k C and the drawn s either; at s = 1 and k >= 10 its MD
    # runs to MD_MAX_ITER, as its stop test is not scale-free. One binade
    # past either end, the slot is rejected
    m, k_users, n = size
    coeff, _, _, _ = random_instance(np.random.default_rng(seed), m=m, k=k_users,
                                     order=order, n=n)
    c = np.ldexp(coeff.c, 1 - np.frexp(np.abs(coeff.c).max())[1])  # max |c| in [1, 2)
    s = coeff.amplitude
    opts = SolverConfig()
    mu = onebit.start_mu(opts.mu)
    want = model_starts([CoefficientMatrix(c=c, amplitude=s)], mu)[0]
    exponents = (k, -SCALE_EXPONENT, SCALE_EXPONENT - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unit = [CoefficientMatrix(c=np.ldexp(c, j), amplitude=1.0) for j in exponents]
        scaled = [CoefficientMatrix(c=np.ldexp(c, j), amplitude=np.ldexp(s, j))
                  for j in exponents]
        unit_rows = model_starts(unit, mu)
        scaled_rows = model_starts(scaled, mu)
        assert all(np.array_equal(row, want) for row in scaled_rows)
        slot, row = (unit[0], unit_rows[0]) if unit_s else (scaled[0], scaled_rows[0])
        xbar, md = solve_symbol(slot, opts, row)
    assert np.isfinite(md.value) and np.all(np.abs(xbar) == slot.amplitude)
    for j in (-SCALE_EXPONENT - 1, SCALE_EXPONENT + 1):
        with pytest.raises(ValueError, match="finite"):
            CoefficientMatrix(c=np.ldexp(c, j), amplitude=1.0)


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
    lam = model_starts([coeff], 10.0)[0]
    assert np.abs(lam - _mixed(want)).max() <= 1e-8  # the ridge eps moves it
    md = mirror_descent(coeff, SolverConfig(mu=10.0), lam0=lam)
    assert np.abs(coeff.c @ md.lam).max() < 10.0 * coeff.amplitude
    assert md.converged and md.n_iter == 0
    dominated = CoefficientMatrix(c=np.array([[1.0, 1.2], [0.0, 0.5]]), amplitude=1.0)
    assert np.array_equal(model_starts([dominated], 10.0)[0], _mixed(np.array([1.0, 0.0])))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.sampled_from([2, 4, 8, 16]),
       size=st.sampled_from([(32, 4, 16), (4, 6, 4), (1, 3, 2), (8, 3, 4), (2, 2, 2)]),
       zero=st.booleans(), mu=st.sampled_from([1e-6, 5e-4, 10.0]))
@example(seed=0, order=8, size=(4, 6, 4), zero=False, mu=1e-6)
def test_model_start_properties(seed, order, size, zero, mu):
    # any order, K >= M (rank-deficient G), a zero C and a window that holds
    # almost nothing (1e-6), part of the entries (the solver's 5e-4) or all of
    # them (10): a finite, strictly interior simplex point. Where the quadratic
    # model's minimizer keeps every entry of C lam inside the window it is the
    # piecewise model's too, and the start equals the oracle up to the ridge
    # solve's rounding, n eps cond(G + eps' I): 1e-16 on a full-rank G, up to
    # 3e-8 measured on BPSK's singular one. model_starts checks every point
    # against the START_GAP_RTOL test of f_mu, and one that fails it gives the
    # uniform point instead: where the oracle dropped an entry (mixing leaves
    # it at exactly WARM_START_MIX / 2K), as a dropped entry can be optimal,
    # and, as the example shows, at K > M and small mu with no drop, where the
    # ridge's pull on a singular G leaves a gap above the test's tolerance
    m, k, n = size
    coeff, _, _, _ = random_instance(np.random.default_rng(seed), m=m, k=k, order=order,
                                     n=n)
    if zero:
        coeff = CoefficientMatrix(c=np.zeros_like(coeff.c), amplitude=coeff.amplitude)
    lam = model_starts([coeff], mu)[0]
    assert lam.shape == (2 * k,) and np.isfinite(lam).all() and lam.min() > 0
    assert abs(lam.sum() - 1.0) <= 1e-12
    if zero:
        assert np.array_equal(lam, np.full(2 * k, 1.0 / (2 * k)))
        return
    oracle = quadratic_model_start(coeff)
    unmixed = (oracle - WARM_START_MIX / (2 * k)) / (1.0 - WARM_START_MIX)
    s = coeff.amplitude
    if np.abs(coeff.c @ unmixed).max() <= mu * s * (1.0 - 1e-6):
        if (_fw_gap(unmixed, coeff, mu)
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
        assert np.array_equal(row, model_starts([coeff], mu)[0])
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
                assert np.array_equal(row, model_starts([coeff], mu)[0])
                if not coeff.c.any():
                    kinds["zero"] += 1
                elif np.array_equal(row, np.full(n, 1.0 / n)):
                    kinds["fallback"] += 1
                elif (row == WARM_START_MIX / n).any():
                    kinds["dropped"] += 1
    assert min(kinds.values()) > 0, kinds


def _frame_stack(seed, size, order, power, bare, n_slots=10):
    """The coefficient matrices of one drawn T = n_slots frame of shape
    size = (M, K, N), with no reflected path where bare is set."""
    m, k, n = size
    rng = np.random.default_rng(seed)
    c = PskConstellation(order)
    ch = sample_channels(drop_users(k, rng), m, n, rng)
    if bare:
        ch = no_irs_variant(ch)
    h_eff = effective_matrix(ch, PhaseShifts.random(n, rng))
    symbols = SymbolFrame.random(c, k, n_slots, rng)
    return [build_coefficients(h_eff, symbols.symbols[:, t], c, power) for t in range(n_slots)]


def _check_start_gaps(coeffs, mu):
    """Assert that every row of model_starts is the uniform point or, unmixed,
    passes the START_GAP_RTOL test of f_mu."""
    for row, coeff in zip(model_starts(coeffs, mu), coeffs):
        n = row.size
        if np.array_equal(row, np.full(n, 1.0 / n)):
            continue
        lam = (row - WARM_START_MIX / n) / (1.0 - WARM_START_MIX)
        s = coeff.amplitude
        _, f = onebit._clipped_value(coeff.c @ lam, s, mu * s)
        assert _fw_gap(lam, coeff, mu) <= START_GAP_RTOL * (f + s * mu * s)


def test_every_model_start_passes_the_gap_test():
    # K > M at mu = 1e-6: a start whose passes dropped no entry and whose
    # window repeated used to skip the gap test, and 30 of these 1,200 rows
    # came back unchecked with a gap up to 1.85e-2 (f_mu + s rho)
    for seed in range(1000, 1060):
        for power in (1.0, 100.0):
            _check_start_gaps(_frame_stack(seed, (4, 6, 4), 4, power, False), 1e-6)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.sampled_from([2, 4, 16]),
       size=st.sampled_from([(4, 6, 4), (1, 3, 2), (2, 2, 2), (8, 3, 4)]),
       power=st.sampled_from([1.0, 100.0]), bare=st.booleans(),
       mu=st.sampled_from([1e-6, 5e-4]))
@example(seed=1000, order=4, size=(4, 6, 4), power=1.0, bare=False, mu=1e-6)
def test_model_starts_pass_the_gap_test_on_small_frames(seed, order, size, power, bare, mu):
    # K >= M, BPSK, 16-PSK and no reflected path; the example is a frame
    # with a row that skipped the test before every start took it
    _check_start_gaps(_frame_stack(seed, size, order, power, bare), mu)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.sampled_from([2, 4, 8, 16]),
       size=st.sampled_from([(32, 4, 16), (128, 14, 32)]))
def test_model_start_agrees_with_a_uniform_start(seed, order, size):
    # at desk and paper size
    m, k, n = size
    coeff, _, _, _ = random_instance(np.random.default_rng(seed), m=m, k=k, order=order,
                                     n=n)
    opts = SolverConfig()
    mu = opts.mu
    _, cold = solve_relaxed(coeff, opts, cold_start(coeff, opts))
    _, uniform = solve_relaxed(coeff, opts, _uniform(coeff))
    assert cold.converged and uniform.converged
    bound = max(_fw_gap(cold.lam, coeff, mu), _fw_gap(uniform.lam, coeff, mu))
    assert abs(cold.value - uniform.value) <= bound


def test_model_start_takes_fewer_md_iterations(monkeypatch):
    # cold solve_relaxed, from its model_starts row, against the same solve
    # from the quadratic model's minimizer (the oracle) and from the uniform
    # point, at the solver's mu and tolerance; every MD call of a solve
    # counts. Measured (model_starts, oracle, uniform): the step-rule slot set
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
        opts = SolverConfig(mu=mu)
        total = totals.setdefault(key, [0, 0, 0])
        for i, lam0 in enumerate((cold_start(coeff, opts), quadratic_model_start(coeff),
                                  _uniform(coeff))):
            iters.clear()
            assert solve_relaxed(coeff, opts, lam0)[1].converged
            total[i] += sum(iters)
    assert all(new < oracle < uniform for new, oracle, uniform in totals.values()), totals


def test_solve_relaxed_rejects_warm_start_off_the_simplex():
    rng = np.random.default_rng(21)
    coeff, _, _, _ = random_instance(rng, m=6, k=2)
    n = coeff.n_constraints
    # the check is a minimum and a sum that must compare true: a NaN entry
    # makes both NaN, which fails either comparison, -inf fails the sign test
    # and +inf the sum test
    bad = (np.full(n, 0.5), np.r_[-0.1, np.full(n - 1, 1.1 / (n - 1))],
           np.full(n + 1, 1.0 / (n + 1)), np.r_[np.nan, np.full(n - 1, 1.0 / (n - 1))],
           np.r_[np.inf, np.zeros(n - 1)], np.r_[-np.inf, np.full(n - 1, 1.0 / (n - 1))])
    for lam0 in bad:
        for mu in (SolverConfig().mu, 1e-5):  # with and without the mu stages
            with pytest.raises(ValueError, match="simplex"):
                solve_relaxed(coeff, SolverConfig(mu=mu), lam0)


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
    opts = SolverConfig(mu=5e-4, md_tol=1e-9)
    xrel, md = solve_relaxed(coeff, opts, cold_start(coeff, opts))
    power = coeff.n_lifted * s**2
    assert -md.value - 5e-4 * power / 2 <= bf + 1e-12


def test_brute_force_dimension_guard():
    with pytest.raises(ValueError):
        brute_force_onebit(CoefficientMatrix(c=np.ones((26, 2)), amplitude=1.0))
