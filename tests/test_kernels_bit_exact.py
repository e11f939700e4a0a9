"""The per-slot one-bit kernels against test-local copies of their former code.

Each _former_* function below is the code the package ran before its per-call
fixed costs were cut. The kernels must return the same bits as these copies,
on every output, at BPSK to 16-PSK and at the desk (M=32, K=4) and paper
(M=128, K=14) sizes. The copies always run on the Fortran-ordered matrix that
build_coefficients makes; the kernels also get C-ordered copies of it, and
must return the bits of the Fortran-ordered run.
"""

import numbers
from decimal import Decimal
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irsprecode import onebit
from irsprecode.channel import PhaseShifts, drop_users, effective_matrix, sample_channels
from irsprecode.checks import check_real
from irsprecode.constellation import PskConstellation, SymbolFrame
from irsprecode.onebit import (
    MU_STAGES,
    CoefficientMatrix,
    OneBitFrame,
    SolverConfig,
    build_coefficients,
    frame_slots,
    mbi_round,
    model_starts,
    solve_relaxed,
    solve_symbol,
)
from irsprecode.phase import PhaseCoefficients, apg_optimize, build_phase_coefficients

ORDERS = st.sampled_from([2, 4, 8, 16])
# (M, K, N): desk, paper and two small slots
SIZES = st.sampled_from([(32, 4, 16), (128, 14, 32), (8, 3, 4), (1, 1, 1)])
LAYOUTS = st.sampled_from(["F", "C"])


def _former_check_real(name, value, positive):
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (value > 0 if positive else value >= 0) and value < np.inf):
        sign = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be a finite {sign} number, got {value!r}")


def _former_build_coefficients(h_eff, symbols, constellation, power):
    """(C, s) as the former build_coefficients and onebit_amplitude made them."""
    h_eff = np.atleast_2d(np.asarray(h_eff, dtype=complex))
    symbols = np.asarray(symbols, dtype=complex).ravel()
    g = np.conj(symbols)[:, None] * h_eff
    a = np.concatenate([g.real, -g.imag], axis=1)
    b = constellation.cot_half_sector * np.concatenate([g.imag, g.real], axis=1)
    c = np.concatenate([-a + b, -a - b], axis=0).T
    return c, float(np.sqrt(power / (2 * h_eff.shape[1])))


def _former_mirror_descent(c, s, mu, md_tol, lam0):
    """The former mirror_descent on the matrix c as stored; returns
    (lam, value, converged, n_iter, residual)."""
    n = c.shape[1]
    rho = mu * s
    ct = np.ascontiguousarray(c.T)
    vmin, vmax, vsum = np.minimum.reduce, np.maximum.reduce, np.add.reduce
    lam = np.array(lam0, dtype=float)
    if lam.shape != (n,) or not vmin(lam) >= 0 or not abs(vsum(lam) - 1.0) <= 1e-9:
        raise ValueError("warm start must be a point on the simplex")
    y_c, f = onebit._clipped_value(c @ lam, s, rho)
    if vmin(lam) > 0:
        log_lam = np.log(lam)
    else:
        log_lam = np.log(lam, out=np.full(n, -np.inf), where=lam > 0)
    gap = np.empty(n)
    converged = False
    for it in range(onebit.MD_MAX_ITER + 1):
        grad = onebit._dual_grad(ct, y_c, s, rho)
        w = log_lam - grad
        w -= vmax(w)
        e = np.exp(w)
        np.divide(e, vsum(e), out=gap)
        gap -= lam
        residual = float(vsum(np.abs(gap, out=gap)))
        if residual <= md_tol:
            converged = True
            break
        if it == onebit.MD_MAX_ITER:
            break
        if it == 0:
            sigma_sq = onebit._sigma_max_sq(ct)
            safe_step = mu / sigma_sq if sigma_sq > 0 else 1.0
            step = first = safe_step
        if step == first:
            step *= 2.0
        first = step
        model = f - float(grad @ lam)
        while True:
            w = log_lam - step * grad
            w_max = vmax(w)
            w -= w_max
            e = np.exp(w)
            se = vsum(e)
            lam_new = e / se
            log_se = np.log(se)
            y_c_new, f_new = onebit._clipped_value(c @ lam_new, s, rho)
            if step <= safe_step or f_new <= model - (w_max + log_se) / step:
                break
            step *= 0.5
        lam, y_c, f = lam_new, y_c_new, f_new
        log_lam = w - log_se
    return lam, f, converged, it, residual


def _former_recover_x(lam, c, s, mu):
    x = np.divide(c @ np.asarray(lam, dtype=float), mu)
    np.maximum(x, -s, out=x)
    np.minimum(x, s, out=x)
    return np.negative(x, out=x)


def _former_solve_relaxed(c, s, opts, lam0):
    """The former solve_relaxed: the MU_STAGES chain, then recover_x, which
    formed C lam again."""
    lam = lam0
    for stage_mu, stage_tol in MU_STAGES:
        if stage_mu > opts.mu:
            lam = _former_mirror_descent(c, s, stage_mu, stage_tol, lam)[0]
    md = _former_mirror_descent(c, s, opts.mu, opts.md_tol, lam)
    return _former_recover_x(md[0], c, s, opts.mu), md


def _former_mbi_round(xbar_relaxed, c, s, fractional_tol=onebit.FRACTIONAL_TOL):
    xbar_relaxed = np.asarray(xbar_relaxed, dtype=float)
    x = np.where(xbar_relaxed >= 0, s, -s)
    frac = (np.abs(xbar_relaxed) < s * (1.0 - fractional_tol)).nonzero()[0]
    if frac.size == 0:
        return x
    ct_frac = c[frac].T
    cand = np.empty(ct_frac.shape)
    cand_max = np.empty(frac.size)
    w = c.T @ x
    cur = np.maximum.reduce(w)
    d = 2.0 * np.multiply(ct_frac, x[frac], order="C")
    while True:
        np.subtract(w[:, None], d, out=cand)
        np.maximum.reduce(cand, axis=0, out=cand_max)
        j = int(cand_max.argmin())
        if cand_max[j] >= cur:
            return x
        x[frac[j]] = -x[frac[j]]
        w = cand[:, j].copy()
        d[:, j] *= -1.0
        cur = cand_max[j]


def _same(a, b) -> bool:
    """Equal values and equal bits, signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and a.tobytes() == b.tobytes()


def _slot(rng, m, k, n, order, power, integer_h):
    """(h_eff, symbols, constellation) of one drawn slot; integer_h gives an
    integer-valued h_eff, whose products hold exact and signed zeros."""
    c = PskConstellation(order)
    if integer_h:
        h_eff = rng.integers(-2, 3, (k, m)) + 1j * rng.integers(-2, 3, (k, m))
    else:
        ch = sample_channels(drop_users(k, rng), m, n, rng)
        h_eff = effective_matrix(ch, PhaseShifts.random(n, rng))
    return h_eff, c.points[rng.integers(0, order, k)], c


def _laid_out(a, layout):
    return np.asfortranarray(a) if layout == "F" else np.ascontiguousarray(a)


# --- input rule --------------------------------------------------------------

REALS_AND_OTHERS = st.one_of(
    st.floats(), st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(), st.booleans(), st.booleans().map(np.bool_), st.fractions(),
    st.decimals(), st.complex_numbers(), st.text(max_size=3), st.none())


@settings(max_examples=500, deadline=None)
@given(value=REALS_AND_OTHERS, positive=st.booleans())
@example(value=float("nan"), positive=False)
@example(value=float("inf"), positive=True)
@example(value=float("-inf"), positive=False)
@example(value=0.0, positive=True)
@example(value=0.0, positive=False)
@example(value=-0.0, positive=False)
@example(value=5e-324, positive=True)
@example(value=1.7976931348623157e308, positive=True)
@example(value=np.float64("nan"), positive=True)
@example(value=np.float32("inf"), positive=False)
@example(value=True, positive=True)
@example(value=np.bool_(True), positive=True)
@example(value=Fraction(1, 3), positive=True)
@example(value=Decimal("1.5"), positive=True)
@example(value=Decimal("NaN"), positive=False)
@example(value=1 + 0j, positive=True)
@example(value="1.0", positive=True)
@example(value=None, positive=False)
def test_check_real_fast_path_keeps_the_rule(value, positive):
    # the type(value) is float fast path accepts and rejects what the
    # numbers.Real rule does, with the same message
    outcomes = []
    for rule in (check_real, _former_check_real):
        try:
            rule("x", value, positive)
            outcomes.append(None)
        except ValueError as err:
            outcomes.append(str(err))
    assert outcomes[0] == outcomes[1]


# --- coefficient assembly ----------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=ORDERS, size=SIZES, layout=LAYOUTS,
       integer_h=st.booleans(), power=st.sampled_from([100.0, 1.0, 12.5, 7]))
def test_build_coefficients_bit_exact(seed, order, size, layout, integer_h, power):
    m, k, n = size
    h_eff, sym, c = _slot(np.random.default_rng(seed), m, k, n, order, power, integer_h)
    want_c, want_s = _former_build_coefficients(h_eff, sym, c, power)
    coeff = build_coefficients(_laid_out(h_eff, layout), sym, c, power)
    assert _same(coeff.c, want_c)
    assert _same(coeff.amplitude, want_s) and type(coeff.amplitude) is float
    assert coeff.c.flags.f_contiguous
    # a C-ordered copy is stored in the same Fortran layout
    again = CoefficientMatrix(c=np.ascontiguousarray(want_c), amplitude=want_s)
    assert _same(again.c, want_c) and again.c.flags.f_contiguous


# --- the signal step: MD, recovery, MBI --------------------------------------

@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=ORDERS, size=SIZES, layout=LAYOUTS,
       start=st.sampled_from(["model", "mixed", "zeros", "uniform"]),
       mu=st.sampled_from([5e-4, 2e-5, 1e-3]), integer_h=st.booleans())
def test_solve_symbol_bit_exact(seed, order, size, layout, start, mu, integer_h):
    # every output of solve_symbol and its MD result, at the solver's mu
    # (where desk MD mostly stops at its first test), through the mu stages
    # and above them; the iteration cap is lowered so that the staged solves
    # stay short, and they stop there as often as they converge
    rng = np.random.default_rng(seed)
    m, k, n = size
    h_eff, sym, c = _slot(rng, m, k, n, order, 100.0, integer_h)
    c_f, s = _former_build_coefficients(h_eff, sym, c, 100.0)
    opts = SolverConfig(mu=mu)
    if start == "model":
        lam0 = onebit.model_start(CoefficientMatrix(c=c_f, amplitude=s), onebit.start_mu(mu))
    elif start == "uniform":
        lam0 = np.full(2 * k, 1.0 / (2 * k))
    else:
        lam0 = rng.dirichlet(np.ones(2 * k))
        if start == "zeros":
            lam0[rng.permutation(2 * k)[:k]] = 0.0
            lam0 /= lam0.sum()
        else:
            lam0 = (1.0 - onebit.WARM_START_MIX) * lam0 + onebit.WARM_START_MIX / (2 * k)
    coeff = CoefficientMatrix(c=_laid_out(c_f, layout), amplitude=s)
    with patch.object(onebit, "MD_MAX_ITER", 60):
        res = solve_symbol(coeff, opts, lam0)
        xrel, md = solve_relaxed(coeff, opts, lam0)
        want_xrel, (lam, value, converged, n_iter, residual) = _former_solve_relaxed(
            c_f, s, opts, lam0)
    want_x = _former_mbi_round(want_xrel, c_f, s)
    want_obj = float(np.maximum.reduce(c_f.T @ want_x))
    relax_value = -value
    for got in (res.xbar_relaxed, xrel):
        assert _same(got, want_xrel)
    for got in (res.md, md):
        assert _same(got.lam, lam) and _same(got.value, value)
        assert (got.converged, got.n_iter) == (converged, n_iter)
        assert _same(got.residual, residual)
        assert _same(got.y, c_f @ lam)
    assert _same(res.xbar, want_x) and _same(res.objective, want_obj)
    assert _same(res.relax_value, relax_value)
    power_total = 2 * m * s ** 2
    assert _same(res.onebit_lower_bound, relax_value - mu * power_total / 2.0)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=ORDERS, size=SIZES, layout=LAYOUTS,
       saturated=st.sampled_from([0.0, 0.4, 1.0]), coarse_x=st.booleans(),
       integer_h=st.booleans())
def test_mbi_round_bit_exact(seed, order, size, layout, saturated, coarse_x, integer_h):
    # the setup (signs, fractional set, the delta block gathered with take)
    # and the passes with w updated in place; three-level relaxed points and
    # integer channels make exact ties in the best-flip choice common
    rng = np.random.default_rng(seed)
    m, k, n = size
    h_eff, sym, c = _slot(rng, m, k, n, order, 100.0, integer_h)
    c_f, s = _former_build_coefficients(h_eff, sym, c, 100.0)
    if coarse_x:
        xrel = s * rng.choice([-0.5, -0.0, 0.0, 0.5], size=2 * m)
    else:
        xrel = s * rng.uniform(-1, 1, size=2 * m)
    sat = rng.random(2 * m) < saturated
    xrel[sat] = s * rng.choice([-1.0, 1.0], size=int(sat.sum()))
    got = mbi_round(xrel, CoefficientMatrix(c=_laid_out(c_f, layout), amplitude=s))
    assert _same(got, _former_mbi_round(xrel, c_f, s))


@pytest.mark.parametrize("lam0", [None, "mixed"])
def test_solve_relaxed_recovers_from_mds_own_product(lam0):
    # the x solve_relaxed returns is recover_x of MD's lam, bit for bit
    rng = np.random.default_rng(40)
    h_eff, sym, c = _slot(rng, 32, 4, 16, 4, 100.0, False)
    coeff = build_coefficients(h_eff, sym, c, 100.0)
    if lam0 == "mixed":
        lam0 = 0.5 * rng.dirichlet(np.ones(8)) + 0.5 / 8
    for mu in (5e-4, 2e-5):
        xrel, md = solve_relaxed(coeff, SolverConfig(mu=mu), lam0)
        assert _same(xrel, onebit.recover_x(md.lam, coeff, mu))
        assert _same(md.y, coeff.c @ md.lam)


# --- memory order ------------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=ORDERS)
@example(seed=0, order=4)
def test_results_do_not_depend_on_memory_order(seed, order):
    # a desk frame's coefficient matrices and its phase step's eta, passed as
    # the Fortran-ordered arrays the builders make and as C-ordered copies:
    # the batched starts, every slot's solve and the APG solve give the same
    # bits. Stored as given, the C-ordered copies moved the starts of 18 of
    # 20 such frames and the phases of 61 of 86 APG solves in the last bits
    rng = np.random.default_rng(seed)
    ch = sample_channels(drop_users(4, rng), 32, 16, rng)
    symbols = SymbolFrame.random(PskConstellation(order), 4, 50, rng)
    opts = SolverConfig()
    slots = frame_slots(effective_matrix(ch, PhaseShifts.random(16, rng)), symbols, 100.0,
                        opts)
    coeffs = [coeff for coeff, _ in slots]
    copies = [CoefficientMatrix(c=np.ascontiguousarray(coeff.c), amplitude=coeff.amplitude)
              for coeff in coeffs]
    starts = np.stack([lam0 for _, lam0 in slots])
    assert _same(model_starts(copies, onebit.start_mu(opts.mu)), starts)
    results = [solve_symbol(coeff, opts, lam0) for coeff, lam0 in slots]
    for coeff, lam0, res in zip(copies, starts, results):
        other = solve_symbol(coeff, opts, lam0)
        for name in ("xbar", "objective", "xbar_relaxed", "relax_value",
                     "onebit_lower_bound"):
            assert _same(getattr(other, name), getattr(res, name)), name
        assert _same(other.md.lam, res.md.lam) and _same(other.md.value, res.md.value)
    frame = OneBitFrame.from_slots([res.xbar for res in results], 100.0)
    coeffs = build_phase_coefficients(ch, frame, symbols)
    copy = PhaseCoefficients(eta=np.ascontiguousarray(coeffs.eta), vbar=coeffs.vbar)
    theta0 = PhaseShifts.random(16, rng).theta_bar
    want, got = apg_optimize(coeffs, theta0, opts), apg_optimize(copy, theta0, opts)
    assert _same(got.theta_bar, want.theta_bar)
    assert _same(got.value, want.value) and _same(got.smoothed, want.smoothed)
    assert (got.n_iter, got.best_iter) == (want.n_iter, want.best_iter)
