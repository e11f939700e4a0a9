"""Per-slot one-bit transmit design via a Huber-smoothed dual and MBI rounding.

For a slot with effective channels h_k^H and intended symbols s_k, the design
problem is min over one-bit signals of the worst negated margin

    min_{xbar in {-s,+s}^{2M}}  max_k  c_k^T xbar,

where xbar stacks the real and imaginary parts of the transmit vector and the
2K columns c_k encode the two half-plane constraints of each user's decision
sector. The box relaxation with a small Tikhonov term mu/2 ||xbar||^2 has a
smooth dual over the probability simplex,

    min_{lam in Delta_2K}  f_mu(lam) = s * sum_m huber_{mu s}(cbar_m lam),

solved here by entropic mirror descent with backtracking. The relaxed signal
is recovered in closed form from lam and then rounded to the one-bit alphabet
by maximum-block-improvement over its fractional entries.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .checks import check_count, check_real
from .constellation import PskConstellation, SymbolFrame

# lifted entries within this relative distance of +/-s count as saturated
FRACTIONAL_TOL = 1e-6
# mirror_descent's iteration cap; no call of desk seeds 0-4 took over 51
MD_MAX_ITER = 20000
# max |entry| of a nonzero CoefficientMatrix: its Grams and start weights stay finite
COEFF_RANGE = 2.0 ** 450


def field_values(cls, d, name: str) -> dict:
    """A copy of d, a JSON object whose keys must all be fields of the
    dataclass cls; name ("config", "solver") names it in the errors."""
    if not isinstance(d, dict):
        raise ValueError(f"{name} must be a JSON object, got {d!r}")
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        label = name if name == "config" else f"{name} config"
        raise ValueError(f"unknown {label} keys: {sorted(unknown)}")
    return dict(d)


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the joint design; each solver reads its own fields.

    - mu, the relaxed dual's Tikhonov weight: the dual solves and their starts
    - md_tol (on the KL gradient-mapping residual): mirror_descent
    - delta (smoothing width): apg_optimize
    - n_starts: alternating_optimize

    Values a solver would reject fail here, when the settings load. The
    iteration caps are constants: MD_MAX_ITER, phase.APG_MAX_ITER, ao.AO_MAX_OUTER.
    """

    mu: float = 5e-4
    md_tol: float = 1e-6
    delta: float = 1e-2
    n_starts: int = 1

    def __post_init__(self):
        check_count("n_starts", self.n_starts, 1)
        for name, positive in (("mu", True), ("md_tol", False), ("delta", True)):
            check_real(name, getattr(self, name), positive)

    @classmethod
    def from_dict(cls, d: dict) -> "SolverConfig":
        return cls(**field_values(cls, d, "solver"))


def onebit_amplitude(power: float, n_antennas: int) -> float:
    """Per-component one-bit magnitude s = sqrt(P / 2M), so that every
    one-bit transmit vector has ||x||^2 = P. P must be positive and finite."""
    check_real("power", power, positive=True)
    return math.sqrt(power / (2 * n_antennas))


@dataclass(frozen=True)
class OneBitFrame:
    """T transmit vectors with every lifted entry at exactly +/-s.

    xbar rows live in {-s, +s}^{2M}; the complex view puts the first M
    entries on the real axis and the last M on the imaginary axis, so each
    antenna output is one of the four points (+/-s, +/-s).
    """

    xbar: np.ndarray  # (T, 2M)
    amplitude: float

    def __post_init__(self):
        # the frame's own read-only copy, so the cached x always matches it
        xbar = np.atleast_2d(np.array(self.xbar, dtype=float))
        xbar.flags.writeable = False
        object.__setattr__(self, "xbar", xbar)
        if xbar.ndim != 2 or xbar.shape[1] % 2 or not xbar.size:
            raise ValueError("frame must be T x 2M with T, M >= 1")
        check_real("amplitude", self.amplitude, positive=True)
        if not np.all(np.abs(xbar) == self.amplitude):
            raise ValueError("every entry must have magnitude exactly s")

    @property
    def n_antennas(self) -> int:
        return self.xbar.shape[1] // 2

    @functools.cached_property
    def x(self) -> np.ndarray:
        """Complex (T, M) view of the frame, built once and read-only."""
        m = self.n_antennas
        x = self.xbar[:, :m] + 1j * self.xbar[:, m:]
        x.flags.writeable = False
        return x

    @classmethod
    def from_slots(cls, xbars, power: float) -> "OneBitFrame":
        """Stack per-slot lifted one-bit designs, each in {-s, +s}^{2M} with
        s = onebit_amplitude(power, M), into a frame. The list of rows goes to
        the constructor as it is, whose copy is the frame's one copy."""
        if not xbars:
            raise ValueError("a frame needs at least one slot")
        return cls(xbar=xbars, amplitude=onebit_amplitude(power, len(xbars[0]) // 2))


def frame_array(frame) -> np.ndarray:
    """Complex (T, M) transmit array of a plain array or of a frame with a
    complex (T, M) view .x, such as OneBitFrame."""
    if hasattr(frame, "x"):
        return frame.x
    return np.atleast_2d(np.asarray(frame, dtype=complex))


@dataclass(frozen=True)
class CoefficientMatrix:
    """Real 2M x 2K constraint matrix for one slot.

    Column k dotted with the lifted signal gives the negated sector margin of
    the corresponding half-constraint, so max_k c_k^T xbar = -(worst margin).
    c is stored in Fortran order, the layout build_coefficients makes (its
    C^T is C-contiguous): the solvers' BLAS products, and so the last bits of
    their results, do not depend on the memory order of the array passed in.
    The slot solvers' magnitude rule: max |c| is 0 or in [1/COEFF_RANGE, COEFF_RANGE].
    """

    c: np.ndarray
    amplitude: float  # s = sqrt(P / 2M), per-component one-bit magnitude

    def __post_init__(self):
        # copies nothing for build_coefficients' own matrix; an input of
        # fewer than 2 dimensions fails the shape test
        c = np.asfortranarray(self.c, dtype=float)
        object.__setattr__(self, "c", c)
        if c.ndim != 2 or c.shape[0] % 2 or c.shape[1] % 2 or not c.size:
            raise ValueError("coefficient matrix must be 2M x 2K with M, K >= 1")
        peak = np.maximum.reduce(np.abs(c), axis=None)  # NaN if any entry is
        if not (peak == 0 or 1 / COEFF_RANGE <= peak <= COEFF_RANGE):
            raise ValueError(f"coefficients must be finite, max |c| 0 or in 2^[-450, 450]: {peak}")
        check_real("amplitude", self.amplitude, positive=True)

    @property
    def n_lifted(self) -> int:
        return self.c.shape[0]

    @property
    def n_constraints(self) -> int:
        return self.c.shape[1]


def build_coefficients(h_eff, symbols, constellation: PskConstellation,
                       power: float) -> CoefficientMatrix:
    """Assemble C = [c_1 ... c_2K] for one slot.

    Args:
        h_eff: (K, M) complex array whose rows are the effective rows h_k^H.
        symbols: length-K intended constellation points for this slot.
        constellation: the PSK alphabet (sets cot(pi/L)).
        power: total transmit power P; the one-bit amplitude is sqrt(P/2M).
    """
    h_eff = np.atleast_2d(np.asarray(h_eff, dtype=complex))
    symbols = np.asarray(symbols, dtype=complex).ravel()
    k, m = h_eff.shape
    if symbols.size != k:
        raise ValueError("one symbol per user required")
    g = np.conj(symbols)[:, None] * h_eff  # rows are s_k^* h_k^H
    neg_a = np.concatenate([-g.real, g.imag], axis=1)  # -a, a = [Re g, -Im g] (K, 2M)
    b = np.concatenate([g.imag, g.real], axis=1)
    b *= constellation.cot_half_sector
    ct = np.empty((2 * k, 2 * m))  # C^T = [-a + b; -a - b]
    np.add(neg_a, b, out=ct[:k])
    np.subtract(neg_a, b, out=ct[k:])
    return CoefficientMatrix(c=ct.T, amplitude=onebit_amplitude(power, m))


def worst_objective(xbar, coeff: CoefficientMatrix) -> float:
    """max_k c_k^T xbar, the negated worst-user margin of a lifted signal."""
    return float(np.maximum.reduce(coeff.c.T @ np.asarray(xbar, dtype=float)))


def dual_gradient(lam, coeff: CoefficientMatrix, mu: float) -> np.ndarray:
    """Gradient of f_mu; equals -C^T xbar*(lam) with xbar* from recover_x.
    Bit-equal to mirror_descent's, which runs the same kernels; y_c comes from
    _clipped_value, the one home of the clip, and its Huber value goes unused."""
    check_real("mu", mu, positive=True)
    s = coeff.amplitude
    y_c, _ = _clipped_value(coeff.c @ np.asarray(lam, dtype=float), s, mu * s)
    return _dual_grad(coeff.c.T, y_c, s, mu * s)


def _clipped_value(y, s: float, rho: float):
    """(y_c, s sum huber_rho(y)) for y = C lam, y_c = clip(y, +/-rho)."""
    y_c = np.maximum(y, -rho)
    np.minimum(y_c, rho, out=y_c)
    return y_c, s / rho * float(y_c @ (y - 0.5 * y_c))


def _dual_grad(ct, y_c, s: float, rho: float) -> np.ndarray:
    """(s / rho) C^T y_c for ct = C^T and y_c from _clipped_value."""
    return (ct @ y_c) * (s / rho)


def _sigma_max_sq(a: np.ndarray) -> float:
    """sigma_max(a)^2 from the smaller Gram matrix of a; 0 for a zero matrix."""
    gram = a.T @ a if a.shape[0] >= a.shape[1] else a @ a.T
    return float(np.linalg.eigvalsh(gram)[-1])


def recover_x(lam, coeff: CoefficientMatrix, mu: float) -> np.ndarray:
    """Inner minimizer xbar*(lam) = -clip(C lam / mu, [-s, s]) of the box problem."""
    check_real("mu", mu, positive=True)
    return _recover(coeff.c @ np.asarray(lam, dtype=float), coeff.amplitude, mu)


def _recover(y, s: float, mu: float) -> np.ndarray:
    """recover_x's xbar from y = C lam; y is left as it is."""
    # -clip(y / mu) is clip(y / -mu), since the quotient and the clip flip
    # signs exactly; the clip as in-place ufuncs on the fresh quotient, which
    # skip np.clip's dispatch
    x = np.divide(y, -mu)
    np.maximum(x, -s, out=x)
    return np.minimum(x, s, out=x)


@dataclass
class MdResult:
    lam: np.ndarray
    value: float
    converged: bool
    n_iter: int
    residual: float
    y: np.ndarray  # C lam, the product value was computed from


def mirror_descent(coeff: CoefficientMatrix, opts: SolverConfig,
                   lam0: np.ndarray) -> MdResult:
    """Minimize f_mu over the simplex by entropic mirror descent, mu = opts.mu.

    Starts from lam0, a finite simplex point. Each iteration takes the update
    lam+ = lam exp(-step g)/Z with a backtracked step; as KL(lam+ || lam) =
    -step <g, lam+> - log Z, the Bregman sufficient-decrease test is
    f(lam+) <= f - <g, lam> - log Z/step.
    f(lam+) = (s/rho) y_c . (y - y_c/2) for y = C lam+ and y_c = clip(y, +/-rho),
    the y_c the next gradient uses. Steps at or below mu/sigma_max(C)^2 (from
    the Gram matrix) are always accepted, so progress cannot stall on rounding
    noise near the optimum. A step is doubled for the next iteration only if
    it was accepted without backtracking. f_mu never increases beyond rounding.
    Stops after MD_MAX_ITER iterations, or once the KL gradient-mapping
    residual with unit reference step, r(lam) = ||T_1(lam) - lam||_1, which
    vanishes exactly at simplex-KKT points, is at most opts.md_tol. The
    result keeps y = C lam of its lam, from which solve_relaxed recovers the
    primal point.
    """
    c = coeff.c
    ct = c.T  # C-contiguous, as CoefficientMatrix stores c in Fortran order
    n = c.shape[1]
    s = coeff.amplitude
    rho = opts.mu * s
    # ufunc reductions skip the array methods' dispatch
    vmin, vmax, vsum = np.minimum.reduce, np.maximum.reduce, np.add.reduce
    lam = np.array(lam0, dtype=float)
    lam_min = vmin(lam) if lam.shape == (n,) else np.nan
    # another shape, NaN and -inf fail the sign test (a NaN minimum compares
    # false), +inf and NaN the sum test
    if not lam_min >= 0 or not abs(vsum(lam) - 1.0) <= 1e-9:
        raise ValueError("start must be a point on the simplex")
    y = c @ lam
    y_c, f = _clipped_value(y, s, rho)

    # log(lam) is carried over from the softmax normalization, so the loop never
    # takes it of lam; exact zeros give -inf and stay zero through exp, and a
    # start with none (model_starts mixes in WARM_START_MIX) skips the masks
    if lam_min > 0:
        log_lam = np.log(lam)
    else:
        log_lam = np.log(lam, out=np.full(n, -np.inf), where=lam > 0)
    converged = False
    for it in range(MD_MAX_ITER + 1):  # runs at least once
        grad = _dual_grad(ct, y_c, s, rho)
        gap = log_lam - grad  # becomes T_1(lam) - lam, in place
        gap -= vmax(gap)
        np.exp(gap, out=gap)
        gap /= vsum(gap)
        gap -= lam
        residual = float(vsum(np.abs(gap, out=gap)))
        if residual <= opts.md_tol:
            converged = True
            break
        if it == MD_MAX_ITER:
            break
        if it == 0:  # a call that stops at its first residual test skips this
            # Pinsker gives KL >= ||.||_1^2 / 2 >= ||.||_2^2 / 2, and the Huber
            # curvature caps the dual Hessian at sigma_max(C)^2 / mu, so any
            # step <= safe_step satisfies the sufficient-decrease model exactly
            sigma_sq = _sigma_max_sq(ct)
            safe_step = opts.mu / sigma_sq if sigma_sq > 0 else 1.0
            step = first = safe_step  # first: the step an iteration tries first
        if step == first:  # no halving; a step that just failed is not raised
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
            y_new = c @ lam_new
            y_c_new, f_new = _clipped_value(y_new, s, rho)
            if step <= safe_step or f_new <= model - (w_max + log_se) / step:
                break
            step *= 0.5
        lam, y, y_c, f = lam_new, y_new, y_c_new, f_new
        log_lam = w - log_se

    return MdResult(lam=lam, value=f, converged=converged, n_iter=it,
                    residual=residual, y=y)


# uniform-point weight of a model_starts row: an exact zero in lam stays zero
# under MD's multiplicative update, so its residual test could pass at a
# non-KKT point
WARM_START_MIX = 1e-6

# model_starts gives the uniform point instead of a point whose Frank-Wolfe gap
# <g, lam> - min g, an upper bound on f_mu(lam) - min f_mu, is above this times
# f_mu(lam) + s rho; s rho keeps the test meaningful where min f_mu is 0 (K >= M)
START_GAP_RTOL = 1e-4


def model_starts(coeffs, mu: float) -> np.ndarray:
    """Cold starts of the dual solves, one row per slot: the minimizer of each
    slot's dual's piecewise-quadratic model. Row t depends on coeffs[t] alone,
    so it equals model_starts([coeffs[t]], mu)[0] bit for bit.

    With the Huber window W = {m : |(C lam)_m| <= rho = mu s} and the signs
    sigma of the clipped entries held fixed, f_mu is the quadratic
    (s / 2 rho) lam^T G_W lam + s b^T lam + const, G_W = C_W^T C_W and
    b = C_Wbar^T sigma. Its simplex KKT system, (G_W + eps I)_AA lam_A +
    rho b_A = tau 1 and sum(lam_A) = 1, is solved on an active set A, at first
    every index, dropping the negative entries of lam until none are left;
    eps = 1e-9 max diag(G) covers the singular G of BPSK or K > M. W and sigma
    are then recomputed at lam until they repeat, at most 2K times; the first
    pass, with W every entry, minimizes the quadratic model. Every lam must
    then pass the START_GAP_RTOL test of f_mu itself, or the uniform point is
    returned: dropping an index never compares its gradient with tau, a
    window that does not repeat leaves lam optimal for another model, and at
    K > M and small mu even a repeated window with no drop can leave a gap.
    MD's residual barely sees the WARM_START_MIX weight of an entry the start
    left out. lam is mixed with the uniform point by WARM_START_MIX.
    A zero C gives the uniform point.

    The slots, all 2M x 2K, take their passes together: one stacked product
    gives every G, and one stacked solve per active-set step serves the
    slots still in it. Each slot keeps its own window, Gram C_W^T C_W from
    its own compacted rows, drops and stopping pass, and every product has
    the layout of a single slot's.
    """
    ct = np.array([coeff.c.T for coeff in coeffs])  # (T, 2K, 2M): each C^T, C-contiguous
    c = ct.transpose(0, 2, 1)
    n_slots, n = ct.shape[:2]
    s = np.array([coeff.amplitude for coeff in coeffs])
    rho = mu * s
    g = ct @ c
    g_diag = g.reshape(n_slots, n * n)[:, ::n + 1]  # a view of every diagonal
    scale = g_diag.max(axis=1)
    ok = scale > 0
    lam = np.full((n_slots, n), 1.0 / n)
    sigma = np.zeros((n_slots, ct.shape[2]))  # sign of each clipped entry, 0 inside W
    rhs = np.ones((n_slots, n, 2))  # the right-hand sides 1 and b, as columns
    w = np.empty((n_slots, n))  # sum(v) lam of the last solve
    live = np.flatnonzero(ok)  # the slots whose passes go on
    # the ridge, b and the products with C run over the whole stack (a slot that
    # left the passes never reads its rows again): most slots are live in most
    # passes, and copying the live ones out cost more than the products
    for _ in range(n + 1):
        if not live.size:
            break
        g_diag += 1e-9 * scale[:, None]
        rhs[..., 1] = (ct @ sigma[..., None])[..., 0]
        step, g_step, rhs_step = live, g[live], rhs[live]  # slots still dropping; own G, b
        while True:
            vu = np.linalg.solve(g_step, rhs_step)
            v, u = vu[..., 0], vu[..., 1]
            r = rho[step, None]
            w[step] = w_step = v * (1.0 + r * u.sum(axis=1, keepdims=True)) - (
                r * v.sum(axis=1, keepdims=True)) * u
            drop = w_step < 0
            hit = drop.any(axis=1)
            if not hit.any():
                break
            step, drop, g_step, rhs_step = step[hit], drop[hit], g_step[hit], rhs_step[hit]
            # a dropped index gets an identity row and column and zero
            # right-hand sides, so its entries of v, u and w are 0 from now on
            np.copyto(g_step, np.eye(n), where=drop[:, :, None] | drop[:, None, :])
            rhs_step[drop] = 0.0
        total = w[live].sum(axis=1)
        fine = total > 0  # w >= 0 now, but no bound keeps an ill-conditioned slot's sum off 0
        live, total = live[fine], total[fine]
        lam[live] = w[live] / total[:, None]
        y = (c @ lam[..., None])[live, :, 0]
        clipped = np.sign(y) * (np.abs(y) > rho[live, None])
        moved = (clipped != sigma[live]).any(axis=1)
        live, clipped = live[moved], clipped[moved]
        sigma[live] = clipped
        for t, inside in zip(live.tolist(), clipped == 0.0):
            c_w = c[t][inside]
            np.matmul(c_w.T, c_w, out=g[t])
    # the Frank-Wolfe gap, as _clipped_value and _dual_grad give it per slot
    y = (c @ lam[..., None])[..., 0]
    y_c = np.maximum(y, -rho[:, None])
    np.minimum(y_c, rho[:, None], out=y_c)
    f = s / rho * (y_c[:, None, :] @ (y - 0.5 * y_c)[..., None])[:, 0, 0]
    grad = (ct @ y_c[..., None])[..., 0] * (s / rho)[:, None]
    gap = (grad[:, None, :] @ lam[..., None])[:, 0, 0] - grad.min(axis=1)
    uniform = ~ok | (gap > START_GAP_RTOL * (f + s * rho))
    out = (1.0 - WARM_START_MIX) * lam + WARM_START_MIX / n
    out[uniform] = 1.0 / n
    return out


# (mu, md_tol) warm-start stages of solve_relaxed; stages at or below the
# target mu are skipped, so the solve is a single cold start when the target
# is no smaller than the first stage
MU_STAGES = ((5e-4, 1e-7), (2e-5, 1e-7))


def start_mu(mu: float) -> float:
    """The mu at which the cold starts for target mu are taken: that of
    solve_relaxed's first stage."""
    return max(mu, MU_STAGES[0][0])


def frame_slots(h_eff, symbols: SymbolFrame, power: float, opts: SolverConfig,
                lam0: np.ndarray | None = None) -> list:
    """One (CoefficientMatrix, start) pair per slot of a K x T symbol frame.

    Slot t's matrix is build_coefficients of h_eff (K, M) and column t of
    symbols at power. Its start is row t of lam0, a (T, 2K) block of simplex
    points (a block of another shape raises ValueError), else row t of one
    model_starts call at start_mu(opts.mu): the frame's cold starts, and the
    package's one source of them.
    """
    coeffs = [build_coefficients(h_eff, symbols.symbols[:, t], symbols.constellation, power)
              for t in range(symbols.n_slots)]
    shape = (len(coeffs), coeffs[0].n_constraints)
    if lam0 is not None and np.shape(lam0) != shape:
        raise ValueError(f"lam0 must be a (T, 2K) = {shape} block, got shape {np.shape(lam0)}")
    return list(zip(coeffs, model_starts(coeffs, start_mu(opts.mu)) if lam0 is None else lam0))


def solve_relaxed(coeff: CoefficientMatrix, opts: SolverConfig, lam0: np.ndarray):
    """Dual solve at opts.mu plus primal recovery; shared by the one-bit and box designs.

    Small mu makes the dual poorly conditioned (the Huber window shrinks),
    so a cold start can take tens of thousands of iterations. The solve
    therefore runs the MU_STAGES above the target first, each as opts at the
    stage's mu and md_tol from the previous dual iterate, which reaches the
    same point several times faster. The first stage starts at lam0, a
    simplex point: for a cold solve the slot's row of frame_slots, taken at
    start_mu(opts.mu), where MD mostly stops at its first residual test.
    Returns (xbar_relaxed, MdResult) for the final stage.
    """
    for stage_mu, stage_tol in MU_STAGES:
        if stage_mu > opts.mu:
            lam0 = mirror_descent(coeff, replace(opts, mu=stage_mu, md_tol=stage_tol), lam0).lam
    md = mirror_descent(coeff, opts, lam0)
    # recover_x of md.lam, from the product C lam that MD formed for it
    return _recover(md.y, coeff.amplitude, opts.mu), md


def mbi_round(xbar_relaxed, coeff: CoefficientMatrix, *,
              fractional_tol: float = FRACTIONAL_TOL) -> np.ndarray:
    """Round a box point to the one-bit alphabet by block improvement.

    Entries saturated to within fractional_tol of +/-s are frozen at their
    signs; the fractional set starts at the sign rounding of the relaxed
    point (zeros to +s) and is improved by repeated best-single-flip passes
    (ties broken toward the lowest index) until no flip lowers the worst
    objective, so the result is never worse than naive sign rounding.

    The flip deltas d_j = 2 x_j c_j of the fractional entries are kept as the
    columns of one constraint-major (2K, n_frac) block, gathered from the
    C-contiguous C^T; flipping entry j only negates d_j (exactly, in floating
    point), so a pass costs one subtraction instead of rebuilding every delta.
    The pass writes its candidates and their maxima into buffers kept across
    passes, and the maximum over each column runs as 2K - 1 elementwise
    passes over contiguous rows.
    """
    s = coeff.amplitude
    xbar_relaxed = np.asarray(xbar_relaxed, dtype=float)
    x = np.where(xbar_relaxed >= 0, s, -s)
    frac = (np.abs(xbar_relaxed) < s * (1.0 - fractional_tol)).nonzero()[0]
    if frac.size == 0:
        return x

    ct = coeff.c.T  # C-contiguous, as CoefficientMatrix stores c in Fortran order
    # w - d[:, j] is w after entry j flips; take gives a row-major d, so a
    # pass reads contiguous rows
    d = ct.take(frac, axis=1)
    d *= x[frac]
    d *= 2.0
    cand = np.empty(d.shape)
    cand_max = np.empty(frac.size)
    subtract, vmax, multiply = np.subtract, np.maximum.reduce, np.multiply
    w = ct @ x
    w_col = w[:, None]  # a view, as w is updated in place
    cur = vmax(w)
    while True:
        subtract(w_col, d, out=cand)
        vmax(cand, axis=0, out=cand_max)
        j = int(cand_max.argmin())
        best = cand_max[j]
        if best >= cur:
            return x
        i = frac[j]
        x[i] = -x[i]
        w[:] = cand[:, j]  # cand is overwritten by the next pass
        # exact, as negation is; NumPy 2.4's in-place np.negative misreads a
        # column whose stride is 8 entries (64 bytes)
        flipped = d[:, j]
        multiply(flipped, -1.0, out=flipped)
        cur = best


def solve_symbol(coeff: CoefficientMatrix, opts: SolverConfig, lam0: np.ndarray):
    """Design the one-bit transmit vector for the slot of coefficient matrix coeff.

    Pipeline: a dual solve at opts.mu from lam0, a simplex point
    (solve_relaxed), closed-form primal recovery, MBI rounding of the
    fractional entries. A frame's cold solves take their starts from
    frame_slots. A pure function of coeff, opts and lam0; returns
    (xbar, MdResult), xbar in {-s, +s}^{2M}.
    """
    xrel, md = solve_relaxed(coeff, opts, lam0)
    return mbi_round(xrel, coeff), md
