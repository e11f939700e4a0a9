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

import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .constellation import PskConstellation

# lifted entries within this relative distance of +/-s count as saturated
FRACTIONAL_TOL = 1e-6


def is_real(value) -> bool:
    """Whether value is a real number; bools are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_count(name: str, value, low: int) -> None:
    """Reject a setting that is not an int (bools excluded) of at least low."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def check_real(name: str, value, positive: bool) -> None:
    """Reject a setting that is not a finite real above 0 (positive) or >= 0."""
    if not (is_real(value) and (value > 0 if positive else value >= 0) and value < np.inf):
        sign = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be a finite {sign} number, got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the joint design; each solver reads its own fields.

    - mu, the relaxed dual's Tikhonov weight: solve_symbol, relaxed_slp
    - md_max_iter, md_tol (on the KL gradient-mapping residual): mirror_descent
    - mbi_restarts (1 improves the sign rounding alone, with no rng draws):
      solve_symbol
    - delta (smoothing width), apg_max_iter, apg_tol: apg_optimize
    - ao_max_outer (round cap), n_starts: alternating_optimize

    Values a solver would reject fail here, when the settings load.
    """

    mu: float = 5e-4
    md_max_iter: int = 20000
    md_tol: float = 1e-6
    mbi_restarts: int = 1
    delta: float = 1e-2
    apg_max_iter: int = 500
    apg_tol: float = 1e-6
    ao_max_outer: int = 20
    n_starts: int = 1

    def __post_init__(self):
        for name, low in (("md_max_iter", 0), ("mbi_restarts", 1), ("apg_max_iter", 1),
                          ("ao_max_outer", 1), ("n_starts", 1)):
            check_count(name, getattr(self, name), low)
        for name, positive in (("mu", True), ("md_tol", False), ("delta", True),
                               ("apg_tol", False)):
            check_real(name, getattr(self, name), positive)

    @classmethod
    def from_dict(cls, d: dict) -> "SolverConfig":
        if not isinstance(d, dict):
            raise ValueError(f"solver must be a JSON object, got {d!r}")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown solver config keys: {sorted(unknown)}")
        return cls(**d)


def onebit_amplitude(power: float, n_antennas: int) -> float:
    """Per-component one-bit magnitude s = sqrt(P / 2M), so that every
    one-bit transmit vector has ||x||^2 = P. P must be positive and finite."""
    if not 0 < power < np.inf:
        raise ValueError(f"power must be positive and finite, got {power}")
    return float(np.sqrt(power / (2 * n_antennas)))


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
        xbar = np.atleast_2d(np.asarray(self.xbar, dtype=float))
        object.__setattr__(self, "xbar", xbar)
        if xbar.ndim != 2 or xbar.shape[1] % 2:
            raise ValueError("frame must be T x 2M")
        if not 0 < self.amplitude < np.inf:
            raise ValueError("amplitude must be positive and finite")
        if not np.all(np.abs(xbar) == self.amplitude):
            raise ValueError("every entry must have magnitude exactly s")

    @property
    def n_slots(self) -> int:
        return self.xbar.shape[0]

    @property
    def n_antennas(self) -> int:
        return self.xbar.shape[1] // 2

    @property
    def power(self) -> float:
        """Per-slot transmit power ||x_t||^2, constant over the alphabet."""
        return self.xbar.shape[1] * self.amplitude ** 2

    @property
    def x(self) -> np.ndarray:
        """Complex (T, M) view of the frame."""
        m = self.n_antennas
        return self.xbar[:, :m] + 1j * self.xbar[:, m:]

    @classmethod
    def from_slots(cls, xbars, power: float) -> "OneBitFrame":
        """Stack per-slot lifted one-bit designs, each in {-s, +s}^{2M} with
        s = onebit_amplitude(power, M), into a frame."""
        xbar = np.stack(xbars)
        return cls(xbar=xbar, amplitude=onebit_amplitude(power, xbar.shape[1] // 2))

    @classmethod
    def from_complex(cls, x, amplitude: float) -> "OneBitFrame":
        """Snap a complex (T, M) array to the alphabet; zeros map to +s."""
        x = np.atleast_2d(np.asarray(x, dtype=complex))
        sign_re = np.where(x.real >= 0, 1.0, -1.0)
        sign_im = np.where(x.imag >= 0, 1.0, -1.0)
        return cls(xbar=amplitude * np.concatenate([sign_re, sign_im], axis=1),
                   amplitude=amplitude)


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
    """

    c: np.ndarray
    amplitude: float  # s = sqrt(P / 2M), per-component one-bit magnitude

    def __post_init__(self):
        object.__setattr__(self, "c", np.atleast_2d(np.asarray(self.c, dtype=float)))
        if self.c.ndim != 2 or self.c.shape[0] % 2 or self.c.shape[1] % 2:
            raise ValueError("coefficient matrix must be 2M x 2K")
        if not np.all(np.isfinite(self.c)):
            raise ValueError("coefficients must be finite")
        if not 0 < self.amplitude < np.inf:
            raise ValueError("amplitude must be positive and finite")

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
    if symbols.size != h_eff.shape[0]:
        raise ValueError("one symbol per user required")
    g = np.conj(symbols)[:, None] * h_eff  # rows are s_k^* h_k^H
    a = np.concatenate([g.real, -g.imag], axis=1)  # (K, 2M)
    b = constellation.cot_half_sector * np.concatenate([g.imag, g.real], axis=1)
    c = np.concatenate([-a + b, -a - b], axis=0).T  # (2M, 2K)
    return CoefficientMatrix(c=c, amplitude=onebit_amplitude(power, h_eff.shape[1]))


def worst_objective(xbar, coeff: CoefficientMatrix) -> float:
    """max_k c_k^T xbar, the negated worst-user margin of a lifted signal."""
    return float(np.max(coeff.c.T @ np.asarray(xbar, dtype=float)))


def dual_gradient(lam, coeff: CoefficientMatrix, mu: float) -> np.ndarray:
    """Gradient of f_mu; equals -C^T xbar*(lam) with xbar* from recover_x.
    Bit-equal to mirror_descent's, which runs the same kernels; y_c comes from
    _clipped_value, the one home of the clip, and its Huber value goes unused."""
    check_real("mu", mu, positive=True)
    s = coeff.amplitude
    y_c, _ = _clipped_value(coeff.c @ np.asarray(lam, dtype=float), s, mu * s)
    return _dual_grad(np.ascontiguousarray(coeff.c.T), y_c, s, mu * s)


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
    s = coeff.amplitude
    return -np.clip((coeff.c @ np.asarray(lam, dtype=float)) / mu, -s, s)


@dataclass
class MdResult:
    lam: np.ndarray
    value: float
    converged: bool
    n_iter: int
    residual: float


def mirror_descent(coeff: CoefficientMatrix, mu: float,
                   opts: SolverConfig = SolverConfig(),
                   lam0: np.ndarray | None = None) -> MdResult:
    """Minimize f_mu over the simplex by entropic mirror descent.

    Starts from the uniform point unless a warm start lam0 (a finite simplex
    point) is given. Each iteration takes the update lam+ = lam exp(-step g)/Z
    with a backtracked step; as KL(lam+ || lam) = -step <g, lam+> - log Z, the
    Bregman sufficient-decrease test is f(lam+) <= f - <g, lam> - log Z/step.
    f(lam+) = (s/rho) y_c . (y - y_c/2) for y = C lam+ and y_c = clip(y, +/-rho),
    the y_c the next gradient uses. Steps at or below mu/sigma_max(C)^2 (from
    the Gram matrix) are always accepted, so progress cannot stall on rounding
    noise near the optimum. A step is doubled for the next iteration only if
    it was accepted without backtracking. f_mu never increases beyond rounding.
    Stops after opts.md_max_iter iterations, or once the KL gradient-mapping
    residual with unit reference step, r(lam) = ||T_1(lam) - lam||_1, which
    vanishes exactly at simplex-KKT points, is at most opts.md_tol.
    """
    check_real("mu", mu, positive=True)
    n = coeff.n_constraints
    s = coeff.amplitude
    rho = mu * s
    c = coeff.c
    ct = np.ascontiguousarray(c.T)
    if lam0 is None:
        lam = np.full(n, 1.0 / n)
    else:
        lam = np.asarray(lam0, dtype=float).copy()
        if (lam.shape != (n,) or not np.isfinite(lam).all() or lam.min() < 0
                or abs(lam.sum() - 1.0) > 1e-9):
            raise ValueError("warm start must be a point on the simplex")
    y_c, f = _clipped_value(c @ lam, s, rho)

    # log(lam) is carried over from the softmax normalization, so the loop never
    # takes it of lam; exact zeros give -inf and stay zero through exp
    log_lam = np.log(lam, out=np.full(n, -np.inf), where=lam > 0)
    # ufunc reductions skip the array methods' dispatch; gap holds T_1(lam) - lam
    vmax, vsum = np.maximum.reduce, np.add.reduce
    gap = np.empty(n)
    converged = False
    for it in range(opts.md_max_iter + 1):  # runs at least once: md_max_iter >= 0
        grad = _dual_grad(ct, y_c, s, rho)
        w = log_lam - grad
        w -= vmax(w)
        e = np.exp(w)
        np.divide(e, vsum(e), out=gap)
        gap -= lam
        residual = float(vsum(np.abs(gap, out=gap)))
        if residual <= opts.md_tol:
            converged = True
            break
        if it == opts.md_max_iter:
            break
        if it == 0:  # a call that stops at its first residual test skips this
            # Pinsker gives KL >= ||.||_1^2 / 2 >= ||.||_2^2 / 2, and the Huber
            # curvature caps the dual Hessian at sigma_max(C)^2 / mu, so any
            # step <= safe_step satisfies the sufficient-decrease model exactly
            sigma_sq = _sigma_max_sq(ct)
            safe_step = mu / sigma_sq if sigma_sq > 0 else 1.0
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
            y_c_new, f_new = _clipped_value(c @ lam_new, s, rho)
            if step <= safe_step or f_new <= model - (w_max + log_se) / step:
                break
            step *= 0.5
        lam, y_c, f = lam_new, y_c_new, f_new
        log_lam = w - log_se

    return MdResult(lam=lam, value=f, converged=converged, n_iter=it,
                    residual=residual)


# uniform-point weight of model_start's point: an exact zero in lam stays zero
# under MD's multiplicative update, so its residual test could pass at a
# non-KKT point
WARM_START_MIX = 1e-6

# model_start gives the uniform point instead of a point whose Frank-Wolfe gap
# <g, lam> - min g, an upper bound on f_mu(lam) - min f_mu, is above this times
# f_mu(lam) + s rho; s rho keeps the test meaningful where min f_mu is 0 (K >= M)
START_GAP_RTOL = 1e-4


def model_starts(coeffs, mu: float) -> np.ndarray:
    """Cold starts of solve_relaxed, one row per slot: the minimizer of each
    slot's dual's piecewise-quadratic model. Row t depends on coeffs[t] alone.

    With the Huber window W = {m : |(C lam)_m| <= rho = mu s} and the signs
    sigma of the clipped entries held fixed, f_mu is the quadratic
    (s / 2 rho) lam^T G_W lam + s b^T lam + const, G_W = C_W^T C_W and
    b = C_Wbar^T sigma. Its simplex KKT system, (G_W + eps I)_AA lam_A +
    rho b_A = tau 1 and sum(lam_A) = 1, is solved on an active set A, at first
    every index, dropping the negative entries of lam until none are left;
    eps = 1e-9 max diag(G) covers the singular G of BPSK or K > M. W and sigma
    are then recomputed at lam until they repeat, at most 2K times; the first
    pass, with W every entry, minimizes the quadratic model. Dropping an
    index never compares its gradient with tau, and a window that does not
    repeat leaves lam optimal for another model, so in those two cases lam
    must pass the START_GAP_RTOL test of f_mu itself, or the uniform point is
    returned: MD's residual barely sees the WARM_START_MIX weight of an entry
    the start left out. lam is mixed with the uniform point by WARM_START_MIX.
    A zero or non-finite G = C^T C gives the uniform point, and a pass with
    non-finite values returns the previous one.

    The slots, all 2M x 2K, take their passes together: one stacked product
    gives every G, and one stacked solve per active-set step serves the
    slots still in it. Each slot keeps its own window, Gram C_W^T C_W from
    its own compacted rows, drops and stopping pass, and every product has
    the layout of a single slot's, so each row equals model_start of its
    slot bit for bit.
    """
    ct = np.stack([coeff.c.T for coeff in coeffs])  # (T, 2K, 2M): each C^T as built
    c = ct.transpose(0, 2, 1)
    n_slots, n = ct.shape[:2]
    s = np.array([coeff.amplitude for coeff in coeffs])
    rho = mu * s
    g = ct @ c
    diag = np.arange(n)
    scale = g[:, diag, diag].max(axis=1)
    ok = np.isfinite(g).all(axis=(1, 2)) & (scale > 0)
    lam = np.full((n_slots, n), 1.0 / n)
    sigma = np.zeros((n_slots, ct.shape[2]))  # sign of each clipped entry, 0 inside W
    rhs = np.empty((n_slots, n, 2))  # the right-hand sides 1 and b, as columns
    w = np.empty((n_slots, n))  # sum(v) lam of the last solve
    dropped = np.zeros(n_slots, dtype=bool)
    repeated = np.zeros(n_slots, dtype=bool)
    live = np.flatnonzero(ok)  # the slots whose passes go on
    # the products with C run over the whole stack: most slots are live in
    # most passes, and copying the live ones out cost more than the products
    for _ in range(n + 1):
        if not live.size:
            break
        g[live[:, None], diag, diag] += 1e-9 * scale[live, None]
        rhs[live, :, 0] = 1.0
        rhs[live, :, 1] = (ct @ sigma[..., None])[live, :, 0]
        dropped[live] = False
        step = live  # the slots whose active set is still shrinking
        while True:
            vu = np.linalg.solve(g[step], rhs[step])
            v, u = vu[..., 0], vu[..., 1]
            r = rho[step, None]
            w[step] = v * (1.0 + r * u.sum(axis=1, keepdims=True)) - (
                r * v.sum(axis=1, keepdims=True)) * u
            drop = w[step] < 0
            hit = drop.any(axis=1)
            if not hit.any():
                break
            step, drop = step[hit], drop[hit]
            dropped[step] = True
            # a dropped index gets an identity row and column and zero
            # right-hand sides, so its entries of v, u and w are 0 from now on
            g[step] = np.where(drop[:, :, None] | drop[:, None, :], np.eye(n), g[step])
            rhs[step] = np.where(drop[..., None], 0.0, rhs[step])
        total = w[live].sum(axis=1)  # w >= 0 now, so w / total is finite if total is
        fine = (0 < total) & (total < np.inf)
        live, total = live[fine], total[fine]
        lam[live] = w[live] / total[:, None]
        y = (c @ lam[..., None])[live, :, 0]
        clipped = np.sign(y) * (np.abs(y) > rho[live, None])
        same = (clipped == sigma[live]).all(axis=1)
        repeated[live] = same
        live, clipped = live[~same], clipped[~same]
        sigma[live] = clipped
        for t in live:
            inside = c[t][sigma[t] == 0.0]
            g[t] = inside.T @ inside
    # the Frank-Wolfe gap, as _clipped_value and _dual_grad give it per slot
    y = (c @ lam[..., None])[..., 0]
    y_c = np.maximum(y, -rho[:, None])
    np.minimum(y_c, rho[:, None], out=y_c)
    f = s / rho * (y_c[:, None, :] @ (y - 0.5 * y_c)[..., None])[:, 0, 0]
    grad = (ct @ y_c[..., None])[..., 0] * (s / rho)[:, None]
    gap = (grad[:, None, :] @ lam[..., None])[:, 0, 0] - grad.min(axis=1)
    uniform = ~ok | ((dropped | ~repeated) & (gap > START_GAP_RTOL * (f + s * rho)))
    out = (1.0 - WARM_START_MIX) * lam + WARM_START_MIX / n
    out[uniform] = 1.0 / n
    return out


def model_start(coeff: CoefficientMatrix, mu: float) -> np.ndarray:
    """Cold start of solve_relaxed for one slot: model_starts of that slot."""
    return model_starts([coeff], mu)[0]


# (mu, md_tol) warm-start stages of solve_relaxed; stages at or below the
# target mu are skipped, so the solve is a single cold start when the target
# is no smaller than the first stage
MU_STAGES = ((5e-4, 1e-7), (2e-5, 1e-7))


def start_mu(mu: float) -> float:
    """The mu at which solve_relaxed's cold start for target mu is taken:
    that of its first stage."""
    return max(mu, MU_STAGES[0][0])


def solve_relaxed(coeff: CoefficientMatrix, mu: float,
                  opts: SolverConfig = SolverConfig(), lam0: np.ndarray | None = None):
    """Dual solve plus primal recovery; shared by the one-bit and box designs.

    Small mu makes the dual poorly conditioned (the Huber window shrinks),
    so a cold start can take tens of thousands of iterations. The solve
    therefore runs the MU_STAGES above the target first, each initialized at
    the previous dual iterate, which reaches the same point several times
    faster. The first stage starts at lam0 (a simplex point) if given, else
    at model_start for that stage's mu, start_mu(mu), where MD mostly stops
    at its first residual test; the stages run either way. The callers that
    solve a frame take its cold starts in one model_starts call and pass
    each slot its row, equal to model_start bit for bit. Returns
    (xbar_relaxed, MdResult) for the final stage.
    """
    lam = model_start(coeff, start_mu(mu)) if lam0 is None else lam0
    for stage_mu, stage_tol in MU_STAGES:
        if stage_mu > mu:
            lam = mirror_descent(coeff, stage_mu, replace(opts, md_tol=stage_tol),
                                 lam0=lam).lam
    md = mirror_descent(coeff, mu, opts, lam0=lam)
    return recover_x(md.lam, coeff, mu), md


def mbi_round(xbar_relaxed, coeff: CoefficientMatrix, restarts: int,
              rng: np.random.Generator | None = None,
              fractional_tol: float = FRACTIONAL_TOL) -> np.ndarray:
    """Round a box point to the one-bit alphabet by block improvement.

    Entries saturated to within fractional_tol of +/-s are frozen at their
    signs; the fractional set is optimized by repeated best-single-flip
    passes (ties broken toward the lowest index), restarted `restarts` times:
    first from the sign rounding of the relaxed point (zeros to +s), then
    from i.i.d. uniform sign draws. The best restart is returned, so the
    result is never worse than naive sign rounding.

    Each restart keeps the flip deltas d_j = 2 x_j c_j of the fractional
    entries as the contiguous rows of one block; flipping entry j only negates
    d_j (exactly, in floating point), so a pass costs one subtraction instead
    of rebuilding every delta.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    s = coeff.amplitude
    xbar_relaxed = np.asarray(xbar_relaxed, dtype=float)
    base = np.where(xbar_relaxed >= 0, s, -s)
    frac = np.flatnonzero(np.abs(xbar_relaxed) < s * (1.0 - fractional_tol))
    if frac.size == 0:
        return base
    if restarts > 1 and rng is None:
        raise ValueError("random restarts need an rng")

    ct = coeff.c.T  # (2K, 2M)
    c_frac = coeff.c[frac]  # (n_frac, 2K)
    best_x = None
    best_val = np.inf
    for r in range(restarts):
        x = base.copy()
        if r > 0:
            x[frac] = s * (2.0 * rng.integers(0, 2, size=frac.size) - 1.0)
        w = ct @ x
        cur = w.max()
        d = 2.0 * (c_frac * x[frac, None])  # w - d[j] is w after entry j flips
        while True:
            cand = w - d
            cand_max = np.maximum.reduce(cand, axis=1)
            j = int(np.argmin(cand_max))
            if cand_max[j] >= cur:
                break
            x[frac[j]] = -x[frac[j]]
            w = cand[j]
            np.negative(d[j], out=d[j])
            cur = cand_max[j]
        if cur < best_val:
            best_val = cur
            best_x = x
    return best_x


@dataclass
class SymbolSolveResult:
    """One-bit design for a single slot, with its relaxation certificates.

    relax_value = -f_mu(lam) lower-bounds the regularized box problem;
    onebit_lower_bound = relax_value - mu P / 2 lower-bounds the unregularized
    one-bit optimum because every one-bit point has ||xbar||^2 = P.
    """

    xbar: np.ndarray
    objective: float
    xbar_relaxed: np.ndarray
    relax_value: float
    onebit_lower_bound: float
    md: MdResult


def solve_symbol(coeff: CoefficientMatrix, opts: SolverConfig = SolverConfig(),
                 rng: np.random.Generator | None = None,
                 lam0: np.ndarray | None = None) -> SymbolSolveResult:
    """Design the one-bit transmit vector for the slot of coefficient matrix coeff.

    Pipeline: a dual solve at opts.mu (solve_relaxed, mirror descent from
    lam0, a simplex point, else from model_start), closed-form primal
    recovery, MBI rounding of the fractional entries with opts.mbi_restarts
    starts. A frame's cold solves pass their rows of
    model_starts(coeffs, start_mu(opts.mu)), taken in one call and equal to
    model_start bit for bit. Deterministic given the rng state and settings.
    """
    xrel, md = solve_relaxed(coeff, opts.mu, opts, lam0)
    xbar = mbi_round(xrel, coeff, opts.mbi_restarts, rng)
    relax_value = -md.value
    power_total = coeff.n_lifted * coeff.amplitude ** 2
    return SymbolSolveResult(
        xbar=xbar,
        objective=worst_objective(xbar, coeff),
        xbar_relaxed=xrel,
        relax_value=relax_value,
        onebit_lower_bound=relax_value - opts.mu * power_total / 2.0,
        md=md,
    )
