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

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .constellation import PskConstellation

# lifted entries within this relative distance of +/-s count as saturated
FRACTIONAL_TOL = 1e-6


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
        if self.amplitude <= 0:
            raise ValueError("amplitude must be positive")
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
        if self.amplitude <= 0:
            raise ValueError("amplitude must be positive")

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
    if power <= 0:
        raise ValueError("power must be positive")
    h_eff = np.atleast_2d(np.asarray(h_eff, dtype=complex))
    symbols = np.asarray(symbols, dtype=complex).ravel()
    if symbols.size != h_eff.shape[0]:
        raise ValueError("one symbol per user required")
    g = np.conj(symbols)[:, None] * h_eff  # rows are s_k^* h_k^H
    a = np.concatenate([g.real, -g.imag], axis=1)  # (K, 2M)
    b = constellation.cot_half_sector * np.concatenate([g.imag, g.real], axis=1)
    c = np.concatenate([-a + b, -a - b], axis=0).T  # (2M, 2K)
    amplitude = float(np.sqrt(power / c.shape[0]))
    return CoefficientMatrix(c=c, amplitude=amplitude)


def worst_objective(xbar, coeff: CoefficientMatrix) -> float:
    """max_k c_k^T xbar, the negated worst-user margin of a lifted signal."""
    return float(np.max(coeff.c.T @ np.asarray(xbar, dtype=float)))


def huber(y, rho: float):
    """Huber function: y^2/(2 rho) for |y| <= rho, |y| - rho/2 beyond."""
    if rho <= 0:
        raise ValueError("huber width must be positive")
    y = np.asarray(y, dtype=float)
    ay = np.abs(y)
    return np.where(ay <= rho, y * y / (2.0 * rho), ay - rho / 2.0)


def dual_value(lam, coeff: CoefficientMatrix, mu: float) -> float:
    """f_mu(lam) = s * sum_m huber_{mu s}(cbar_m lam)."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    s = coeff.amplitude
    y = coeff.c @ np.asarray(lam, dtype=float)
    return float(s * huber(y, mu * s).sum())


def dual_gradient(lam, coeff: CoefficientMatrix, mu: float) -> np.ndarray:
    """Gradient of f_mu; equals -C^T xbar*(lam) with xbar* from recover_x."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    s = coeff.amplitude
    y = coeff.c @ np.asarray(lam, dtype=float)
    d = np.clip(y / (mu * s), -1.0, 1.0)
    return s * (coeff.c.T @ d)


def recover_x(lam, coeff: CoefficientMatrix, mu: float) -> np.ndarray:
    """Inner minimizer xbar*(lam) = -clip(C lam / mu, [-s, s]) of the box problem."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    s = coeff.amplitude
    return -np.clip((coeff.c @ np.asarray(lam, dtype=float)) / mu, -s, s)


@dataclass(frozen=True)
class MdOptions:
    """Mirror-descent controls.

    tol is on the KL gradient-mapping residual with unit reference step,
    r(lam) = ||T_1(lam) - lam||_1, which vanishes exactly at simplex-KKT
    points. Backtracking halves the step until the prox-model
    sufficient-decrease test holds; the accepted step is doubled at the start
    of the next iteration.
    """

    max_iter: int = 20000
    tol: float = 1e-6
    record_trace: bool = False


@dataclass
class MdTraceRecord:
    iteration: int
    value: float
    step: float
    residual: float


@dataclass
class MdResult:
    lam: np.ndarray
    value: float
    converged: bool
    n_iter: int
    residual: float
    trace: list


def mirror_descent(coeff: CoefficientMatrix, mu: float,
                   opts: MdOptions = MdOptions(),
                   lam0: np.ndarray | None = None) -> MdResult:
    """Minimize f_mu over the simplex by entropic mirror descent.

    Starts from the uniform point unless a warm start lam0 (a simplex point)
    is given. Each iteration takes the multiplicative update with a
    backtracked step satisfying the Bregman sufficient-decrease test; steps
    at or below the descent-lemma floor mu/sigma_max(C)^2 are always
    accepted (the test holds mathematically there even when the decrease is
    too small to resolve in floating point), so progress cannot stall on
    rounding noise near the optimum. f_mu never increases beyond rounding.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    n = coeff.n_constraints
    s = coeff.amplitude
    rho = mu * s
    c = coeff.c
    ct = np.ascontiguousarray(c.T)
    if lam0 is None:
        lam = np.full(n, 1.0 / n)
    else:
        lam = np.asarray(lam0, dtype=float).copy()
        if lam.shape != (n,) or lam.min() < 0 or abs(lam.sum() - 1.0) > 1e-9:
            raise ValueError("warm start must be a point on the simplex")
    y = c @ lam
    f = float(s * huber(y, rho).sum())

    # Pinsker gives KL >= ||.||_1^2 / 2 >= ||.||_2^2 / 2, and the Huber
    # curvature caps the dual Hessian at sigma_max(C)^2 / mu, so any step
    # <= safe_step satisfies the sufficient-decrease model exactly
    sigma = float(np.linalg.norm(c, 2))
    safe_step = mu / (sigma * sigma) if sigma > 0 else 1.0
    step = safe_step

    # log(lam) is carried across iterations (recovered from the softmax
    # normalization) so the loop body never calls log on lam itself; exact
    # zeros give -inf and stay zero through exp
    with np.errstate(divide="ignore"):
        log_lam = np.log(lam)
    trace: list = []
    converged = False
    residual = np.inf
    it = 0
    for it in range(opts.max_iter + 1):
        np.clip(y, -rho, rho, out=y)
        grad = ct @ y
        grad *= s / rho
        w = log_lam - grad
        w -= w.max()
        e = np.exp(w)
        residual = float(np.abs(e / e.sum() - lam).sum())
        if opts.record_trace:
            trace.append(MdTraceRecord(it, f, step, residual))
        if residual <= opts.tol:
            converged = True
            break
        if it == opts.max_iter:
            break
        step *= 2.0
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
        lam, y, f = lam_new, y_new, f_new
        log_lam = w - np.log(se)

    return MdResult(lam=lam, value=f, converged=converged, n_iter=it,
                    residual=residual, trace=trace)


# (mu, tol) warm-start stages of solve_relaxed; stages at or below the
# target mu are skipped, so the solve is a single cold start when the target
# is no smaller than the first stage
MU_STAGES = ((5e-4, 1e-7), (2e-5, 1e-7))


def solve_relaxed(coeff: CoefficientMatrix, mu: float,
                  opts: MdOptions = MdOptions()):
    """Dual solve plus primal recovery; shared by the one-bit and box designs.

    Small mu makes the dual poorly conditioned (the Huber window shrinks),
    so a cold start can take tens of thousands of iterations. The solve
    therefore runs the MU_STAGES above the target first, each initialized at
    the previous dual iterate, which reaches the same point several times
    faster. Returns (xbar_relaxed, MdResult) for the final stage.
    """
    lam = None
    for stage_mu, stage_tol in MU_STAGES:
        if stage_mu > mu:
            lam = mirror_descent(coeff, stage_mu,
                                 dataclasses.replace(opts, tol=stage_tol), lam0=lam).lam
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
    entries; flipping entry j only negates d_j (exactly, in floating point),
    so a pass costs one subtraction instead of rebuilding every delta.
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
    ct_frac = ct[:, frac]
    best_x = None
    best_val = np.inf
    for r in range(restarts):
        x = base.copy()
        if r > 0:
            x[frac] = s * (2.0 * rng.integers(0, 2, size=frac.size) - 1.0)
        w = ct @ x
        cur = w.max()
        d = 2.0 * (ct_frac * x[frac])  # w - d[:, j] is w after entry j flips
        while True:
            cand = w[:, None] - d
            cand_max = cand.max(axis=0)
            j = int(np.argmin(cand_max))
            if cand_max[j] >= cur:
                break
            x[frac[j]] = -x[frac[j]]
            w = cand[:, j].copy()
            d[:, j] = -d[:, j]
            cur = cand_max[j]
        if cur < best_val:
            best_val = cur
            best_x = x
    return best_x


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for the per-slot one-bit solve."""

    mu: float = 5e-4
    md: MdOptions = field(default_factory=MdOptions)
    mbi_restarts: int = 5

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.mbi_restarts < 1:
            raise ValueError("need at least one MBI restart")


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
    lam: np.ndarray
    relax_value: float
    onebit_lower_bound: float
    n_fractional: int
    md: MdResult


def solve_symbol(h_eff, symbols, constellation: PskConstellation, power: float,
                 opts: SolveOptions = SolveOptions(),
                 rng: np.random.Generator | None = None) -> SymbolSolveResult:
    """Design the one-bit transmit vector for one slot.

    Pipeline: coefficient assembly, dual mirror descent, closed-form primal
    recovery, MBI rounding of the fractional entries. Deterministic given the
    rng state and options.
    """
    coeff = build_coefficients(h_eff, symbols, constellation, power)
    xrel, md = solve_relaxed(coeff, opts.mu, opts.md)
    xbar = mbi_round(xrel, coeff, opts.mbi_restarts, rng)
    n_frac = int(np.sum(np.abs(xrel) < coeff.amplitude * (1.0 - FRACTIONAL_TOL)))
    relax_value = -md.value
    power_total = coeff.n_lifted * coeff.amplitude ** 2
    return SymbolSolveResult(
        xbar=xbar,
        objective=worst_objective(xbar, coeff),
        xbar_relaxed=xrel,
        lam=md.lam,
        relax_value=relax_value,
        onebit_lower_bound=relax_value - opts.mu * power_total / 2.0,
        n_fractional=n_frac,
        md=md,
    )


def brute_force_onebit(coeff: CoefficientMatrix):
    """Exact minimizer of max_k c_k^T xbar over the one-bit alphabet.

    Enumerates all 2^(2M) sign patterns (guarded to 2M <= 24) in chunks.
    Ties resolve to the smallest code, i.e. the lexicographically first
    pattern in (-s first) coordinate order. Returns (xbar, value).
    """
    n = coeff.n_lifted
    if n > 24:
        raise ValueError(f"brute force capped at 2M <= 24, got {n}")
    s = coeff.amplitude
    best_val = np.inf
    best_code = -1
    total = 1 << n
    chunk = 1 << 16
    shifts = np.arange(n, dtype=np.int64)
    for lo in range(0, total, chunk):
        codes = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        signs = (((codes[:, None] >> shifts) & 1) * 2 - 1).astype(float)
        vals = (signs @ coeff.c).max(axis=1) * s
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_code = int(codes[i])
    signs = ((best_code >> shifts) & 1) * 2 - 1
    return signs.astype(float) * s, best_val
