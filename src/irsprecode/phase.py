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
rises (O'Donoghue and Candes' function-value restart). Since only that best
iterate is returned, APG stops once APG_PATIENCE iterations in a row
have not improved it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet
from .checks import check_matrix, check_real
from .constellation import SymbolFrame
from .onebit import _sigma_max_sq

# apg_optimize stops after this many iterations in a row without a new best
# true objective: over the 1040 solves of desk seeds 0-19 (20 channels each)
# the returned iterate came from the first 10 iterations in 98.8% of them
# and never from one after the 30th
APG_PATIENCE = 15
# its iteration cap (not converged); no solve of desk seeds 0-4 took over 45
APG_MAX_ITER = 500


@dataclass(frozen=True)
class PhaseCoefficients:
    """Linear constraint data of the phase subproblem.

    Column j of eta and entry j of vbar describe one half-plane constraint;
    the two columns of a (slot, user) pair sit at j = t*K + k and
    j = K*T + t*K + k. eta is stored and checked by checks.check_matrix.
    """

    eta: np.ndarray  # (2N, 2KT)
    vbar: np.ndarray  # (2KT,)

    def __post_init__(self):
        eta = check_matrix("eta", self.eta, ("N", "KT"))
        vbar = np.asarray(self.vbar, dtype=float).ravel()
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "vbar", vbar)
        if vbar.size != eta.shape[1] or not np.isfinite(vbar).all():
            raise ValueError("vbar must be one finite offset per constraint column")

    @property
    def n_lifted(self) -> int:
        return self.eta.shape[0]


def build_phase_coefficients(ch: ChannelSet, x: np.ndarray,
                             symbols: SymbolFrame) -> PhaseCoefficients:
    """Assemble (eta, vbar) from channels, the complex (T, M) transmit array x
    (AO's one-bit frame, as onebit.onebit_frame builds it), and symbols."""
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


def _constraint_values(theta_bar: np.ndarray, coeffs: PhaseCoefficients) -> np.ndarray:
    """All constraint values eta_j^T theta_bar + vbar_j."""
    return theta_bar @ coeffs.eta + coeffs.vbar


def _lse(vals: np.ndarray, delta: float, eta: np.ndarray | None = None):
    """(smoothed value, gradient) of delta logsumexp(vals / delta).

    The gradient eta @ softmax(vals / delta) is computed only when eta is
    given (None otherwise). With a = vals / delta, a_max its maximum and m
    the number of entries equal to it, the value is delta (log1p(sum_{a_i <
    a_max} exp(a_i - a_max) / m) + log m + a_max): the maxima are taken out
    of the sum for precision. This is the arithmetic of
    scipy.special.logsumexp (SciPy 1.17), step for step, so both give the
    same bits on finite input; the shape-(1,) arrays keep every scalar
    operation on the same NumPy loops as SciPy's. A single maximum skips the
    / m and + log m, exact no-ops at m = 1 (the sum is not negative). The
    callers check delta.
    """
    a = vals / delta
    a_max = np.maximum.reduce(a, keepdims=True)
    at_max = a == a_max
    a -= a_max
    e = np.exp(a, out=a)
    grad = None if eta is None else eta @ (e / np.add.reduce(e))
    m = np.count_nonzero(at_max)
    np.putmask(e, at_max, 0.0)
    s = np.add.reduce(e, keepdims=True)
    if m == 1:
        return float(delta * (np.log1p(s) + a_max)[0]), grad
    m = np.array([m], dtype=float)
    return float(delta * (np.log1p(s / m) + np.log(m) + a_max)[0]), grad


def max_constraint(theta_bar, coeffs: PhaseCoefficients) -> float:
    """True objective max_j eta_j^T theta_bar + vbar_j (negated worst margin)."""
    return float(np.max(_constraint_values(theta_bar, coeffs)))


def lse_value(theta_bar, coeffs: PhaseCoefficients, delta: float) -> float:
    """Log-sum-exp smoothing of the max constraint; overflow-safe."""
    check_real("delta", delta, positive=True)
    return _lse(_constraint_values(theta_bar, coeffs), delta)[0]


def lse_gradient(theta_bar, coeffs: PhaseCoefficients, delta: float) -> np.ndarray:
    """Gradient of the smoothed objective: eta times the softmax weights."""
    check_real("delta", delta, positive=True)
    return _lse(_constraint_values(theta_bar, coeffs), delta, coeffs.eta)[1]


def project_unit_modulus(theta_bar: np.ndarray) -> np.ndarray:
    """Normalize every (theta_bar_n, theta_bar_{n+N}) pair to the unit circle.

    An exactly zero pair has no direction; it maps to (1, 0) by convention.
    """
    if theta_bar.ndim != 1 or theta_bar.size % 2:
        raise ValueError("lifted phases must be a real 2N-vector")
    pairs = theta_bar.reshape(2, -1)
    a, b = pairs[0], pairs[1]
    r = np.hypot(a, b)
    if np.minimum.reduce(r, initial=np.inf) > 0:  # no zero pair, no NaN: one division
        return np.divide(pairs, r).reshape(-1)
    zero = r == 0
    safe = np.where(zero, 1.0, r)
    return np.concatenate([np.where(zero, 1.0, a / safe),
                           np.where(zero, 0.0, b / safe)])


@functools.lru_cache(maxsize=8)
def momentum_sequence(n: int):
    """First n momentum pairs (zeta_r, psi_r), r = 0..n-1, as apg_optimize uses them.

    zeta follows zeta_r = (1 + sqrt(1 + 4 zeta_{r-1}^2)) / 2 from zeta_{-1}=0,
    and psi_r = (zeta_r - 1) / zeta_r. Built once per n; both arrays are
    read-only.
    """
    zeta = np.empty(n)
    psi = np.empty(n)
    prev = 0.0
    for r in range(n):
        cur = (1.0 + np.sqrt(1.0 + 4.0 * prev * prev)) / 2.0
        zeta[r] = cur
        psi[r] = (cur - 1.0) / cur
        prev = cur
    zeta.flags.writeable = psi.flags.writeable = False
    return zeta, psi


@dataclass
class ApgResult:
    theta_bar: np.ndarray  # best true-objective iterate, always in Phi
    value: float  # max_constraint at theta_bar
    converged: bool
    n_iter: int
    best_iter: int  # the iteration that found theta_bar; 0 for the start


def apg_optimize(coeffs: PhaseCoefficients, theta_bar_init, delta: float) -> ApgResult:
    """Minimize the smoothed worst constraint over the unit-modulus set.

    Smooths at width delta, a finite positive number; stops once
    APG_PATIENCE iterations in a row have not lowered the best true
    objective (converged), or after APG_MAX_ITER iterations (not converged).
    The inverse step tau starts at the exact smoothed-gradient Lipschitz
    bound sigma_max^2 / delta (from onebit._sigma_max_sq), is halved
    optimistically each iteration, and backtracks (doubling, capped at the
    bound where the descent lemma accepts unconditionally). The momentum
    weights follow momentum_sequence; an iterate whose smoothed objective
    is above the previous iterate's restarts it from psi_0 = 0. Every point
    APG forms, backtracking trials included, goes through the module's
    project_unit_modulus. The initial point must be finite; it is projected
    onto Phi and counts in best-iterate tracking, so the returned value never
    exceeds the initial objective; best_iter is 0 when no iterate beat it.
    """
    check_real("delta", delta, positive=True)
    if not np.isfinite(theta_bar_init).all():
        raise ValueError("the initial phase vector must be finite")
    theta = project_unit_modulus(theta_bar_init)
    if theta.size != coeffs.n_lifted:
        raise ValueError("phase vector length must match coefficient rows")

    lipschitz = _sigma_max_sq(coeffs.eta) / delta
    if lipschitz == 0.0:
        # constant objective over Phi; the init is already optimal
        return ApgResult(theta_bar=theta, value=max_constraint(theta, coeffs),
                         converged=True, n_iter=0, best_iter=0)

    psis = momentum_sequence(APG_MAX_ITER)[1]
    # the start point goes through the public kernels, which perfbench's
    # tracer wraps and requires to run; psi_0 = 0 makes it the first
    # extrapolated point too. Every later point costs one product: its
    # constraint values give the smoothed value, the gradient at an
    # extrapolated point and the true objective at an accepted one.
    best_theta = theta
    best_val = max_constraint(theta, coeffs)
    h_prev = lse_value(theta, coeffs, delta)
    z, h_z, g = theta, h_prev, lse_gradient(theta, coeffs, delta)
    best_it = 0  # the iteration that found best_theta
    r = 1  # position in the momentum sequence
    tau = lipschitz

    for it in range(1, APG_MAX_ITER + 1):  # runs at least once
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

        val = float(np.maximum.reduce(vals))
        if val < best_val:
            best_val = val
            best_theta = theta_new
            best_it = it

        # nonconvex projection plus momentum can cycle; a smoothed-objective
        # rise kills the momentum (next psi becomes 0)
        if h_new > h_prev:
            r = 0

        theta_prev, theta = theta, theta_new
        h_prev = h_new
        if it - best_it >= APG_PATIENCE:
            break

    return ApgResult(theta_bar=best_theta, value=best_val,
                     converged=it - best_it >= APG_PATIENCE, n_iter=it, best_iter=best_it)
