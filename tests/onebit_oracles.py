"""Reference values the one-bit solver is measured against.

brute_force_onebit enumerates every sign pattern of a small slot, so it
gives the exact minimum of the one-bit problem that mirror descent and MBI
approach; tests bound the solver's gap to it and check the relaxation's
lower bound against it.

huber and dual_value evaluate the smoothed dual from its definition, one
Huber term per lifted entry; mirror descent takes the same value from the
clipped image instead, and tests compare the two.

quadratic_model_start is the cold start the solver used before it took the
Huber clipping into account: the minimizer of the dual's quadratic model
alone. onebit.model_start equals it when no entry of C lam leaves the Huber
window, and tests require the solver's start to need fewer MD iterations.
"""

import numpy as np

from irsprecode.checks import check_real
from irsprecode.onebit import WARM_START_MIX, CoefficientMatrix


def huber(y, rho: float):
    """Huber function: y^2/(2 rho) for |y| <= rho, |y| - rho/2 beyond."""
    if rho <= 0:
        raise ValueError("huber width must be positive")
    y = np.asarray(y, dtype=float)
    ay = np.abs(y)
    return np.where(ay <= rho, y * y / (2.0 * rho), ay - rho / 2.0)


def dual_value(lam, coeff: CoefficientMatrix, mu: float) -> float:
    """f_mu(lam) = s * sum_m huber_{mu s}(cbar_m lam)."""
    check_real("mu", mu, positive=True)
    s = coeff.amplitude
    y = coeff.c @ np.asarray(lam, dtype=float)
    return float(s * huber(y, mu * s).sum())


def quadratic_model_start(coeff: CoefficientMatrix) -> np.ndarray:
    """Minimizer of the dual's quadratic model (s / 2 rho) lam^T G lam, G = C^T C.

    (G_AA + eps I) v = 1 is solved on an active set A, at first every index,
    dropping the nonpositive entries of v until none are left; eps = 1e-9
    max diag(G). v / sum(v) is then mixed with the uniform point by
    WARM_START_MIX, as model_start mixes. A zero or non-finite G gives the
    uniform point."""
    g = coeff.c.T @ coeff.c
    n = g.shape[0]
    scale = g.diagonal().max()
    if not (np.isfinite(g).all() and scale > 0):
        return np.full(n, 1.0 / n)
    active = np.arange(n)
    while True:
        sub = g[np.ix_(active, active)] + 1e-9 * scale * np.eye(active.size)
        v = np.linalg.solve(sub, np.ones(active.size))
        if v.min() > 0:
            break
        active = active[v > 0]
    lam = np.zeros(n)
    lam[active] = v / v.sum()
    return (1.0 - WARM_START_MIX) * lam + WARM_START_MIX / n


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
