"""Reference values the one-bit solver is measured against.

brute_force_onebit enumerates every sign pattern of a small slot, so it
gives the exact minimum of the one-bit problem that mirror descent and MBI
approach; tests bound the solver's gap to it and check the relaxation's
lower bound against it.

huber and dual_value evaluate the smoothed dual from its definition, one
Huber term per lifted entry; mirror descent takes the same value from the
clipped image instead, and tests compare the two.

cold_start is the start a frame's cold solve of a slot takes, and tests
take their cold starts from it; certificates gives the relaxation values of a
slot design that the solver does not compute, and relaxed_with_duals the
per-slot dual values of a box solve, which its RelaxedFrame does not keep.

quadratic_model_start is the cold start the solver used before it took the
Huber clipping into account: the minimizer of the dual's quadratic model
alone. onebit.model_starts equals it when no entry of C lam leaves the Huber
window, and tests require the solver's start to need fewer MD iterations.
"""

from typing import NamedTuple

import numpy as np
import pytest

from irsprecode import baselines, onebit
from irsprecode.checks import check_real
from irsprecode.onebit import (
    WARM_START_MIX,
    CoefficientMatrix,
    SolverConfig,
    start_mu,
    worst_objective,
)


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


def cold_start(coeff: CoefficientMatrix, opts: SolverConfig) -> np.ndarray:
    """The cold start of the slot solve of coeff under opts: its row of
    model_starts at start_mu(opts.mu), as onebit.frame_slots gives it. The
    call goes through the module, so a spy on onebit.model_starts sees it."""
    return onebit.model_starts([coeff], start_mu(opts.mu))[0]


class Certificates(NamedTuple):
    objective: float
    relax_value: float
    onebit_lower_bound: float


def certificates(xbar, md, coeff: CoefficientMatrix, opts: SolverConfig) -> Certificates:
    """Relaxation certificates of a slot design (xbar, md) solved at opts.mu.

    objective = max_k c_k^T xbar is the design's negated worst margin;
    relax_value = -f_mu(md.lam) lower-bounds the regularized box problem;
    onebit_lower_bound = relax_value - mu P / 2 lower-bounds the unregularized
    one-bit optimum, because every one-bit point has ||xbar||^2 = P.
    """
    relax_value = -md.value
    power_total = coeff.n_lifted * coeff.amplitude ** 2
    return Certificates(worst_objective(xbar, coeff), relax_value,
                        relax_value - opts.mu * power_total / 2.0)


def relaxed_with_duals(relaxed_slp, *args, **kwargs):
    """(relaxed_slp(*args, **kwargs), its per-slot dual values f_mu(lam)),
    the values read off its baselines.solve_relaxed calls by a spy."""
    mds = []

    def spy(*solve_args, real=baselines.solve_relaxed):
        out = real(*solve_args)
        mds.append(out[1])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baselines, "solve_relaxed", spy)
        res = relaxed_slp(*args, **kwargs)
    return res, np.array([md.value for md in mds])


def quadratic_model_start(coeff: CoefficientMatrix) -> np.ndarray:
    """Minimizer of the dual's quadratic model (s / 2 rho) lam^T G lam, G = C^T C.

    (G_AA + eps I) v = 1 is solved on an active set A, at first every index,
    dropping the nonpositive entries of v until none are left; eps = 1e-9
    max diag(G). v / sum(v) is then mixed with the uniform point by
    WARM_START_MIX, as model_starts mixes. A zero G gives the uniform
    point."""
    g = coeff.c.T @ coeff.c
    n = g.shape[0]
    scale = g.diagonal().max()
    if not scale > 0:
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
