"""Reference values the one-bit solver is measured against.

brute_force_onebit enumerates every sign pattern of a small slot, so it
gives the exact minimum of the one-bit problem that mirror descent and MBI
approach; tests bound the solver's gap to it and check the relaxation's
lower bound against it. exact_onebit takes the same minimum from a mixed
integer program, so it reaches slots too large to enumerate.

huber and dual_value evaluate the smoothed dual from its definition, one
Huber term per lifted entry; mirror descent takes the same value from the
clipped image instead, and tests compare the two. dual_gradient and
recover_x are the dual's gradient and the primal point at a dual point, run
on mirror descent's own kernels (onebit._clip, _dual_grad and _recover), so
the gradient and primal checks test the arithmetic the solver runs, bit for
bit. An MdResult keeps neither the dual value nor the residual, which no run
reads: md_value takes f_mu at its point from its product md.y through
onebit._clipped_value, the value MD's backtracking model reads there, and
md_residual takes the KL gradient-mapping residual at a point as MD's first
stop test takes it at its start.

cold_start is the start a frame's cold solve of a slot takes, and tests
take their cold starts from it; continued carries any other start through the
mu-continuation the same way; certificates gives the relaxation values of a
slot design that the solver does not compute, and relaxed_with_duals the
per-slot dual values of a box solve, which relaxed_slp does not return.

quadratic_model_start is the cold start the solver used before it took the
Huber clipping into account: the minimizer of the dual's quadratic model
alone. onebit.model_starts equals it when no entry of C lam leaves the Huber
window, and tests require the solver's start to need fewer MD iterations.
"""

from typing import NamedTuple

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from irsprecode import baselines, onebit
from irsprecode.checks import check_real
from irsprecode.onebit import (
    MU_STAGES,
    WARM_START_MIX,
    CoefficientMatrix,
    _clip,
    _clipped_value,
    _dual_grad,
    _recover,
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


def dual_gradient(lam, coeff: CoefficientMatrix, mu: float) -> np.ndarray:
    """Gradient of f_mu; equals -C^T xbar*(lam) with xbar* from recover_x.
    Bit-equal to mirror_descent's, as it runs the same kernels."""
    check_real("mu", mu, positive=True)
    s = coeff.amplitude
    y_c = _clip(coeff.c @ np.asarray(lam, dtype=float), mu * s)
    return _dual_grad(coeff.c.T, y_c, s, mu * s)


def md_value(md, coeff: CoefficientMatrix, mu: float) -> float:
    """f_mu(md.lam) for an MdResult md of a solve of coeff at mu, from its
    product md.y = C lam: bit-equal to the value mirror_descent computes at
    that point whenever it computes one."""
    check_real("mu", mu, positive=True)
    s = coeff.amplitude
    return _clipped_value(md.y, s, mu * s)[1]


def md_residual(lam, coeff: CoefficientMatrix, mu: float) -> float:
    """The KL gradient-mapping residual ||T_1(lam) - lam||_1 at a simplex
    point lam, bit-equal to mirror_descent's first stop test from the start
    lam. At a point MD stepped to, MD carries log lam from its softmax, which
    can differ from np.log(lam) in the last bits."""
    check_real("mu", mu, positive=True)
    lam = np.array(lam, dtype=float)
    s = coeff.amplitude
    gap = np.log(lam, out=np.full(lam.size, -np.inf), where=lam > 0)
    gap -= _dual_grad(coeff.c.T, _clip(coeff.c @ lam, mu * s), s, mu * s)
    gap -= np.maximum.reduce(gap)
    np.exp(gap, out=gap)
    gap /= np.add.reduce(gap)
    gap -= lam
    return float(np.add.reduce(np.abs(gap, out=gap)))


def recover_x(lam, coeff: CoefficientMatrix, mu: float) -> np.ndarray:
    """Inner minimizer xbar*(lam) = -clip(C lam / mu, [-s, s]) of the box
    problem, as solve_relaxed recovers it from MD's product C lam."""
    check_real("mu", mu, positive=True)
    return _recover(coeff.c @ np.asarray(lam, dtype=float), coeff.amplitude, mu)


def cold_start(coeff: CoefficientMatrix, mu: float) -> np.ndarray:
    """The cold start of the slot solve of coeff at mu: its row of
    cold_starts at mu, as onebit.frame_slots gives it. The call goes
    through the module, so a spy on onebit.cold_starts or model_starts sees it."""
    return onebit.cold_starts([coeff], mu)[0]


def continued(coeff: CoefficientMatrix, mu: float, lam0) -> np.ndarray:
    """lam0, a point for the first MU_STAGES stage, carried by
    onebit.mirror_descent through each stage above mu as onebit.cold_starts
    carries its model_starts rows: a start for a solve at mu."""
    for stage_mu, stage_tol in MU_STAGES:
        if stage_mu > mu:
            lam0 = onebit.mirror_descent(coeff, stage_mu, stage_tol, lam0).lam
    return lam0


class Certificates(NamedTuple):
    objective: float
    relax_value: float
    onebit_lower_bound: float


def certificates(xbar, md, coeff: CoefficientMatrix, mu: float) -> Certificates:
    """Relaxation certificates of a slot design (xbar, md) solved at mu.

    objective = max_k c_k^T xbar is the design's negated worst margin;
    relax_value = -f_mu(md.lam) lower-bounds the regularized box problem;
    onebit_lower_bound = relax_value - mu P / 2 lower-bounds the unregularized
    one-bit optimum, because every one-bit point has ||xbar||^2 = P.
    """
    relax_value = -md_value(md, coeff, mu)
    power_total = coeff.c.shape[0] * coeff.amplitude ** 2
    return Certificates(worst_objective(xbar, coeff), relax_value,
                        relax_value - mu * power_total / 2.0)


def relaxed_with_duals(relaxed_slp, *args, **kwargs):
    """(relaxed_slp(*args, **kwargs), its per-slot dual values f_mu(lam)),
    md_value of each of its baselines.solve_relaxed calls, seen by a spy."""
    values = []

    def spy(coeff, mu, lam0, real=baselines.solve_relaxed):
        out = real(coeff, mu, lam0)
        values.append(md_value(out[1], coeff, mu))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baselines, "solve_relaxed", spy)
        res = relaxed_slp(*args, **kwargs)
    return res, np.array(values)


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
    n = coeff.c.shape[0]
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


def exact_onebit(coeff: CoefficientMatrix):
    """Minimizer of max_k c_k^T xbar over the one-bit alphabet by
    scipy.optimize.milp: xbar = s (2b - 1) for 2M binaries b, and one free
    t with one row c_k^T xbar <= t per column k of C, minimizing t. With no
    relative gap allowed, the optimum is exact up to HiGHS's absolute gap
    of 1e-6. Returns (xbar, value), value = max_k c_k^T xbar of the returned
    xbar; raises RuntimeError if the solver reports no optimum."""
    s = coeff.amplitude
    n, n_con = coeff.c.shape
    # c_k^T s (2b - 1) <= t, i.e. 2 s c_k^T b - t <= s sum(c_k)
    rows = np.hstack([2.0 * s * coeff.c.T, -np.ones((n_con, 1))])
    res = milp(np.r_[np.zeros(n), 1.0],
               constraints=LinearConstraint(rows, -np.inf, s * coeff.c.sum(axis=0)),
               integrality=np.r_[np.ones(n), 0.0],
               bounds=Bounds(np.r_[np.zeros(n), -np.inf], np.r_[np.ones(n), np.inf]),
               options={"mip_rel_gap": 0.0})
    if res.status != 0:
        raise RuntimeError(f"milp found no optimum: {res.message}")
    xbar = np.where(res.x[:n] > 0.5, s, -s)
    return xbar, worst_objective(xbar, coeff)
